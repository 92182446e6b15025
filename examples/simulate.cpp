// Config-driven scenario runner: explore the paper's parameter space from
// the command line without writing code.
//
//   $ ./simulate mode=Hybrid fraction=0.3 duration=30 rate=2000 seed=9
//   $ ./simulate mode=PS checkpoint_ms=500 heartbeat_ms=200 fraction=0.2
//   $ ./simulate mode=NONE shed=100 fraction=0.4
//
// Keys (all optional): mode (NONE|AS|PS|Hybrid), rate (el/s), pes,
// pes_per_subjob, work_us, fraction (failure-time fraction), spike_ms,
// ramp_ms, on_standby (bool), checkpoint_ms, heartbeat_ms, ckpt
// (sweeping|synchronous|individual), shed (queue depth), shared (bool,
// multiplexed standby), duration (s), warmup (s), seed.
#include <cstdio>
#include <string>

#include "common/config.hpp"
#include "exp/scenario.hpp"
#include "metrics/report.hpp"

using namespace streamha;

namespace {

HaMode parseMode(const std::string& text) {
  if (text == "AS") return HaMode::kActiveStandby;
  if (text == "PS") return HaMode::kPassiveStandby;
  if (text == "Hybrid" || text == "hybrid") return HaMode::kHybrid;
  return HaMode::kNone;
}

CheckpointKind parseCkpt(const std::string& text) {
  if (text == "synchronous" || text == "sync") return CheckpointKind::kSynchronous;
  if (text == "individual") return CheckpointKind::kIndividual;
  return CheckpointKind::kSweeping;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  const auto failed = config.setFromArgs(argc, argv);
  for (const auto& bad : failed) {
    std::fprintf(stderr, "ignoring malformed argument: %s\n", bad.c_str());
  }

  ScenarioParams p;
  p.mode = parseMode(config.getString("mode", "Hybrid"));
  p.dataRatePerSec = config.getDouble("rate", 1000);
  p.numPes = static_cast<int>(config.getInt("pes", 8));
  p.pesPerSubjob = static_cast<int>(config.getInt("pes_per_subjob", 2));
  p.peWorkUs = config.getDouble("work_us", 300.0);
  p.failureFraction = config.getDouble("fraction", 0.2);
  p.failureDuration = fromMillis(config.getDouble("spike_ms", 1000));
  p.failureRamp = fromMillis(config.getDouble("ramp_ms", 0));
  p.failuresOnStandbys = config.getBool("on_standby", true);
  p.checkpointInterval = fromMillis(config.getDouble("checkpoint_ms", 50));
  p.heartbeatInterval = fromMillis(config.getDouble("heartbeat_ms", 100));
  p.checkpointKind = parseCkpt(config.getString("ckpt", "sweeping"));
  p.flow.shedThreshold = static_cast<std::size_t>(config.getInt("shed", 0));
  p.flow.enabled = p.flow.shedThreshold != 0;
  p.sharedSecondary = config.getBool("shared", false);
  p.duration = fromSeconds(config.getDouble("duration", 20));
  p.warmup = fromSeconds(config.getDouble("warmup", 2));
  p.seed = static_cast<std::uint64_t>(config.getInt("seed", 1));

  std::printf("configuration: %s\n\n", config.toString().c_str());
  Scenario scenario(p);
  const ScenarioResult r = scenario.runAll();

  Table table({"metric", "value"});
  table.addRow({"HA mode", toString(p.mode)});
  table.addRow({"elements generated", Table::integer(r.sourceGenerated)});
  table.addRow({"elements at sink", Table::integer(r.sinkReceived)});
  table.addRow({"avg E2E delay (ms)", Table::num(r.avgDelayMs, 2)});
  table.addRow({"p99 E2E delay (ms)", Table::num(r.p99DelayMs, 2)});
  table.addRow({"delay during failures (ms)",
                Table::num(r.delaySplit.duringFailure.mean(), 2)});
  table.addRow({"delay outside failures (ms)",
                Table::num(r.delaySplit.outsideFailure.mean(), 2)});
  table.addRow({"avg CPU on loaded machines",
                Table::num(100 * r.avgCpuLoad, 0) + "%"});
  table.addRow({"traffic (elements)", Table::integer(r.traffic.totalElements())});
  table.addRow({"  data", Table::integer(r.traffic.elementsOf(MsgKind::kData))});
  table.addRow({"  checkpoint",
                Table::integer(r.traffic.elementsOf(MsgKind::kCheckpoint))});
  table.addRow({"switchovers / rollbacks / promotions",
                Table::integer(r.switchovers) + " / " +
                    Table::integer(r.rollbacks) + " / " +
                    Table::integer(r.promotions)});
  if (r.recovery.count > 0) {
    table.addRow({"avg recovery: detection (ms)",
                  Table::num(r.recovery.detectionMs.mean(), 1)});
    table.addRow({"avg recovery: redeploy/resume (ms)",
                  Table::num(r.recovery.redeployMs.mean(), 1)});
    table.addRow({"avg recovery: retrans/reproc (ms)",
                  Table::num(r.recovery.retransmitMs.mean(), 1)});
  }
  if (r.elementsShed > 0) {
    table.addRow({"elements shed", Table::integer(r.elementsShed)});
  }
  table.addRow({"sequence gaps (must be 0)", Table::integer(r.gapsObserved)});
  table.print();
  return r.gapsObserved == 0 ? 0 : 1;
}
