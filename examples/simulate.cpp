// Command-line scenario runner: explore the paper's parameter space with
// key=value arguments instead of writing code.
//
//   $ ./simulate mode=Hybrid fraction=0.3 duration=30 rate=2000 seed=9
//   $ ./simulate mode=PS checkpoint_ms=500 heartbeat_ms=200 fraction=0.2
//   $ ./simulate mode=NONE shed=100 fraction=0.4
//
// Keys (all optional): mode (NONE|AS|PS|Hybrid), rate (el/s), pes,
// pes_per_subjob, work_us, fraction (failure-time fraction), spike_ms,
// ramp_ms, on_standby (bool), checkpoint_ms, heartbeat_ms, ckpt
// (sweeping|synchronous|individual), shed (queue depth), shared (bool,
// multiplexed standby), duration (s), warmup (s), seed. A later duplicate
// key wins.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "exp/scenario.hpp"
#include "metrics/report.hpp"

using namespace streamha;

namespace {

using Args = std::map<std::string, std::string>;

// Each lookup returns `fallback` when the key is absent or its value does not
// parse as the key's type.
std::string textArg(const Args& args, const std::string& key,
                    const std::string& fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

double numberArg(const Args& args, const std::string& key, double fallback) {
  const auto it = args.find(key);
  if (it == args.end()) return fallback;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  return end != it->second.c_str() && *end == '\0' ? value : fallback;
}

long long integerArg(const Args& args, const std::string& key,
                     long long fallback) {
  const auto it = args.find(key);
  if (it == args.end()) return fallback;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(it->second.c_str(), &end, 10);
  return errno == 0 && end != it->second.c_str() && *end == '\0' ? value
                                                                  : fallback;
}

bool flagArg(const Args& args, const std::string& key, bool fallback) {
  const auto it = args.find(key);
  if (it == args.end()) return fallback;
  return it->second == "true" || it->second == "1";
}

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
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (eq == std::string::npos || eq == 0) {
      std::fprintf(stderr, "ignoring malformed argument: %s\n", argv[i]);
      continue;
    }
    args[arg.substr(0, eq)] = arg.substr(eq + 1);
  }

  ScenarioParams p;
  p.mode = parseMode(textArg(args, "mode", "Hybrid"));
  p.dataRatePerSec = numberArg(args, "rate", 1000);
  p.numPes = static_cast<int>(integerArg(args, "pes", 8));
  p.pesPerSubjob = static_cast<int>(integerArg(args, "pes_per_subjob", 2));
  p.peWorkUs = numberArg(args, "work_us", 300.0);
  p.failureFraction = numberArg(args, "fraction", 0.2);
  p.failureDuration = fromMillis(numberArg(args, "spike_ms", 1000));
  p.failureRamp = fromMillis(numberArg(args, "ramp_ms", 0));
  p.failuresOnStandbys = flagArg(args, "on_standby", true);
  p.checkpointInterval = fromMillis(numberArg(args, "checkpoint_ms", 50));
  p.heartbeatInterval = fromMillis(numberArg(args, "heartbeat_ms", 100));
  p.checkpointKind = parseCkpt(textArg(args, "ckpt", "sweeping"));
  p.flow.shedThreshold = static_cast<std::size_t>(integerArg(args, "shed", 0));
  p.sharedSecondary = flagArg(args, "shared", false);
  p.duration = fromSeconds(numberArg(args, "duration", 20));
  p.warmup = fromSeconds(numberArg(args, "warmup", 2));
  p.seed = static_cast<std::uint64_t>(integerArg(args, "seed", 1));

  std::string configuration;
  for (const auto& [key, value] : args) {
    configuration += (configuration.empty() ? "" : " ") + key + "=" + value;
  }
  std::printf("configuration: %s\n\n", configuration.c_str());
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
