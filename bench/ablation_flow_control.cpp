// Ablation: ARQ send-window size under partition + control-plane loss.
//
// The flow subsystem (src/flow/) bounds in-flight reliable traffic with a
// per-link send window. A window of 0 (unlimited, the pre-flow behavior)
// retransmits every parked message independently; small windows bound peak
// ARQ memory and control traffic but serialize the control plane, which can
// stretch recovery. This bench sweeps the window under one healed partition,
// 10% control loss and a crash/restart of a protected primary, and reports
// the trade: retransmit count, control bytes, recovery time and the peak
// tracked (in-flight + parked) ARQ backlog the window is supposed to bound.
//
// Besides the standard table/CSV it writes BENCH_flow_control.json (to
// STREAMHA_CSV_DIR, else the working directory) so perf trajectories can be
// diffed across commits.
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "net/reliable.hpp"

using namespace streamha;
using namespace streamha::bench;

namespace {

struct WindowResult {
  std::size_t window = 0;
  double retransmits = 0;
  double controlKb = 0;
  double recoveryMs = 0;
  double peakTracked = 0;
  double parked = 0;
  double superseded = 0;
  double avgDelayMs = 0;
};

WindowResult runWindow(std::size_t window,
                       const std::vector<std::uint64_t>& seeds) {
  WindowResult out;
  out.window = window;
  RunningStats retransmits, controlKb, recoveryMs, peak, parked, superseded,
      delay;
  for (std::uint64_t seed : seeds) {
    ScenarioParams p;
    p.mode = HaMode::kHybrid;
    p.protectedSubjobs = {1, 2, 3};
    p.duration = 20 * kSecond;
    p.seed = seed;
    p.flow.sendWindow = window;

    // Partition a protected primary from its standby for 6s: the 50ms
    // checkpoint stream parks on that link (~120 messages), which is the
    // backlog the send window is supposed to keep from retransmitting
    // wholesale. The blocked heartbeats also force a switchover at the
    // partition and a rollback at the heal, so the run measures recovery
    // with the control plane under ARQ pressure.
    PartitionSpec part;
    part.islandA = {2};
    part.islandB = {Scenario::layoutFor(p).standbyOf[2]};
    part.beginAt = 4 * kSecond;
    part.healAt = 10 * kSecond;
    p.faults.partitions.push_back(part);
    // ... plus 10% loss on every control-plane kind for most of the run.
    LinkFaultRule rule;
    rule.kinds = maskOf(MsgKind::kControl) | maskOf(MsgKind::kCheckpoint) |
                 maskOf(MsgKind::kStateRead);
    rule.dropProb = 0.10;
    rule.from = 3 * kSecond;
    rule.until = 16 * kSecond;
    p.faults.links.push_back(rule);

    Scenario s(p);
    s.build();
    s.start();
    s.run(p.duration);
    s.drainQuiescent();
    const ScenarioResult r = s.collect();

    const ReliableDelivery* arq = s.cluster().network().reliable();
    retransmits.add(arq != nullptr
                        ? static_cast<double>(arq->stats().retransmits)
                        : 0.0);
    controlKb.add(static_cast<double>(r.traffic.bytesOf(MsgKind::kControl)) /
                  1024.0);
    // Detection -> first new output (redeploy + retransmit): the portion of
    // recovery the ARQ window can stretch. Ground-truth failure start is
    // unknown for partition-triggered incidents, so totalMs would read 0.
    recoveryMs.add(r.recovery.count > 0 ? r.recovery.redeployMs.mean() +
                                              r.recovery.retransmitMs.mean()
                                        : 0.0);
    peak.add(static_cast<double>(r.flow.arqPeakTracked));
    parked.add(static_cast<double>(r.flow.arqParked));
    superseded.add(static_cast<double>(r.flow.arqSuperseded));
    delay.add(r.avgDelayMs);
  }
  out.retransmits = retransmits.mean();
  out.controlKb = controlKb.mean();
  out.recoveryMs = recoveryMs.mean();
  out.peakTracked = peak.mean();
  out.parked = parked.mean();
  out.superseded = superseded.mean();
  out.avgDelayMs = delay.mean();
  return out;
}

void writeJson(const std::vector<WindowResult>& rows) {
  const char* dir = std::getenv("STREAMHA_CSV_DIR");
  const std::string path =
      (dir != nullptr ? std::string(dir) + "/" : std::string()) +
      "BENCH_flow_control.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"bench\": \"flow_control\",\n  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const WindowResult& r = rows[i];
    std::fprintf(f,
                 "    {\"sendWindow\": %zu, \"retransmits\": %.1f, "
                 "\"controlKb\": %.1f, \"recoveryMs\": %.2f, "
                 "\"peakTracked\": %.1f, \"parked\": %.1f, "
                 "\"superseded\": %.1f, \"avgDelayMs\": %.2f}%s\n",
                 r.window, r.retransmits, r.controlKb, r.recoveryMs,
                 r.peakTracked, r.parked, r.superseded, r.avgDelayMs,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("(json written to %s)\n", path.c_str());
}

}  // namespace

int main() {
  printFigureHeader(
      "Ablation F", "ARQ send window vs control traffic and recovery time",
      "0 = unlimited window (pre-flow behavior). Finite windows bound the "
      "peak tracked ARQ backlog (memory) and control-plane traffic; overly "
      "small ones serialize the control plane and stretch recovery.");

  const auto seeds = defaultSeeds(3);
  printSeedsNote(seeds);
  const std::size_t windows[] = {0, 4, 8, 16, 32, 64};
  std::vector<WindowResult> rows;
  for (std::size_t w : windows) rows.push_back(runWindow(w, seeds));

  Table table({"send window", "retransmits", "control KB", "switchover (ms)",
               "peak tracked", "parked", "superseded", "avg delay (ms)"});
  for (const WindowResult& r : rows) {
    table.addRow({r.window == 0 ? "unlimited" : Table::num(r.window, 0),
                  Table::num(r.retransmits, 1), Table::num(r.controlKb, 1),
                  Table::num(r.recoveryMs, 2), Table::num(r.peakTracked, 1),
                  Table::num(r.parked, 1), Table::num(r.superseded, 1),
                  Table::num(r.avgDelayMs, 2)});
  }
  finishTable(table, "ablation_flow_control");
  writeJson(rows);
  return 0;
}
