// Ablation (paper Section VII): "The hybrid method refreshes the states of
// the secondary subjob copy directly in memory. Although this leads to
// faster checkpointing, the state can be lost when both the secondary and
// primary machines fail. If handling the failure of both is a goal, the
// state has to be persisted to a permanent storage, i.e., a disk. Some
// penalty in performance is expected."
//
// Part two sweeps the per-PE state size over two decades and compares the
// full-copy checkpoint path against the delta-log + tiered-backend store
// (src/state/): with a keyed workload only the chunks dirtied since the last
// confirmed checkpoint ship, so delta traffic and latency stay near-flat
// while the full-copy baseline degrades linearly with state size. Besides
// the standard table/CSV it writes BENCH_state_store.json (to
// STREAMHA_CSV_DIR, else the working directory) so perf trajectories can be
// diffed across commits.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"

#include "cluster/load_generator.hpp"

using namespace streamha;
using namespace streamha::bench;

namespace {

struct SweepResult {
  std::size_t stateBytes = 0;
  bool delta = false;
  double ckptMs = 0;        ///< Mean checkpoint latency.
  double ckptKb = 0;        ///< Total kCheckpoint wire traffic.
  double shipKb = 0;        ///< Delta payload bytes shipped (delta rows).
  double fullKbAvoided = 0; ///< Full-copy bytes the deltas replaced.
  double compactions = 0;
  double spills = 0;
  double avgDelayMs = 0;
};

SweepResult runSweepPoint(std::size_t stateBytes, bool delta,
                          const std::vector<std::uint64_t>& seeds) {
  SweepResult out;
  out.stateBytes = stateBytes;
  out.delta = delta;
  RunningStats ckptMs, ckptKb, shipKb, fullKb, compactions, spills, delayMs;
  for (std::uint64_t seed : seeds) {
    ScenarioParams p;
    p.mode = HaMode::kHybrid;
    p.protectedSubjobs = {1, 2};
    p.duration = 10 * kSecond;
    p.seed = seed;
    p.dataRatePerSec = 2000;
    p.stateBytes = stateBytes;
    // Keyed workload: each element dirties one 64-byte key region, so the
    // dirty set per checkpoint interval is bounded by the element rate, not
    // the state size -- the access pattern delta checkpointing exploits.
    p.stateKeyBytes = 64;
    if (delta) {
      p.store.delta.enabled = true;
      p.store.tiered = true;
    }

    Scenario s(p);
    s.build();
    s.start();
    s.run(p.duration);
    s.drainQuiescent();
    const ScenarioResult r = s.collect();

    RunningStats lat;
    for (HaCoordinator* c : s.coordinators()) {
      if (c->checkpointManager() != nullptr) {
        lat.add(c->checkpointManager()->stats().latencyMs.mean());
      }
    }
    ckptMs.add(lat.mean());
    ckptKb.add(static_cast<double>(r.traffic.bytesOf(MsgKind::kCheckpoint)) /
               1024.0);
    shipKb.add(static_cast<double>(r.state.deltaShipBytes) / 1024.0);
    fullKb.add(static_cast<double>(r.state.deltaFullBytes) / 1024.0);
    compactions.add(static_cast<double>(r.state.compactions));
    spills.add(static_cast<double>(r.state.tierSpills));
    delayMs.add(r.avgDelayMs);
  }
  out.ckptMs = ckptMs.mean();
  out.ckptKb = ckptKb.mean();
  out.shipKb = shipKb.mean();
  out.fullKbAvoided = fullKb.mean();
  out.compactions = compactions.mean();
  out.spills = spills.mean();
  out.avgDelayMs = delayMs.mean();
  return out;
}

void writeJson(const std::vector<SweepResult>& rows) {
  const char* dir = std::getenv("STREAMHA_CSV_DIR");
  const std::string path =
      (dir != nullptr ? std::string(dir) + "/" : std::string()) +
      "BENCH_state_store.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"bench\": \"state_store\",\n  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepResult& r = rows[i];
    std::fprintf(f,
                 "    {\"stateBytes\": %zu, \"mode\": \"%s\", "
                 "\"ckptMs\": %.3f, \"ckptKb\": %.1f, \"shipKb\": %.1f, "
                 "\"fullKbAvoided\": %.1f, \"compactions\": %.1f, "
                 "\"spills\": %.1f, \"avgDelayMs\": %.2f}%s\n",
                 r.stateBytes, r.delta ? "delta" : "full", r.ckptMs, r.ckptKb,
                 r.shipKb, r.fullKbAvoided, r.compactions, r.spills,
                 r.avgDelayMs, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("(json written to %s)\n", path.c_str());
}

}  // namespace

int main() {
  printFigureHeader(
      "Ablation D", "In-memory vs disk-persisted standby state store",
      "Persisting every checkpoint to disk survives the loss of both "
      "machines but adds a durability delay to every checkpoint, which "
      "postpones the acks that trim upstream queues.");

  Table table({"store", "ckpt latency (ms)", "upstream retained (el)",
               "recovery total (ms)"});
  for (bool disk : {false, true}) {
    Cluster cluster([&]{ Cluster::Params cp; cp.machineCount = 7; cp.seed = 7; return cp; }());
    const JobSpec spec = JobBuilder::chain(8, 2, 300.0);
    Runtime rt(cluster, spec);
    Source::Params sp;
    sp.ratePerSec = 1000;
    sp.pattern = Source::Pattern::kPoisson;
    rt.addSource(0, sp);
    rt.addSink(4);
    rt.deployPrimaries({0, 1, 2, 3});
    HaParams ha;
    ha.standbyMachine = 5;
    ha.heartbeat.missThreshold = 3;
    ha.store.persistToDisk = disk;
    // ~5 MB/s effective checkpoint disk: the HDD preset's checkpoint
    // bandwidth (state/tier.hpp), shared with the tiered backend.
    ha.store.diskBytesPerMicro = kTierHdd.checkpointBytesPerMicro;
    PassiveStandbyCoordinator ps(rt, 2, ha);
    ps.setup();
    rt.start();
    cluster.sim().runUntil(2 * kSecond);

    SpikeSpec spike;
    spike.magnitude = 0.97;
    LoadGenerator hog(cluster.sim(), cluster.machine(2), spike,
                      cluster.forkRng(3));
    hog.injectSpike(3 * kSecond);
    cluster.sim().runUntil(4 * kSecond);
    // Upstream retention right after detection reflects how far acks lag.
    Subjob* upstream = rt.instanceOf(1, Replica::kPrimary);
    const auto retained = upstream->lastPe().output(0).bufferedCount();
    cluster.sim().runUntil(12 * kSecond);

    for (auto& t : ps.mutableRecoveries()) {
      t.failureStart = hog.spikes()[0].first;
    }
    RecoveryBreakdown agg;
    agg.addAll(ps.recoveries());
    table.addRow({disk ? "disk" : "memory",
                  Table::num(ps.checkpointManager()
                                 ? ps.checkpointManager()->stats().latencyMs.mean()
                                 : 0.0,
                             2),
                  Table::integer(retained),
                  Table::num(agg.totalMs.mean(), 0)});
  }
  streamha::bench::finishTable(table, "ablation_disk_store");

  std::printf(
      "\n---- State-size sweep: full-copy vs delta-log checkpoints ----\n"
      "Keyed workload (64 B keys); per-PE state grows 100x. Full-copy "
      "checkpoint cost grows with the state; the delta path ships only "
      "chunks dirtied since the last confirmed checkpoint, so its traffic "
      "and latency track the data rate instead.\n\n");
  const auto seeds = defaultSeeds(3);
  printSeedsNote(seeds);
  std::vector<SweepResult> rows;
  for (std::size_t stateBytes : {4096u, 40960u, 409600u}) {
    for (bool delta : {false, true}) {
      rows.push_back(runSweepPoint(stateBytes, delta, seeds));
    }
  }
  Table sweep({"state (KB)", "mode", "ckpt latency (ms)", "ckpt wire KB",
               "delta ship KB", "full KB avoided", "compactions", "spills",
               "avg delay (ms)"});
  for (const SweepResult& r : rows) {
    sweep.addRow({Table::num(static_cast<double>(r.stateBytes) / 1024.0, 0),
                  r.delta ? "delta" : "full", Table::num(r.ckptMs, 3),
                  Table::num(r.ckptKb, 1), Table::num(r.shipKb, 1),
                  Table::num(r.fullKbAvoided, 1), Table::num(r.compactions, 1),
                  Table::num(r.spills, 1), Table::num(r.avgDelayMs, 2)});
  }
  finishTable(sweep, "ablation_state_store_sweep");
  writeJson(rows);
  return 0;
}
