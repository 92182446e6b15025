// Chaos sweeps for the tiered/delta state store (src/state/): with delta
// checkpoint shipping, the log-structured run store, compaction and the
// tiered backend all enabled, crash + partition + loss chaos must leave the
// sink exactly-once and the delta protocol convergent (base misses are
// dropped unconfirmed, stale ships confirmed-but-not-applied, the shadow
// base re-synced after every rollback). A reduced state-size sweep rides in
// each run via ScenarioParams::stateBytes. The CI job `chaos-state-store`
// runs exactly these via `ctest -R StateStoreChaos`.
#include <gtest/gtest.h>

#include "exp/sweep.hpp"
#include "harness/chaos_harness.hpp"
#include "harness/sweep_runner.hpp"

namespace streamha {
namespace {

/// Hybrid with protected subjobs, the delta/tiered store on, and a keyed
/// workload so deltas are genuinely sparse (SyntheticLogic rewrites its whole
/// blob every element, which would degenerate every delta to a full copy).
ScenarioParams stateStoreParams(std::uint64_t seed, std::size_t stateBytes) {
  ScenarioParams p;
  p.mode = HaMode::kHybrid;
  p.protectedSubjobs = {1, 2, 3};
  p.provisionSpares = true;
  p.failStopAfter = 3 * kSecond;
  p.duration = 30 * kSecond;
  p.seed = seed;
  p.stateBytes = stateBytes;
  p.stateKeyBytes = 64;
  p.store.delta.enabled = true;
  p.store.delta.compactEveryRuns = 4;  // Compact often: more merge activity.
  p.store.tiered = true;
  return p;
}

harness::ChaosOutcome runStateStoreChaos(std::uint64_t seed,
                                         std::size_t stateBytes,
                                         harness::ChaosPlan* planOut = nullptr) {
  ScenarioParams p = stateStoreParams(seed, stateBytes);
  harness::ChaosProfile profile;
  // Crash + one healed partition + background loss on every kind. Restarting
  // crashes on most seeds keeps the rollback path (delta-aware Read-State,
  // shadow-base reset, restore racing the still-running checkpoint stream)
  // hot; the rest leave the crash permanent for the promotion path.
  profile.restartCrashed = (seed % 3 != 0);
  const harness::ChaosPlan plan = harness::makeChaosPlan(p, profile, seed);
  if (planOut != nullptr) *planOut = plan;
  p.faults = plan.schedule;
  p.faultSeedSalt = seed;
  return harness::runChaosScenario(p);
}

// ---------------------------------------------------------------------------
// The sweep: a reduced state-size ladder (the full ladder lives in
// bench/ablation_disk_store) under crash + partition chaos. Exactly-once at
// the sink, and the delta machinery must actually have carried the
// checkpoint stream (ships applied, no unresolved base-miss wedge).
// ---------------------------------------------------------------------------

TEST(StateStoreChaosSweep, ExactlyOnceWithDeltaAndTieredStore) {
  const std::vector<std::uint64_t> seeds = harness::seedRange(1, 25);
  std::vector<harness::ChaosOutcome> outcomes(seeds.size());
  std::vector<harness::ChaosPlan> plans(seeds.size());
  runSeedSweep(seeds, [&](std::uint64_t seed, std::size_t i) {
    // Reduced sweep: small and 16x state, alternating by seed.
    const std::size_t stateBytes = (seed % 2 == 0) ? 32768 : 2048;
    outcomes[i] = runStateStoreChaos(seed, stateBytes, &plans[i]);
  });
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const std::uint64_t seed = seeds[i];
    const harness::ChaosOutcome& out = outcomes[i];
    EXPECT_TRUE(out.oracle.ok)
        << "seed " << seed << ": " << out.oracle.summary() << "\nschedule:\n"
        << plans[i].schedule.describe();
    // The delta pipeline carried real traffic and the store applied it.
    EXPECT_GT(out.result.state.deltaShips, 0u) << "seed " << seed;
    EXPECT_GT(out.result.state.deltaApplies, 0u) << "seed " << seed;
    EXPECT_GT(out.result.state.runsAppended, 0u) << "seed " << seed;
    // Frequent compaction budget => chaos runs long enough to compact.
    EXPECT_GT(out.result.state.compactions, 0u) << "seed " << seed;
    // The schedule was not a no-op.
    EXPECT_GT(out.faults.totalDrops() + out.faults.crashes, 0u)
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Determinism: same seed, same schedule => bit-identical trace, result
// fingerprint (every telemetry field included) AND bit-identical delta logs
// (every run list hashes equal), with a rollback's restore racing the
// still-running checkpoint stream inside the run. This is the
// compacted-store analogue of the harness's replay contract.
// ---------------------------------------------------------------------------

std::uint64_t allLogFingerprints(Scenario& s) {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis.
  for (HaCoordinator* c : s.coordinators()) {
    StateStore* store = c->store();
    if (store == nullptr) continue;
    for (LogicalPeId pe = 0; pe < 64; ++pe) {
      const DeltaLog* log = store->deltaLog(c->subjobId(), pe);
      if (log == nullptr) continue;
      h ^= log->fingerprint();
      h *= 1099511628211ull;
    }
  }
  return h;
}

TEST(StateStoreChaosDeterminism, ReplayIsBitIdenticalIncludingDeltaLogs) {
  auto runOnce = [](std::string* traceOut, std::uint64_t* logsOut,
                    std::string* resultOut) {
    ScenarioParams p = stateStoreParams(11, 8192);
    p.trace.enabled = true;
    harness::ChaosProfile profile;
    profile.restartCrashed = true;  // Rollback races the checkpoint stream.
    const harness::ChaosPlan plan = harness::makeChaosPlan(p, profile, 11);
    p.faults = plan.schedule;
    p.faultSeedSalt = 11;
    Scenario s(p);
    s.build();
    s.warmup();
    s.run(p.duration);
    s.drain();
    *traceOut = harness::traceJsonl(s);
    *logsOut = allLogFingerprints(s);
    *resultOut = fingerprintResult(s.collect());
  };
  std::string trace1, trace2, result1, result2;
  std::uint64_t logs1 = 0, logs2 = 0;
  runOnce(&trace1, &logs1, &result1);
  runOnce(&trace2, &logs2, &result2);
  ASSERT_FALSE(trace1.empty());
  EXPECT_EQ(trace1, trace2);
  EXPECT_EQ(logs1, logs2);
  EXPECT_EQ(result1, result2);
}

// ---------------------------------------------------------------------------
// Delta-restore accounting: across the sweep's restart seeds, rollbacks with
// the delta store enabled must plan at least some restores (full or delta),
// and every delta-planned restore must have moved fewer bytes than a full
// copy of the same state would have.
// ---------------------------------------------------------------------------

TEST(StateStoreChaosRestore, DeltaRestoresNeverExceedFullCopyBytes) {
  std::uint64_t deltaRestores = 0;
  std::uint64_t restores = 0;
  for (std::uint64_t seed : {2u, 4u, 5u}) {  // restartCrashed seeds (mod 3).
    const harness::ChaosOutcome out = runStateStoreChaos(seed, 8192);
    ASSERT_TRUE(out.oracle.ok) << "seed " << seed << ": "
                               << out.oracle.summary();
    const StateTelemetry& t = out.result.state;
    deltaRestores += t.deltaRestores;
    restores += t.deltaRestores + t.fullRestores;
    if (t.deltaRestores > 0) {
      // Mean bytes per delta restore < mean full-copy bytes: the planner only
      // picks the delta path when it is strictly cheaper.
      EXPECT_LT(t.restoreDeltaBytes / t.deltaRestores,
                t.fullRestores > 0 ? t.restoreFullBytes / t.fullRestores
                                   : ~std::uint64_t{0})
          << "seed " << seed;
    }
  }
  // The restart seeds actually exercised the restore planner.
  EXPECT_GT(restores, 0u);
}

}  // namespace
}  // namespace streamha
