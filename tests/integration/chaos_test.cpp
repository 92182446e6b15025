// Chaos sweeps, driven by the reusable harness (tests/harness/). Whatever
// the fault schedule -- random message loss, duplication, delay jitter, a
// healed partition, machine crashes, transient load spikes -- the sink must
// see every element exactly once, in order. See docs/TESTING.md for how to
// reproduce and shrink a failing seed.
//
// The seed sweeps run through the parallel sweep runner (harness/
// sweep_runner.hpp): seeds are farmed across worker threads, outcomes
// asserted in seed order. Set STREAMHA_SWEEP_WORKERS=1 to rerun any sweep
// serially when bisecting a failing seed (docs/TESTING.md).
#include <gtest/gtest.h>

#include "cluster/load_generator.hpp"
#include "harness/chaos_harness.hpp"
#include "harness/sweep_runner.hpp"

namespace streamha {
namespace {

std::string seedName(const ::testing::TestParamInfo<std::uint64_t>& i) {
  return "seed" + std::to_string(i.param);
}

/// Matches the legacy runChaosScenario(params, 12s) drain used by the
/// pre-parallel sweeps, so raising seed counts changed no per-seed behavior.
harness::ChaosRunOpts fixedGraceOpts() {
  harness::ChaosRunOpts opts;
  opts.quiescentDrain = false;
  opts.maxDrain = 12 * kSecond;
  return opts;
}

/// Hybrid with three protected subjobs and spares: every chaos seed has
/// several failover roles (protected primaries 1..3, their standbys) to hit.
ScenarioParams chaosBaseParams(std::uint64_t seed) {
  ScenarioParams p;
  p.mode = HaMode::kHybrid;
  p.protectedSubjobs = {1, 2, 3};
  p.provisionSpares = true;
  p.failStopAfter = 3 * kSecond;
  p.duration = 30 * kSecond;
  p.seed = seed;
  return p;
}

// ---------------------------------------------------------------------------
// The main sweep: random loss (<= 5%) + duplication + jitter on every data
// link, one healed partition, and one machine crash whose target cycles over
// the protected primaries and a standby. A third of the seeds restart the
// crashed machine (rollback paths); the rest leave it down (fail-stop
// promotion paths).
// ---------------------------------------------------------------------------

harness::ChaosProfile mainSweepProfile(std::uint64_t seed) {
  harness::ChaosProfile profile;
  profile.restartCrashed = (seed % 3 == 0);
  return profile;
}

ScenarioParams mainSweepParams(std::uint64_t seed) {
  ScenarioParams p = chaosBaseParams(seed);
  const harness::ChaosPlan plan =
      harness::makeChaosPlan(p, mainSweepProfile(seed), seed);
  p.faults = plan.schedule;
  p.faultSeedSalt = seed;
  return p;
}

/// One shard of the main sweep (sharded so each test stays well inside the
/// per-test timeout even on a single-core serial run).
void runMainSweepShard(std::uint64_t first, std::uint64_t last) {
  const std::vector<std::uint64_t> seeds = harness::seedRange(first, last);
  const std::vector<harness::ChaosOutcome> outcomes =
      harness::runChaosSweep(seeds, mainSweepParams, fixedGraceOpts());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const std::uint64_t seed = seeds[i];
    const harness::ChaosOutcome& out = outcomes[i];
    // Re-derive the plan (deterministic and cheap) for the assertions that
    // depend on what the schedule targeted.
    const harness::ChaosProfile profile = mainSweepProfile(seed);
    const harness::ChaosPlan plan =
        harness::makeChaosPlan(chaosBaseParams(seed), profile, seed);
    EXPECT_TRUE(out.oracle.ok)
        << "seed " << seed << ": " << out.oracle.summary() << "\nschedule:\n"
        << plan.schedule.describe();
    // A permanently crashed protected primary must end in a promotion.
    if (plan.crashedProtectedPrimary && !profile.restartCrashed) {
      EXPECT_GE(out.result.promotions, 1u) << "seed " << seed;
    }
    // The schedule was not a no-op.
    EXPECT_GT(out.faults.totalDrops() + out.faults.crashes, 0u)
        << "seed " << seed;
  }
}

TEST(FaultChaosSweep, ExactlyOnceUnderLossPartitionAndCrashSeeds1To50) {
  runMainSweepShard(1, 50);
}
TEST(FaultChaosSweep, ExactlyOnceUnderLossPartitionAndCrashSeeds51To100) {
  runMainSweepShard(51, 100);
}
TEST(FaultChaosSweep, ExactlyOnceUnderLossPartitionAndCrashSeeds101To150) {
  runMainSweepShard(101, 150);
}
TEST(FaultChaosSweep, ExactlyOnceUnderLossPartitionAndCrashSeeds151To200) {
  runMainSweepShard(151, 200);
}

// ---------------------------------------------------------------------------
// Control-plane loss sweeps: the ARQ layer (net/reliable.hpp) is the system
// under test. The first sweep concentrates loss on the control kinds alone,
// at rates far beyond the main sweep's cap, so any wedge is attributable to
// the control protocols; the second widens the schedule to overlapping
// partitions plus a correlated primary+standby burst. The CI job
// `chaos-control-loss` runs exactly these via `ctest -R ControlLoss`.
// ---------------------------------------------------------------------------

harness::ChaosProfile controlLossProfile(std::uint64_t seed) {
  harness::ChaosProfile profile;
  // NACKs, checkpoint ship/confirm and state reads drop at up to 20% while
  // the data plane stays clean.
  profile.lossyKinds = maskOf(MsgKind::kControl) |
                       maskOf(MsgKind::kCheckpoint) |
                       maskOf(MsgKind::kStateRead);
  profile.maxLossProb = 0.20;
  profile.maxDuplicateProb = 0.05;
  profile.restartCrashed = (seed % 2 == 0);
  return profile;
}

TEST(ControlLossChaosSweep, ExactlyOnceWithOnlyControlKindsLossy) {
  auto makeParams = [](std::uint64_t seed) {
    ScenarioParams p = chaosBaseParams(seed);
    p.faults =
        harness::makeChaosPlan(p, controlLossProfile(seed), seed).schedule;
    p.faultSeedSalt = seed;
    return p;
  };
  const std::vector<std::uint64_t> seeds = harness::seedRange(101, 124);
  const std::vector<harness::ChaosOutcome> outcomes =
      harness::runChaosSweep(seeds, makeParams, fixedGraceOpts());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const std::uint64_t seed = seeds[i];
    const harness::ChaosOutcome& out = outcomes[i];
    const harness::ChaosProfile profile = controlLossProfile(seed);
    const harness::ChaosPlan plan =
        harness::makeChaosPlan(chaosBaseParams(seed), profile, seed);
    EXPECT_TRUE(out.oracle.ok)
        << "seed " << seed << ": " << out.oracle.summary() << "\nschedule:\n"
        << plan.schedule.describe();
    if (plan.crashedProtectedPrimary && !profile.restartCrashed) {
      EXPECT_GE(out.result.promotions, 1u) << "seed " << seed;
    }
    EXPECT_GT(out.faults.totalDrops() + out.faults.crashes, 0u)
        << "seed " << seed;
  }
}

TEST(ControlLossBurstSweep, ExactlyOnceUnderMultiPartitionAndBurst) {
  auto makeParams = [](std::uint64_t seed) {
    ScenarioParams p = chaosBaseParams(seed);
    harness::ChaosProfile profile;
    // All kinds lossy, two (possibly overlapping) healed partitions, and a
    // correlated burst taking down a protected primary plus its standby; the
    // single-machine crash is disabled so the burst owns the crash dimension.
    profile.partitionCount = 2;
    profile.withCrash = false;
    profile.withBurst = true;
    p.faults = harness::makeChaosPlan(p, profile, seed).schedule;
    p.faultSeedSalt = seed;
    return p;
  };
  const std::vector<std::uint64_t> seeds = harness::seedRange(201, 216);
  const std::vector<harness::ChaosOutcome> outcomes =
      harness::runChaosSweep(seeds, makeParams, fixedGraceOpts());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const std::uint64_t seed = seeds[i];
    const harness::ChaosOutcome& out = outcomes[i];
    harness::ChaosProfile profile;
    profile.partitionCount = 2;
    profile.withCrash = false;
    profile.withBurst = true;
    const harness::ChaosPlan plan =
        harness::makeChaosPlan(chaosBaseParams(seed), profile, seed);
    EXPECT_TRUE(out.oracle.ok)
        << "seed " << seed << ": " << out.oracle.summary() << "\nschedule:\n"
        << plan.schedule.describe();
    // The burst really crashed two machines (primary + standby).
    EXPECT_EQ(out.faults.crashes, 2u) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Shedding sweep: the same fault cocktail as the main sweep, but with the
// flow subsystem's load shedding armed (and the ARQ send window bounded).
// Exactly-once is forfeited by design; the contract becomes the bounded-loss
// oracle -- the sink still sees a duplicate-free in-order prefix stream, and
// every missing element is accounted for by the shed counters. Drained by
// quiescence predicate, not fixed grace. The CI job `chaos-shedding` runs
// these via `ctest -R 'Shedding|NeverHealing'`.
// ---------------------------------------------------------------------------

TEST(SheddingChaosSweep, BoundedAccountedLossUnderLossPartitionAndCrash) {
  auto makeParams = [](std::uint64_t seed) {
    ScenarioParams p = chaosBaseParams(seed);
    p.flow.sendWindow = 64;
    p.flow.shedThreshold = 200;
    harness::ChaosProfile profile;
    profile.restartCrashed = (seed % 3 == 0);
    p.faults = harness::makeChaosPlan(p, profile, seed).schedule;
    p.faultSeedSalt = seed;
    return p;
  };
  harness::ChaosRunOpts opts;
  opts.oracle = harness::OracleMode::kBoundedLoss;
  opts.loss.maxLossFraction = 0.5;
  opts.loss.requireAccountedLoss = true;
  const std::vector<std::uint64_t> seeds = harness::seedRange(301, 350);
  const std::vector<harness::ChaosOutcome> outcomes =
      harness::runChaosSweep(seeds, makeParams, opts);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const std::uint64_t seed = seeds[i];
    const harness::ChaosOutcome& out = outcomes[i];
    harness::ChaosProfile profile;
    profile.restartCrashed = (seed % 3 == 0);
    ScenarioParams base = chaosBaseParams(seed);
    base.flow.sendWindow = 64;
    base.flow.shedThreshold = 200;
    const harness::ChaosPlan plan =
        harness::makeChaosPlan(base, profile, seed);
    EXPECT_TRUE(out.oracle.ok)
        << "seed " << seed << ": " << out.oracle.summary() << "\nschedule:\n"
        << plan.schedule.describe();
    EXPECT_TRUE(out.quiescence.quiescent) << "seed " << seed;
    // The finite send window bounds peak ARQ memory even mid-crash: tracked
    // never exceeded window + parked cap per link (links = machines^2 upper
    // bound; in practice only active control links count, so assert the
    // single global cap the params imply for one link times active links is
    // generous).
    EXPECT_GT(out.result.flow.arqPeakTracked, 0u) << "seed " << seed;
    EXPECT_GT(out.faults.totalDrops() + out.faults.crashes, 0u)
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Determinism: the same seed + schedule reproduces a bit-identical trace.
// ---------------------------------------------------------------------------

TEST(ChaosDeterminism, SameSeedAndScheduleGiveBitIdenticalTraces) {
  auto runOnce = [](std::uint64_t seed) {
    ScenarioParams p = chaosBaseParams(seed);
    p.duration = 12 * kSecond;
    p.trace.enabled = true;
    harness::ChaosProfile profile;
    profile.faultsUntil = 10 * kSecond;
    p.faults = harness::makeChaosPlan(p, profile, seed).schedule;
    p.faultSeedSalt = seed;
    Scenario s(p);
    s.build();
    s.start();
    s.run(p.duration);
    s.drain(8 * kSecond);
    return harness::traceJsonl(s);
  };
  const std::string first = runOnce(7);
  const std::string second = runOnce(7);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // ... and a different fault salt genuinely changes the run.
  auto runSalted = [](std::uint64_t seed, std::uint64_t salt) {
    ScenarioParams p = chaosBaseParams(seed);
    p.duration = 12 * kSecond;
    p.trace.enabled = true;
    harness::ChaosProfile profile;
    profile.faultsUntil = 10 * kSecond;
    profile.withCrash = false;
    p.faults = harness::makeChaosPlan(p, profile, seed).schedule;
    p.faultSeedSalt = salt;
    Scenario s(p);
    s.build();
    s.start();
    s.run(p.duration);
    s.drain(8 * kSecond);
    return harness::traceJsonl(s);
  };
  EXPECT_NE(runSalted(7, 1), runSalted(7, 2));
}

// ---------------------------------------------------------------------------
// Legacy sweeps, now harness drivers: transient load spikes plus a crash
// whose target sweeps every protected primary and a standby (previously the
// crash always hit primaryMachineOf(2)).
// ---------------------------------------------------------------------------

class ChaosSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSweep, HybridSurvivesRandomSpikesAndACrash) {
  const std::uint64_t seed = GetParam();
  ScenarioParams p = chaosBaseParams(seed);
  p.failureFraction = 0.25;
  p.failureDuration = 1200 * kMillisecond;
  p.failuresOnStandbys = true;

  // Crash schedule only (no message loss): the crash instant is seed-derived
  // like before, but the target cycles through the failover roles.
  harness::ChaosProfile profile;
  profile.partitionCount = 0;
  harness::ChaosPlan plan = harness::makeChaosPlan(p, profile, seed);
  plan.schedule.links.clear();
  p.faults = plan.schedule;

  const harness::ChaosOutcome out = harness::runChaosScenario(p);
  EXPECT_TRUE(out.oracle.ok)
      << "seed " << seed << ": " << out.oracle.summary() << "\nschedule:\n"
      << plan.schedule.describe();
  if (plan.crashedProtectedPrimary) {
    // The crashed primary was eventually treated as fail-stop.
    EXPECT_GE(out.result.promotions, 1u) << "seed " << seed;
  }
  EXPECT_EQ(out.faults.crashes, 1u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSweep,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u, 77u,
                                           88u),
                         seedName);

class PsChaosSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PsChaosSweep, PassiveStandbySurvivesRandomSpikes) {
  const std::uint64_t seed = GetParam();
  ScenarioParams p;
  p.mode = HaMode::kPassiveStandby;
  p.failureFraction = 0.3;
  p.failureDuration = 1500 * kMillisecond;
  p.failuresOnStandbys = true;
  p.duration = 30 * kSecond;
  p.seed = seed;
  const harness::ChaosOutcome out = harness::runChaosScenario(p, 10 * kSecond);
  EXPECT_TRUE(out.oracle.ok) << "seed " << seed << ": " << out.oracle.summary();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PsChaosSweep,
                         ::testing::Values(111u, 222u, 333u, 444u), seedName);

}  // namespace
}  // namespace streamha
