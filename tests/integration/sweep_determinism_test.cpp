// End-to-end determinism of the raw-speed substrate: a chaos sweep farmed
// over worker threads must produce, per seed, the bit-identical trace and
// ScenarioResult a serial sweep produces -- that equivalence is what makes
// STREAMHA_SWEEP_WORKERS=1 a sound bisect knob (docs/TESTING.md) and
// parallel CI sweeps trustworthy.
//
// This file carries the `integration` label on purpose: the TSan CI job runs
// `ctest -LE chaos`, so the parallel runner is raced under the sanitizer
// here even though the full-size sweeps live in the chaos tier.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/chaos_harness.hpp"
#include "harness/sweep_runner.hpp"

namespace streamha {
namespace {

/// Mid-weight chaos: loss + duplicates + jitter on every kind, one healed
/// partition, one restarting crash -- compressed into a 12s run so the
/// serial re-run of every seed stays cheap even under TSan.
harness::ChaosProfile determinismProfile() {
  harness::ChaosProfile profile;
  profile.maxLossProb = 0.05;
  profile.maxDuplicateProb = 0.05;
  profile.maxDelayProb = 0.1;
  profile.restartCrashed = true;
  profile.faultsFrom = 3 * kSecond;
  profile.faultsUntil = 9 * kSecond;
  return profile;
}

ScenarioParams determinismParams(std::uint64_t seed) {
  ScenarioParams p;
  p.mode = HaMode::kHybrid;
  p.protectedSubjobs = {1, 2};
  p.provisionSpares = true;
  p.failStopAfter = 3 * kSecond;
  p.duration = 12 * kSecond;
  p.seed = seed;
  p.trace.enabled = true;
  const harness::ChaosPlan plan =
      harness::makeChaosPlan(p, determinismProfile(), seed);
  p.faults = plan.schedule;
  p.faultSeedSalt = seed;
  return p;
}

harness::ChaosRunOpts tracedOpts() {
  harness::ChaosRunOpts opts;
  opts.quiescentDrain = false;
  opts.maxDrain = 12 * kSecond;
  opts.captureTrace = true;
  return opts;
}

TEST(SweepDeterminism, ParallelSweepIsBitIdenticalToSerialPerSeed) {
  const std::vector<std::uint64_t> seeds = harness::seedRange(1, 6);

  SweepOptions parallel;
  parallel.threads = 4;
  const std::vector<harness::ChaosOutcome> outcomes = harness::runChaosSweep(
      seeds, determinismParams, tracedOpts(), parallel);

  ASSERT_EQ(outcomes.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    ASSERT_FALSE(outcomes[i].trace.empty()) << "seed " << seeds[i];
    ASSERT_FALSE(outcomes[i].resultFingerprint.empty()) << "seed " << seeds[i];
  }

  // Re-run every seed serially on this thread and compare trace + result
  // fingerprint byte for byte.
  const std::vector<std::string> mismatches = harness::serialCrossCheck(
      seeds, outcomes, determinismParams, tracedOpts(), seeds);
  EXPECT_TRUE(mismatches.empty()) << mismatches.front();
}

}  // namespace
}  // namespace streamha
