// Repro contract for the open rack-aware burst wedge.
//
// fleet_churn's fleet (bench/perf/workloads.cpp) with rack-aware placement
// loses exactly-once delivery when a correlated primary+standby burst meets
// a whole-rack kill -- the correlated failure Su & Zhou's study stresses.
// At seed 31 delta-debugging shrinks the schedule to two components: a
// permanent burst on machines {2, 17} from 5 s, 300 ms apart, and the kill
// of rack 2 at 5.994 s. The coordinator notices the domain loss but never
// re-provisions the lost subjob: the sink stops near 5k elements and nine
// ARQ messages stay tracked forever.
//
// This suite pins that failure exactly, so any change that moves it is
// seen. It passes while the bug reproduces and fails once it is fixed --
// then turn it into a regression test that asserts a clean run.
//
// The suite name deliberately avoids the CI -R filters (Placement,
// Membership, ...) so it only runs under the full `-L chaos` sweep.
#include <gtest/gtest.h>

#include <vector>

#include "harness/chaos_harness.hpp"

namespace streamha {
namespace {

constexpr std::uint64_t kReproSeed = 31;

/// fleet_churn's parameters (keep in sync), rack-aware, run for 30 s.
ScenarioParams wedgeParams() {
  ScenarioParams p;
  p.numPes = 32;
  p.pesPerSubjob = 2;
  p.mode = HaMode::kHybrid;
  p.protectedSubjobs.clear();
  for (SubjobId sj = 1; sj < 16; ++sj) p.protectedSubjobs.push_back(sj);
  p.failStopAfter = 3 * kSecond;
  p.placement.enabled = true;
  p.placement.domainAware = true;
  p.placement.topology.racks = 4;
  p.placement.poolMachines = 99;
  p.membership.enabled = true;
  p.membership.latentMachines = 2;
  p.duration = 30 * kSecond;
  p.seed = kReproSeed;
  return p;
}

harness::ChaosProfile wedgeProfile(SimDuration duration) {
  harness::ChaosProfile profile;
  profile.withCrash = false;
  profile.withDomainKill = true;
  profile.withChurn = true;
  profile.withBurst = true;
  profile.burstDownFor = kTimeNever;
  profile.faultsFrom = duration / 6;
  profile.faultsUntil = duration * 2 / 3;
  return profile;
}

TEST(RackBurstWedgeRepro, BurstThenRackKillStallsTheSink) {
  ScenarioParams p = wedgeParams();
  const harness::ChaosPlan plan =
      harness::makeChaosPlan(p, wedgeProfile(p.duration), kReproSeed);
  p.faults = plan.schedule;
  // The shrunk schedule: the burst and the rack kill alone.
  p.faults.links.clear();
  p.faults.partitions.clear();
  p.faults.churn.clear();
  p.faultSeedSalt = kReproSeed;

  ASSERT_TRUE(p.faults.crashes.empty());
  ASSERT_TRUE(p.faults.slowdowns.empty());
  ASSERT_EQ(p.faults.bursts.size(), 2u);
  const CorrelatedBurstSpec& burst = p.faults.bursts[0];
  EXPECT_EQ(burst.machines, (std::vector<MachineId>{2, 17}));
  EXPECT_EQ(burst.beginAt, 5 * kSecond);
  EXPECT_EQ(burst.stagger, 300 * kMillisecond);
  EXPECT_EQ(burst.downFor, kTimeNever);
  const CorrelatedBurstSpec& rackKill = p.faults.bursts[1];
  EXPECT_EQ(plan.killedRack, 2);
  EXPECT_EQ(rackKill.machines, plan.domainKillMachines);
  EXPECT_EQ(rackKill.beginAt, 5994282);  // 5.994 s, in microseconds.
  EXPECT_EQ(rackKill.downFor, kTimeNever);

  const harness::ChaosOutcome out =
      harness::runChaosScenario(p, harness::ChaosRunOpts{});
  if (out.oracle.ok) {
    FAIL() << "wedge fixed: turn this into a regression test that asserts "
              "the clean run";
  }
  EXPECT_EQ(out.oracle.delivered, 4995u);
  EXPECT_EQ(out.oracle.generated, 29923u);
  EXPECT_EQ(out.result.placement.domainLosses, 1u);
  EXPECT_EQ(out.result.placement.reprovisions, 0u);
  EXPECT_EQ(out.result.placement.reprovisionRetries, 0u);
  EXPECT_EQ(out.result.promotions, 3u);
  EXPECT_EQ(out.result.switchovers, 4u);
  EXPECT_TRUE(out.quiescence.quiescent);
  EXPECT_FALSE(out.quiescence.clean);
  EXPECT_EQ(out.quiescence.residualArq, 9u);
}

}  // namespace
}  // namespace streamha
