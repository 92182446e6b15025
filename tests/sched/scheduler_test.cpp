#include "sched/scheduler.hpp"

#include <gtest/gtest.h>

#include "cluster/load_generator.hpp"
#include "stream/job.hpp"

namespace streamha {
namespace {

TEST(Placement, DemandEstimateFollowsSelectivity) {
  // chain: pe0 (sel 0.5) -> pe1 -> pe2; source 1000/s, work 300us each.
  JobBuilder b;
  const LogicalPeId p0 = b.addPe("p0", 300.0, 0.5);
  const LogicalPeId p1 = b.addPe("p1", 300.0, 1.0);
  const LogicalPeId p2 = b.addPe("p2", 300.0, 1.0);
  b.connectSource(p0);
  b.connect(p0, p1);
  b.connect(p1, p2);
  b.connectSink(p2);
  b.addSubjob({p0});
  b.addSubjob({p1, p2});
  const JobSpec spec = b.build();
  const auto demand = estimateSubjobDemand(spec, 1000.0);
  ASSERT_EQ(demand.size(), 2u);
  EXPECT_NEAR(demand[0], 0.3, 1e-9);   // 1000/s x 300us.
  EXPECT_NEAR(demand[1], 0.3, 1e-9);   // 2 PEs x 500/s x 300us.
}

TEST(Placement, FanOutDoublesDownstreamDemand) {
  // ingest -> {a, b} -> merge: the merge PE sees both branches' rates.
  JobBuilder b;
  const LogicalPeId ingest = b.addPe("ingest", 100.0);
  const LogicalPeId a = b.addPe("a", 100.0);
  const LogicalPeId c = b.addPe("b", 100.0);
  const LogicalPeId merge = b.addPe("merge", 100.0);
  b.connectSource(ingest);
  b.connect(ingest, a);
  b.connect(ingest, c);
  b.connect(a, merge);
  b.connect(c, merge);
  b.connectSink(merge);
  b.addSubjob({ingest});
  b.addSubjob({a});
  b.addSubjob({c});
  b.addSubjob({merge});
  const auto demand = estimateSubjobDemand(b.build(), 1000.0);
  ASSERT_EQ(demand.size(), 4u);
  EXPECT_NEAR(demand[0], 0.1, 1e-9);
  EXPECT_NEAR(demand[1], 0.1, 1e-9);
  EXPECT_NEAR(demand[3], 0.2, 1e-9);  // Merge: 2000 el/s x 100 us.
}

TEST(Placement, FirstFitDecreasingPacksUnderTarget) {
  const JobSpec spec = JobBuilder::chain(8, 2, 300.0);  // 4 x 0.6 demand.
  const auto placement =
      planPlacement(spec, 1000.0, {0, 1, 2, 3, 4, 5}, 0.7);
  ASSERT_EQ(placement.size(), 4u);
  // Each subjob demands 0.6; under a 0.7 target each gets its own machine.
  std::set<MachineId> used(placement.begin(), placement.end());
  EXPECT_EQ(used.size(), 4u);
}

TEST(Placement, PacksSmallSubjobsTogether) {
  const JobSpec spec = JobBuilder::chain(4, 1, 100.0);  // 4 x 0.1 demand.
  const auto placement = planPlacement(spec, 1000.0, {0, 1, 2, 3}, 0.7);
  std::set<MachineId> used(placement.begin(), placement.end());
  EXPECT_EQ(used.size(), 1u);  // All four fit on one machine.
}

TEST(Placement, OverflowFallsBackToLeastLoaded) {
  const JobSpec spec = JobBuilder::chain(4, 2, 600.0);  // 2 x 1.2 demand.
  const auto placement = planPlacement(spec, 1000.0, {0, 1}, 0.7);
  // Nothing fits under 0.7; the two subjobs spread across both machines.
  EXPECT_NE(placement[0], placement[1]);
}

struct BalancerFixture : ::testing::Test {
  Cluster::Params clusterParams() {
    Cluster::Params p;
    p.machineCount = 6;
    p.seed = 13;
    return p;
  }
  std::unique_ptr<Cluster> cluster = std::make_unique<Cluster>(clusterParams());
  JobSpec spec = JobBuilder::chain(4, 2, 300.0);
  std::unique_ptr<Runtime> rt = std::make_unique<Runtime>(*cluster, spec);

  void deploy() {
    Source::Params sp;
    sp.ratePerSec = 1000;
    sp.pattern = Source::Pattern::kPoisson;
    rt->addSource(0, sp);
    rt->addSink(2);
    rt->deployPrimaries({0, 1});
    rt->start();
  }

  void expectExact() {
    const StreamId sinkStream = spec.sinkStreams[0];
    EXPECT_EQ(rt->sink()->highestSeq(sinkStream),
              rt->source()->generatedCount());
    EXPECT_EQ(rt->sink()->input().gapsObserved(), 0u);
  }
};

TEST_F(BalancerFixture, DirectMigrationPreservesExactness) {
  deploy();
  cluster->sim().runUntil(2 * kSecond);
  LoadBalancer balancer(*rt, {3, 4}, LoadBalancer::Params{});
  Subjob* inst = rt->instanceOf(1, Replica::kPrimary);
  bool done = false;
  balancer.migrateSubjob(*inst, 3, [&] { done = true; });
  cluster->sim().runUntil(6 * kSecond);
  EXPECT_TRUE(done);
  EXPECT_EQ(balancer.migrations(), 1u);
  Subjob* moved = rt->instanceOf(1, Replica::kPrimary);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->machine().id(), 3);
  EXPECT_TRUE(inst->terminated());
  rt->source()->stop();
  cluster->sim().runUntil(9 * kSecond);
  expectExact();
}

TEST_F(BalancerFixture, MigratesAwayFromSustainedOverload) {
  deploy();
  LoadBalancer::Params params;
  params.sustainedSamples = 3;
  LoadBalancer balancer(*rt, {3, 4}, params);
  balancer.start();
  cluster->sim().runUntil(2 * kSecond);
  // A *sustained* background load (not a short spike) on machine 1.
  cluster->machine(1).setBackgroundLoad(0.8);  // + app 0.6 -> saturated.
  cluster->sim().runUntil(15 * kSecond);
  EXPECT_GE(balancer.migrations(), 1u);
  Subjob* moved = rt->instanceOf(1, Replica::kPrimary);
  ASSERT_NE(moved, nullptr);
  EXPECT_NE(moved->machine().id(), 1);
  rt->source()->stop();
  cluster->sim().runUntil(20 * kSecond);
  expectExact();
}

TEST_F(BalancerFixture, IgnoresShortSpikes) {
  deploy();
  LoadBalancer::Params params;
  params.sustainedSamples = 4;
  LoadBalancer balancer(*rt, {3, 4}, params);
  balancer.start();
  cluster->sim().runUntil(2 * kSecond);
  // 1 s spikes, well below the 4 s sustained threshold.
  SpikeSpec spec2 = SpikeSpec::fromTimeFraction(kSecond, 0.2, 0.97);
  LoadGenerator hog(cluster->sim(), cluster->machine(1), spec2,
                    cluster->forkRng(5));
  hog.start();
  cluster->sim().runUntil(20 * kSecond);
  EXPECT_EQ(balancer.migrations(), 0u);  // Too slow to react, by design.
}

TEST_F(BalancerFixture, EmptySpareListNeverMigrates) {
  deploy();
  LoadBalancer::Params params;
  params.sustainedSamples = 3;
  // Start with NO spares: sustained overload has nowhere to go.
  LoadBalancer balancer(*rt, {}, params);
  balancer.start();
  cluster->sim().runUntil(2 * kSecond);
  cluster->machine(1).setBackgroundLoad(0.8);
  cluster->sim().runUntil(8 * kSecond);
  EXPECT_EQ(balancer.migrations(), 0u);  // Empty spare list: stuck.
  rt->source()->stop();
  cluster->sim().runUntil(22 * kSecond);
  expectExact();
}

TEST_F(BalancerFixture, CooldownLimitsMigrationRate) {
  deploy();
  LoadBalancer::Params params;
  params.sustainedSamples = 2;
  params.cooldown = 60 * kSecond;
  LoadBalancer balancer(*rt, {3}, params);
  balancer.start();
  cluster->sim().runUntil(2 * kSecond);
  cluster->machine(1).setBackgroundLoad(0.9);
  cluster->machine(3).setBackgroundLoad(0.9);  // The spare is hot too.
  cluster->sim().runUntil(30 * kSecond);
  // One migration at most: the machine cooldown blocks repeats even though
  // the destination is also overloaded.
  EXPECT_LE(balancer.migrations(), 2u);
}

}  // namespace
}  // namespace streamha
