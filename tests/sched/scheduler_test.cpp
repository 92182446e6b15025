#include "sched/scheduler.hpp"

#include <gtest/gtest.h>

#include "cluster/load_generator.hpp"
#include "stream/job.hpp"

namespace streamha {
namespace {

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
