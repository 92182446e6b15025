#include "detect/accrual.hpp"

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "detect/heartbeat.hpp"
#include "fault/injector.hpp"
#include "trace/recorder.hpp"

namespace streamha {
namespace {

struct AccrualFixture : ::testing::Test {
  Cluster::Params clusterParams() {
    Cluster::Params p;
    p.machineCount = 2;
    p.seed = 17;
    return p;
  }

  AccrualDetector::Params detectorParams() {
    AccrualDetector::Params p;
    p.interval = 100 * kMillisecond;
    p.failPhi = 2.0;
    return p;
  }

  std::unique_ptr<AccrualDetector> makeDetector(Cluster& cluster) {
    AccrualDetector::Callbacks callbacks;
    callbacks.onFailure = [this](SimTime t) { failures.push_back(t); };
    callbacks.onRecovery = [this](SimTime t) { recoveries.push_back(t); };
    return std::make_unique<AccrualDetector>(
        cluster.sim(), cluster.network(), cluster.machine(0),
        cluster.machine(1), detectorParams(), std::move(callbacks));
  }

  int countEvents(const TraceRecorder& recorder, TraceEventType type) {
    int n = 0;
    for (const TraceEvent& ev : recorder.events()) n += (ev.type == type);
    return n;
  }

  std::vector<SimTime> failures;
  std::vector<SimTime> recoveries;
};

TEST_F(AccrualFixture, HealthyTargetKeepsSuspicionLow) {
  Cluster cluster(clusterParams());
  auto det = makeDetector(cluster);
  det->start();
  cluster.sim().runUntil(20 * kSecond);
  EXPECT_TRUE(failures.empty());
  EXPECT_FALSE(det->failed());
  EXPECT_LT(det->suspicion(), 1.0);
  // Regular 100 ms arrivals: the estimated mean sits at the interval floor.
  EXPECT_NEAR(det->meanInterArrivalUs(), 100000.0, 5000.0);
  EXPECT_GT(det->repliesReceived(), 150u);
}

TEST_F(AccrualFixture, SilenceAccruesSuspicionUntilDeclaration) {
  Cluster cluster(clusterParams());
  TraceRecorder recorder;
  cluster.attachTrace(&recorder);
  auto det = makeDetector(cluster);
  det->start();
  cluster.sim().runUntil(5 * kSecond);
  cluster.machine(1).crash();
  cluster.sim().runUntil(8 * kSecond);

  // phi = 0.434 * elapsed / mean crosses failPhi=2.0 after ~460 ms of
  // silence (mean ~= the 100 ms interval).
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_GE(failures[0], 5 * kSecond + 400 * kMillisecond);
  EXPECT_LE(failures[0], 5 * kSecond + 700 * kMillisecond);
  EXPECT_TRUE(det->failed());
  EXPECT_GE(det->suspicion(), 2.0);
  // The upward threshold crossing was traced.
  EXPECT_EQ(countEvents(recorder, TraceEventType::kSuspicionCrossed), 1);
  EXPECT_EQ(countEvents(recorder, TraceEventType::kFailureConfirmed), 1);
}

TEST_F(AccrualFixture, RecoversAfterTimelyStreakAndLowPhi) {
  Cluster cluster(clusterParams());
  TraceRecorder recorder;
  cluster.attachTrace(&recorder);
  auto det = makeDetector(cluster);
  det->start();
  cluster.sim().runUntil(5 * kSecond);
  cluster.machine(1).setBackgroundLoad(0.97);  // Saturation: replies park.
  cluster.sim().runUntil(8 * kSecond);
  ASSERT_EQ(failures.size(), 1u);
  cluster.machine(1).setBackgroundLoad(0.0);
  cluster.sim().runUntil(12 * kSecond);

  ASSERT_EQ(recoveries.size(), 1u);
  EXPECT_GE(recoveries[0], 8 * kSecond);
  EXPECT_LE(recoveries[0], 9500 * kMillisecond);
  EXPECT_FALSE(det->failed());
  // One upward and one downward crossing.
  EXPECT_EQ(countEvents(recorder, TraceEventType::kSuspicionCrossed), 2);
  EXPECT_EQ(countEvents(recorder, TraceEventType::kFailureCleared), 1);
}

TEST_F(AccrualFixture, AdaptiveMeanAbsorbsJitterThatTripsFirstMissCounting) {
  // The gray-failure motivation: a target whose replies are merely *late*.
  // Heartbeat jitter delays ping/reply legs by up to 100 ms each; a 1-miss
  // counter declares failure on every late reply while the accrual history
  // stretches its mean and stays calm.
  Cluster cluster(clusterParams());
  FaultSchedule schedule;
  SlowdownSpec slow;
  slow.kind = SlowdownKind::kHeartbeatJitter;
  slow.machine = 1;
  slow.delayProb = 0.5;
  slow.maxExtraDelay = 100 * kMillisecond;
  schedule.slowdowns.push_back(slow);
  FaultInjector injector(cluster, schedule);

  auto accrual = makeDetector(cluster);
  std::vector<SimTime> hbFailures;
  HeartbeatDetector::Params hb;
  hb.interval = 100 * kMillisecond;
  hb.missThreshold = 1;
  HeartbeatDetector::Callbacks hbCallbacks;
  hbCallbacks.onFailure = [&](SimTime t) { hbFailures.push_back(t); };
  HeartbeatDetector firstMiss(cluster.sim(), cluster.network(),
                              cluster.machine(0), cluster.machine(1), hb,
                              std::move(hbCallbacks));
  accrual->start();
  firstMiss.start();
  cluster.sim().runUntil(30 * kSecond);

  EXPECT_GT(injector.stats().slowdownDelays, 20u);
  EXPECT_GE(hbFailures.size(), 3u);  // First-miss counting flaps.
  EXPECT_TRUE(failures.empty());     // Accrual absorbs the jitter.
  EXPECT_FALSE(accrual->failed());
}

TEST_F(AccrualFixture, StopCeasesPinging) {
  Cluster cluster(clusterParams());
  auto det = makeDetector(cluster);
  det->start();
  cluster.sim().runUntil(kSecond);
  const auto pings = det->pingsSent();
  det->stop();
  cluster.sim().runUntil(5 * kSecond);
  EXPECT_EQ(det->pingsSent(), pings);
}

}  // namespace
}  // namespace streamha
