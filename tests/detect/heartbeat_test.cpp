#include "detect/heartbeat.hpp"

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "fault/injector.hpp"
#include "trace/recorder.hpp"

namespace streamha {
namespace {

struct HeartbeatFixture : ::testing::Test {
  Simulator sim;
  Network net{sim, Network::Params{}, [this](MachineId id) {
                return id == 0 ? monitor_up : target_up;
              }};
  Rng rng{31};
  std::unique_ptr<Machine> monitor = std::make_unique<Machine>(sim, 0, rng.fork(0));
  std::unique_ptr<Machine> target = std::make_unique<Machine>(sim, 1, rng.fork(1));
  bool monitor_up = true;
  bool target_up = true;

  std::vector<SimTime> failures;
  std::vector<SimTime> recoveries;

  std::unique_ptr<HeartbeatDetector> makeDetector(int missThreshold) {
    HeartbeatDetector::Params params;
    params.interval = 100 * kMillisecond;
    params.missThreshold = missThreshold;
    params.recoverThreshold = 2;
    HeartbeatDetector::Callbacks callbacks;
    callbacks.onFailure = [this](SimTime t) { failures.push_back(t); };
    callbacks.onRecovery = [this](SimTime t) { recoveries.push_back(t); };
    return std::make_unique<HeartbeatDetector>(sim, net, *monitor, *target,
                                               params, std::move(callbacks));
  }
};

TEST_F(HeartbeatFixture, HealthyTargetNeverDeclared) {
  auto det = makeDetector(3);
  det->start();
  sim.runUntil(30 * kSecond);
  EXPECT_TRUE(failures.empty());
  EXPECT_FALSE(det->failed());
  EXPECT_GT(det->repliesReceived(), 250u);
}

TEST_F(HeartbeatFixture, SpikeCausesDeclarationAfterThresholdMisses) {
  auto det = makeDetector(3);
  det->start();
  sim.runUntil(5 * kSecond);
  target->setBackgroundLoad(0.97);  // Saturation: replies park.
  sim.runUntil(10 * kSecond);
  ASSERT_EQ(failures.size(), 1u);
  // Declared roughly 3-4 intervals after the spike started.
  EXPECT_GE(failures[0], 5 * kSecond + 300 * kMillisecond);
  EXPECT_LE(failures[0], 5 * kSecond + 500 * kMillisecond);
  EXPECT_TRUE(det->failed());
}

TEST_F(HeartbeatFixture, SingleMissThresholdDetectsFaster) {
  auto det = makeDetector(1);
  det->start();
  sim.runUntil(5 * kSecond);
  target->setBackgroundLoad(0.97);
  sim.runUntil(10 * kSecond);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_LE(failures[0], 5 * kSecond + 250 * kMillisecond);
}

TEST_F(HeartbeatFixture, RecoveryDeclaredAfterSpikeEnds) {
  auto det = makeDetector(1);
  det->start();
  sim.runUntil(5 * kSecond);
  target->setBackgroundLoad(0.97);
  sim.runUntil(8 * kSecond);
  target->setBackgroundLoad(0.0);
  sim.runUntil(12 * kSecond);
  ASSERT_EQ(recoveries.size(), 1u);
  EXPECT_GE(recoveries[0], 8 * kSecond);
  EXPECT_LE(recoveries[0], 9 * kSecond);
  EXPECT_FALSE(det->failed());
}

TEST_F(HeartbeatFixture, CrashedTargetIsDeclared) {
  auto det = makeDetector(3);
  det->start();
  sim.runUntil(2 * kSecond);
  target_up = false;
  target->crash();
  sim.runUntil(5 * kSecond);
  EXPECT_EQ(failures.size(), 1u);
  EXPECT_TRUE(det->failed());
  EXPECT_TRUE(recoveries.empty());
}

TEST_F(HeartbeatFixture, StopCeasesPinging) {
  auto det = makeDetector(3);
  det->start();
  sim.runUntil(kSecond);
  const auto pings = det->pingsSent();
  det->stop();
  sim.runUntil(5 * kSecond);
  EXPECT_EQ(det->pingsSent(), pings);
}

// -- Detection under injected heartbeat loss ---------------------------------
//
// A lost ping or reply is indistinguishable from an overloaded target, so
// message loss manufactures false alarms. These tests pin the contract the
// fig13 study relies on: a single lost reply trips a 1-miss detector but is
// absorbed by a 3-miss one.

struct LossyHeartbeatFixture : ::testing::Test {
  Cluster::Params clusterParams() {
    Cluster::Params p;
    p.machineCount = 2;
    p.seed = 7;
    return p;
  }

  /// Drops every kHeartbeatReply sent inside [from, until).
  FaultSchedule replyLossWindow(SimTime from, SimTime until) {
    FaultSchedule schedule;
    LinkFaultRule rule;
    rule.kinds = maskOf(MsgKind::kHeartbeatReply);
    rule.dropProb = 1.0;
    rule.from = from;
    rule.until = until;
    schedule.links.push_back(rule);
    return schedule;
  }

  std::unique_ptr<HeartbeatDetector> makeDetector(Cluster& cluster,
                                                  int missThreshold) {
    HeartbeatDetector::Params params;
    params.interval = 100 * kMillisecond;
    params.missThreshold = missThreshold;
    params.recoverThreshold = 2;
    HeartbeatDetector::Callbacks callbacks;
    callbacks.onFailure = [this](SimTime t) { failures.push_back(t); };
    callbacks.onRecovery = [this](SimTime t) { recoveries.push_back(t); };
    return std::make_unique<HeartbeatDetector>(
        cluster.sim(), cluster.network(), cluster.machine(0),
        cluster.machine(1), params, std::move(callbacks));
  }

  int countEvents(const TraceRecorder& recorder, TraceEventType type) {
    int n = 0;
    for (const TraceEvent& ev : recorder.events()) n += (ev.type == type);
    return n;
  }

  std::vector<SimTime> failures;
  std::vector<SimTime> recoveries;
};

TEST_F(LossyHeartbeatFixture, OneLostReplyTripsSingleMissDetector) {
  Cluster cluster(clusterParams());
  TraceRecorder recorder;
  cluster.attachTrace(&recorder);
  // The window covers exactly one reply: the answer to the ping sent at
  // 5.0s is in flight a few hundred us later; the next reply (~5.1s ping)
  // falls outside.
  FaultInjector injector(cluster,
                         replyLossWindow(5 * kSecond, 5100 * kMillisecond - 1));
  auto det = makeDetector(cluster, /*missThreshold=*/1);
  det->start();
  cluster.sim().runUntil(10 * kSecond);

  // Exactly one false alarm: suspected and confirmed on the single miss,
  // then cleared once replies flow again.
  EXPECT_EQ(injector.stats().randomDrops, 1u);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_GE(failures[0], 5 * kSecond);
  EXPECT_LE(failures[0], 5200 * kMillisecond);
  EXPECT_EQ(countEvents(recorder, TraceEventType::kFailureSuspected), 1);
  EXPECT_EQ(countEvents(recorder, TraceEventType::kFailureConfirmed), 1);
  EXPECT_EQ(countEvents(recorder, TraceEventType::kHeartbeatMiss), 1);
  ASSERT_EQ(recoveries.size(), 1u);
  EXPECT_FALSE(det->failed());
}

TEST_F(LossyHeartbeatFixture, ThreeMissThresholdAbsorbsOneLostReply) {
  Cluster cluster(clusterParams());
  TraceRecorder recorder;
  cluster.attachTrace(&recorder);
  FaultInjector injector(cluster,
                         replyLossWindow(5 * kSecond, 5100 * kMillisecond - 1));
  auto det = makeDetector(cluster, /*missThreshold=*/3);
  det->start();
  cluster.sim().runUntil(10 * kSecond);

  // The miss is noted (and suspicion raised) but never confirmed: no false
  // alarm reaches the coordinator.
  EXPECT_EQ(injector.stats().randomDrops, 1u);
  EXPECT_TRUE(failures.empty());
  EXPECT_EQ(countEvents(recorder, TraceEventType::kHeartbeatMiss), 1);
  EXPECT_EQ(countEvents(recorder, TraceEventType::kFailureSuspected), 1);
  EXPECT_EQ(countEvents(recorder, TraceEventType::kFailureConfirmed), 0);
  EXPECT_FALSE(det->failed());
}

TEST_F(LossyHeartbeatFixture, SustainedLossConfirmsEvenAtThreeMisses) {
  Cluster cluster(clusterParams());
  // Every reply lost for a full second: >= 3 consecutive misses.
  FaultInjector injector(cluster, replyLossWindow(5 * kSecond, 6 * kSecond));
  auto det = makeDetector(cluster, /*missThreshold=*/3);
  det->start();
  cluster.sim().runUntil(10 * kSecond);

  ASSERT_EQ(failures.size(), 1u);
  EXPECT_GE(failures[0], 5300 * kMillisecond);
  EXPECT_LE(failures[0], 5600 * kMillisecond);
  // Loss ended at 6s; the detector recovers shortly after.
  ASSERT_EQ(recoveries.size(), 1u);
  EXPECT_LE(recoveries[0], 6500 * kMillisecond);
  EXPECT_FALSE(det->failed());
}

TEST_F(HeartbeatFixture, CountersAreConsistent) {
  auto det = makeDetector(3);
  det->start();
  sim.runUntil(5 * kSecond);
  EXPECT_GE(det->pingsSent(), det->repliesReceived());
  EXPECT_EQ(det->failuresDeclared(), 0u);
  EXPECT_EQ(det->consecutiveMisses(), 0);
}

}  // namespace
}  // namespace streamha
