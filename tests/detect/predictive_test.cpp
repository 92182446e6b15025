#include "detect/predictive.hpp"

#include <gtest/gtest.h>

#include "cluster/load_generator.hpp"
#include "exp/scenario.hpp"

namespace streamha {
namespace {

struct PredictiveFixture : ::testing::Test {
  Simulator sim;
  Network net{sim, Network::Params{}, [](MachineId) { return true; }};
  Rng rng{71};
  std::unique_ptr<Machine> monitor = std::make_unique<Machine>(sim, 0, rng.fork(0));
  std::unique_ptr<Machine> target = std::make_unique<Machine>(sim, 1, rng.fork(1));
  std::vector<SimTime> failures;
  std::vector<SimTime> recoveries;

  std::unique_ptr<PredictiveDetector> makeDetector() {
    PredictiveDetector::Callbacks callbacks;
    callbacks.onFailure = [this](SimTime t) { failures.push_back(t); };
    callbacks.onRecovery = [this](SimTime t) { recoveries.push_back(t); };
    return std::make_unique<PredictiveDetector>(sim, net, *monitor, *target,
                                                std::move(callbacks));
  }
};

TEST_F(PredictiveFixture, QuietTargetNeverDeclared) {
  auto det = makeDetector();
  det->start();
  target->setBackgroundLoad(0.3);
  sim.runUntil(20 * kSecond);
  EXPECT_TRUE(failures.empty());
  EXPECT_GT(det->repliesReceived(), 150u);
}

TEST_F(PredictiveFixture, DeclaresOnHighObservedLoad) {
  auto det = makeDetector();
  det->start();
  sim.runUntil(3 * kSecond);
  target->setBackgroundLoad(0.95);
  sim.runUntil(6 * kSecond);
  ASSERT_FALSE(failures.empty());
  EXPECT_TRUE(det->failed());
}

TEST_F(PredictiveFixture, PredictsRampBeforeThresholdIsReached) {
  auto det = makeDetector();
  det->start();
  sim.runUntil(3 * kSecond);
  // Ramp the load toward saturation over one second; the trend should be
  // declared before the load actually crosses 0.9.
  SimTime crossed_at = kTimeNever;
  for (int step = 1; step <= 10; ++step) {
    const double level = 0.1 * step;
    sim.schedule(step * 100 * kMillisecond, [this, level, &crossed_at] {
      target->setBackgroundLoad(level);
      if (level >= 0.9 && crossed_at == kTimeNever) crossed_at = sim.now();
    });
  }
  sim.runUntil(6 * kSecond);
  ASSERT_FALSE(failures.empty());
  EXPECT_LT(failures[0], crossed_at);
  EXPECT_GT(det->predictedDeclarations(), 0u);
}

TEST_F(PredictiveFixture, RecoversWhenLoadDrops) {
  auto det = makeDetector();
  det->start();
  sim.runUntil(2 * kSecond);
  target->setBackgroundLoad(0.95);
  sim.runUntil(5 * kSecond);
  ASSERT_TRUE(det->failed());
  target->setBackgroundLoad(0.1);
  sim.runUntil(8 * kSecond);
  EXPECT_FALSE(det->failed());
  ASSERT_FALSE(recoveries.empty());
  EXPECT_GE(recoveries[0], 5 * kSecond);
}

TEST_F(PredictiveFixture, SilenceFallbackCatchesCrash) {
  auto det = makeDetector();
  det->start();
  sim.runUntil(2 * kSecond);
  target->crash();
  // The network up-check in this fixture always returns true, but the
  // crashed machine drops its control work, so reports stop.
  sim.runUntil(4 * kSecond);
  EXPECT_TRUE(det->failed());
}

TEST(PredictiveHybrid, PredictionDetectsRampedSpikesBeforeHeartbeat) {
  // Side-by-side comparison on one target: a spike that ramps up over
  // 800 ms is declared by the predictor during the ramp, while the
  // (1-miss) heartbeat only fires once replies actually stall.
  Simulator sim;
  Network net{sim, Network::Params{}, [](MachineId) { return true; }};
  Rng rng(5);
  Machine monitor(sim, 0, rng.fork(0));
  Machine target(sim, 1, rng.fork(1));

  SimTime heartbeat_detect = kTimeNever;
  SimTime predictive_detect = kTimeNever;
  HeartbeatDetector::Params hb;
  hb.missThreshold = 1;
  HeartbeatDetector::Callbacks hbCb;
  hbCb.onFailure = [&](SimTime t) {
    if (heartbeat_detect == kTimeNever) heartbeat_detect = t;
  };
  HeartbeatDetector heartbeat(sim, net, monitor, target, hb, std::move(hbCb));
  PredictiveDetector::Callbacks pdCb;
  pdCb.onFailure = [&](SimTime t) {
    if (predictive_detect == kTimeNever) predictive_detect = t;
  };
  PredictiveDetector predictor(sim, net, monitor, target, std::move(pdCb));
  heartbeat.start();
  predictor.start();

  sim.runUntil(3 * kSecond);
  SpikeSpec spec;
  spec.magnitude = 0.97;
  spec.rampDuration = 800 * kMillisecond;
  LoadGenerator gen(sim, target, spec, rng.fork(2));
  gen.injectSpike(4 * kSecond);
  sim.runUntil(10 * kSecond);

  ASSERT_NE(heartbeat_detect, kTimeNever);
  ASSERT_NE(predictive_detect, kTimeNever);
  EXPECT_LT(predictive_detect, heartbeat_detect);
}

TEST(PredictiveHybrid, CoordinatorRunsOnPredictiveDetectorEndToEnd) {
  ScenarioParams p;
  p.mode = HaMode::kHybrid;
  p.failureFraction = 0.2;
  p.failureDuration = 1500 * kMillisecond;
  p.failureRamp = 600 * kMillisecond;
  p.duration = 25 * kSecond;
  p.seed = 44;
  p.detectorFactory = [](Simulator& sim, Network& net, Machine& monitor,
                         Machine& target, FailureDetector::Callbacks cb) {
    return std::make_unique<PredictiveDetector>(sim, net, monitor, target,
                                                std::move(cb));
  };
  Scenario s(p);
  s.build();
  s.start();
  s.startFailures();
  s.run(p.duration);
  s.drain(8 * kSecond);
  const auto r = s.collect();
  EXPECT_GT(r.switchovers, 0u);
  EXPECT_EQ(r.gapsObserved, 0u);
  const StreamId sinkStream = s.runtime().spec().sinkStreams[0];
  EXPECT_EQ(s.sink().highestSeq(sinkStream), s.source().generatedCount());
}

}  // namespace
}  // namespace streamha
