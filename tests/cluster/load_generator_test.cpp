#include "cluster/load_generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace streamha {
namespace {

struct LoadGenFixture : ::testing::Test {
  Simulator sim;
  Rng rng{2};
};

TEST_F(LoadGenFixture, FromTimeFractionComputesInterArrival) {
  const SpikeSpec spec =
      SpikeSpec::fromTimeFraction(2 * kSecond, 0.25, 0.9, false);
  EXPECT_EQ(spec.meanDuration, 2 * kSecond);
  EXPECT_EQ(spec.meanInterArrival, 8 * kSecond);
  EXPECT_DOUBLE_EQ(spec.magnitude, 0.9);
  EXPECT_FALSE(spec.poisson);
}

TEST_F(LoadGenFixture, RegularSpikesArePeriodic) {
  Machine m(sim, 0, rng);
  SpikeSpec spec;
  spec.meanInterArrival = 10 * kSecond;
  spec.meanDuration = 2 * kSecond;
  spec.magnitude = 0.9;
  spec.poisson = false;
  LoadGenerator gen(sim, m, spec, rng.fork(1));
  gen.start();
  sim.runUntil(35 * kSecond);
  const auto& spikes = gen.spikes();
  ASSERT_EQ(spikes.size(), 3u);
  EXPECT_EQ(spikes[0].first, 10 * kSecond);
  EXPECT_EQ(spikes[1].first, 20 * kSecond);
  EXPECT_EQ(spikes[0].second - spikes[0].first, 2 * kSecond);
}

TEST_F(LoadGenFixture, SpikeSetsAndClearsBackgroundLoad) {
  Machine m(sim, 0, rng);
  SpikeSpec spec;
  spec.meanInterArrival = 10 * kSecond;
  spec.meanDuration = 2 * kSecond;
  spec.magnitude = 0.9;
  spec.baseline = 0.1;
  spec.poisson = false;
  LoadGenerator gen(sim, m, spec, rng.fork(1));
  gen.start();
  EXPECT_DOUBLE_EQ(m.backgroundLoad(), 0.1);
  sim.runUntil(11 * kSecond);
  EXPECT_TRUE(gen.inSpike());
  EXPECT_DOUBLE_EQ(m.backgroundLoad(), 1.0);  // Clamped to capacity.
  sim.runUntil(13 * kSecond);
  EXPECT_FALSE(gen.inSpike());
  EXPECT_DOUBLE_EQ(m.backgroundLoad(), 0.1);
}

TEST_F(LoadGenFixture, PoissonFractionApproximatesTarget) {
  Machine m(sim, 0, rng);
  const SpikeSpec spec =
      SpikeSpec::fromTimeFraction(1 * kSecond, 0.3, 0.9, true);
  LoadGenerator gen(sim, m, spec, rng.fork(2));
  gen.start();
  const SimTime horizon = 600 * kSecond;
  sim.runUntil(horizon);
  SimDuration covered = 0;
  for (const auto& [start, end] : gen.spikes()) {
    covered += std::min(end, horizon) - start;
  }
  EXPECT_NEAR(static_cast<double>(covered) / static_cast<double>(horizon), 0.3,
              0.06);
}

TEST_F(LoadGenFixture, InjectSpikeIsImmediateAndRecorded) {
  Machine m(sim, 0, rng);
  SpikeSpec spec;
  spec.magnitude = 0.8;
  LoadGenerator gen(sim, m, spec, rng.fork(3));
  sim.runUntil(5 * kSecond);
  gen.injectSpike(2 * kSecond);
  EXPECT_TRUE(gen.inSpike());
  EXPECT_DOUBLE_EQ(m.backgroundLoad(), 0.8);
  ASSERT_EQ(gen.spikes().size(), 1u);
  EXPECT_EQ(gen.spikes()[0].first, 5 * kSecond);
  EXPECT_EQ(gen.spikes()[0].second, 7 * kSecond);
  sim.runUntil(8 * kSecond);
  EXPECT_FALSE(gen.inSpike());
  EXPECT_DOUBLE_EQ(m.backgroundLoad(), 0.0);
}

TEST_F(LoadGenFixture, StopClearsInProgressSpike) {
  Machine m(sim, 0, rng);
  SpikeSpec spec;
  spec.magnitude = 0.9;
  LoadGenerator gen(sim, m, spec, rng.fork(4));
  gen.injectSpike(10 * kSecond);
  sim.runUntil(kSecond);
  gen.stop();
  EXPECT_FALSE(gen.inSpike());
  EXPECT_DOUBLE_EQ(m.backgroundLoad(), 0.0);
}

TEST_F(LoadGenFixture, ReplayWindowsReproducesSchedule) {
  Machine m(sim, 0, rng);
  SpikeSpec spec;
  spec.magnitude = 0.9;
  LoadGenerator gen(sim, m, spec, rng.fork(9));
  gen.replayWindows({{kSecond, 2 * kSecond}, {5 * kSecond, 5500 * kMillisecond}});
  sim.runUntil(1500 * kMillisecond);
  EXPECT_TRUE(gen.inSpike());
  EXPECT_DOUBLE_EQ(m.backgroundLoad(), 0.9);
  sim.runUntil(3 * kSecond);
  EXPECT_FALSE(gen.inSpike());
  sim.runUntil(5200 * kMillisecond);
  EXPECT_TRUE(gen.inSpike());
  sim.runUntil(10 * kSecond);
  ASSERT_EQ(gen.spikes().size(), 2u);
  EXPECT_EQ(gen.spikes()[0].first, kSecond);
  EXPECT_EQ(gen.spikes()[1].second, 5500 * kMillisecond);
}

TEST_F(LoadGenFixture, RampedSpikeClimbsGradually) {
  Machine m(sim, 0, rng);
  SpikeSpec spec;
  spec.magnitude = 0.8;
  spec.rampDuration = 800 * kMillisecond;
  LoadGenerator gen(sim, m, spec, rng.fork(7));
  gen.injectSpike(2 * kSecond);
  sim.runUntil(200 * kMillisecond);
  const double early = m.backgroundLoad();
  EXPECT_GT(early, 0.0);
  EXPECT_LT(early, 0.5);
  sim.runUntil(900 * kMillisecond);
  EXPECT_NEAR(m.backgroundLoad(), 0.8, 1e-9);  // Full magnitude after ramp.
  sim.runUntil(3 * kSecond);
  EXPECT_DOUBLE_EQ(m.backgroundLoad(), 0.0);  // Cleared at spike end.
}

TEST_F(LoadGenFixture, RampLongerThanSpikeFallsBackToStep) {
  Machine m(sim, 0, rng);
  SpikeSpec spec;
  spec.magnitude = 0.8;
  spec.rampDuration = 5 * kSecond;
  LoadGenerator gen(sim, m, spec, rng.fork(8));
  gen.injectSpike(kSecond);
  EXPECT_DOUBLE_EQ(m.backgroundLoad(), 0.8);
}

}  // namespace
}  // namespace streamha
