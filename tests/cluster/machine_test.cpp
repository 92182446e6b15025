#include "cluster/machine.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace streamha {
namespace {

struct MachineFixture : ::testing::Test {
  Simulator sim;
  Rng rng{1};
};

TEST_F(MachineFixture, DataTaskRunsForItsWorkAtFullSpeed) {
  Machine m(sim, 0, rng);
  SimTime done_at = -1;
  m.submitData(1000.0, [&] { done_at = sim.now(); });
  sim.runAll();
  EXPECT_EQ(done_at, 1000);
}

TEST_F(MachineFixture, DataTasksAreFifo) {
  Machine m(sim, 0, rng);
  std::vector<int> order;
  m.submitData(100.0, [&] { order.push_back(1); });
  m.submitData(100.0, [&] { order.push_back(2); });
  m.submitData(100.0, [&] { order.push_back(3); });
  EXPECT_EQ(m.dataQueueLength(), 3u);
  sim.runAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300);
}

TEST_F(MachineFixture, BackgroundLoadSlowsExecution) {
  Machine m(sim, 0, rng);
  m.setBackgroundLoad(0.5);
  SimTime done_at = -1;
  m.submitData(1000.0, [&] { done_at = sim.now(); });
  sim.runAll();
  EXPECT_EQ(done_at, 2000);  // Half the speed, twice the time.
}

TEST_F(MachineFixture, MidTaskBackgroundChangeRetimesRemainder) {
  Machine m(sim, 0, rng);
  SimTime done_at = -1;
  m.submitData(1000.0, [&] { done_at = sim.now(); });
  // After 500us at full speed, 500us of work remains; at half speed that
  // takes another 1000us.
  sim.runUntil(500);
  m.setBackgroundLoad(0.5);
  sim.runAll();
  EXPECT_EQ(done_at, 1500);
}

TEST_F(MachineFixture, MinShareFloorsTheSpeed) {
  Machine m(sim, 0, rng);
  m.setBackgroundLoad(1.0);
  SimTime done_at = -1;
  m.submitData(1000.0, [&] { done_at = sim.now(); });
  sim.runAll();
  EXPECT_EQ(done_at, 4000);  // Runs at the 0.25 floor.
}

TEST_F(MachineFixture, CrashDropsAllWork) {
  Machine m(sim, 0, rng);
  int completions = 0;
  m.submitData(1000.0, [&] { ++completions; });
  m.submitData(1000.0, [&] { ++completions; });
  sim.runUntil(100);
  m.crash();
  EXPECT_FALSE(m.isUp());
  EXPECT_EQ(m.dataQueueLength(), 0u);
  sim.runAll();
  EXPECT_EQ(completions, 0);
  // Submissions while down are dropped too.
  m.submitData(10.0, [&] { ++completions; });
  sim.runAll();
  EXPECT_EQ(completions, 0);
}

TEST_F(MachineFixture, RestartAcceptsNewWork) {
  Machine m(sim, 0, rng);
  m.crash();
  m.restart();
  EXPECT_TRUE(m.isUp());
  int completions = 0;
  m.submitData(10.0, [&] { ++completions; });
  sim.runAll();
  EXPECT_EQ(completions, 1);
}

TEST_F(MachineFixture, CrashListenersFire) {
  Machine m(sim, 0, rng);
  int fired = 0;
  m.addCrashListener([&] { ++fired; });
  m.crash();
  EXPECT_EQ(fired, 1);
  m.crash();  // Already down: no double-fire.
  EXPECT_EQ(fired, 1);
}

TEST_F(MachineFixture, ControlTaskFastOnIdleMachine) {
  Machine m(sim, 0, rng);
  SimTime done_at = -1;
  m.submitControl(50.0, [&] { done_at = sim.now(); });
  sim.runAll();
  EXPECT_GT(done_at, 0);
  EXPECT_LT(done_at, 50 * kMillisecond);
}

TEST_F(MachineFixture, ControlTaskParksDuringSaturation) {
  Machine m(sim, 0, rng);
  m.setBackgroundLoad(0.97);
  bool done = false;
  m.submitControl(50.0, [&] { done = true; });
  EXPECT_EQ(m.parkedControlTasks(), 1u);
  sim.runUntil(5 * kSecond);
  EXPECT_FALSE(done);
  // Spike ends: parked replies are released promptly.
  m.setBackgroundLoad(0.0);
  EXPECT_EQ(m.parkedControlTasks(), 0u);
  sim.runUntil(10 * kSecond);
  EXPECT_TRUE(done);
}

TEST_F(MachineFixture, LoadIntegralTracksBusyAndBackground) {
  Machine m(sim, 0, rng);
  const double before = m.loadIntegral();
  m.submitData(1000.0, nullptr);
  sim.runUntil(1000);
  const double busy = m.loadIntegral() - before;
  EXPECT_NEAR(busy, 1000.0, 1.0);  // 100% load for 1000us.
  sim.runUntil(2000);
  EXPECT_NEAR(m.loadIntegral() - before, 1000.0, 1.0);  // Idle adds nothing.
  m.setBackgroundLoad(0.5);
  sim.runUntil(3000);
  EXPECT_NEAR(m.loadIntegral() - before, 1500.0, 1.0);
}

TEST_F(MachineFixture, InstantaneousLoadReflectsState) {
  Machine m(sim, 0, rng);
  EXPECT_DOUBLE_EQ(m.instantaneousLoad(), 0.0);
  m.setBackgroundLoad(0.3);
  EXPECT_DOUBLE_EQ(m.instantaneousLoad(), 0.3);
  m.submitData(1000.0, nullptr);
  EXPECT_DOUBLE_EQ(m.instantaneousLoad(), 1.0);  // 0.3 + appShare 0.7.
  m.crash();
  EXPECT_DOUBLE_EQ(m.instantaneousLoad(), 0.0);
}

TEST_F(MachineFixture, RecentBusyFractionApproximatesWindowUtilization) {
  Machine m(sim, 0, rng);
  // Busy for exactly half of the 200 ms window.
  sim.runUntil(kSecond);
  m.submitData(100.0 * kMillisecond, nullptr);
  sim.runUntil(kSecond + 200 * kMillisecond);
  EXPECT_NEAR(m.recentBusyFraction(), 0.5, 0.05);
}

TEST_F(MachineFixture, BusyFractionAtTimeZeroIsSane) {
  Machine m(sim, 0, rng);
  EXPECT_DOUBLE_EQ(m.recentBusyFraction(), 0.0);
  m.submitData(10 * kMillisecond * 1.0, nullptr);
  sim.runUntil(5 * kMillisecond);
  const double frac = m.recentBusyFraction();
  EXPECT_GT(frac, 0.5);  // Busy the whole (short) history so far.
  EXPECT_LE(frac, 1.0);
}

TEST_F(MachineFixture, ZeroWorkDataTaskCompletesImmediately) {
  Machine m(sim, 0, rng);
  bool done = false;
  m.submitData(0.0, [&] { done = true; });
  sim.runAll();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.now(), 0);
}

TEST_F(MachineFixture, BackgroundLoadClampsToCapacity) {
  Machine m(sim, 0, rng);
  m.setBackgroundLoad(5.0);
  EXPECT_DOUBLE_EQ(m.backgroundLoad(), 1.0);
  m.setBackgroundLoad(-3.0);
  EXPECT_DOUBLE_EQ(m.backgroundLoad(), 0.0);
}

TEST_F(MachineFixture, ControlDelayGrowsWithBackgroundLoad) {
  // Same seed, two machines: control completion under 0.8 background load is
  // stochastically slower than under zero load. Compare means over many
  // tasks.
  double idle_total = 0, loaded_total = 0;
  const int n = 200;
  {
    Simulator s2;
    Machine m(s2, 0, Rng(99));
    for (int i = 0; i < n; ++i) {
      SimTime start = s2.now();
      bool done = false;
      SimTime done_at = 0;
      m.submitControl(50.0, [&] { done = true; done_at = s2.now(); });
      s2.runUntil(s2.now() + 10 * kSecond);
      ASSERT_TRUE(done);
      idle_total += static_cast<double>(done_at - start);
    }
  }
  {
    Simulator s2;
    Machine m(s2, 0, Rng(99));
    m.setBackgroundLoad(0.8);
    for (int i = 0; i < n; ++i) {
      SimTime start = s2.now();
      bool done = false;
      SimTime done_at = 0;
      m.submitControl(50.0, [&] { done = true; done_at = s2.now(); });
      s2.runUntil(s2.now() + 10 * kSecond);
      ASSERT_TRUE(done);
      loaded_total += static_cast<double>(done_at - start);
    }
  }
  EXPECT_GT(loaded_total / n, 3.0 * idle_total / n);
}

}  // namespace
}  // namespace streamha
