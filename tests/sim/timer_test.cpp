#include "sim/timer.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace streamha {
namespace {

TEST(PeriodicTimer, FiresAtEveryPeriod) {
  Simulator sim;
  std::vector<SimTime> fires;
  PeriodicTimer timer(sim, 10, [&] { fires.push_back(sim.now()); });
  timer.start();
  sim.runUntil(35);
  EXPECT_EQ(fires, (std::vector<SimTime>{10, 20, 30}));
}

TEST(PeriodicTimer, StartAfterCustomInitialDelay) {
  Simulator sim;
  std::vector<SimTime> fires;
  PeriodicTimer timer(sim, 10, [&] { fires.push_back(sim.now()); });
  timer.startAfter(3);
  sim.runUntil(25);
  EXPECT_EQ(fires, (std::vector<SimTime>{3, 13, 23}));
}

TEST(PeriodicTimer, StopHaltsFiring) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer(sim, 10, [&] { ++fires; });
  timer.start();
  sim.runUntil(15);
  timer.stop();
  EXPECT_FALSE(timer.running());
  sim.runUntil(100);
  EXPECT_EQ(fires, 1);
}

TEST(PeriodicTimer, StopFromInsideCallback) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer(sim, 10, [&] {
    ++fires;
    // The timer variable is captured via the enclosing scope below.
  });
  // Rebuild with self-stop: use a holder so the lambda can reach the timer.
  struct Holder {
    std::unique_ptr<PeriodicTimer> timer;
  } holder;
  int fires2 = 0;
  holder.timer = std::make_unique<PeriodicTimer>(sim, 10, [&] {
    ++fires2;
    if (fires2 == 2) holder.timer->stop();
  });
  holder.timer->start();
  sim.runUntil(100);
  EXPECT_EQ(fires2, 2);
  (void)fires;
}

TEST(PeriodicTimer, DestructorCancels) {
  Simulator sim;
  int fires = 0;
  {
    PeriodicTimer timer(sim, 10, [&] { ++fires; });
    timer.start();
  }
  sim.runUntil(100);
  EXPECT_EQ(fires, 0);
}

TEST(PeriodicTimer, RestartResetsPhase) {
  Simulator sim;
  std::vector<SimTime> fires;
  PeriodicTimer timer(sim, 10, [&] { fires.push_back(sim.now()); });
  timer.start();
  sim.runUntil(12);
  timer.startAfter(10);  // Restart at t=12: next fire at 22.
  sim.runUntil(25);
  EXPECT_EQ(fires, (std::vector<SimTime>{10, 22}));
}

}  // namespace
}  // namespace streamha
