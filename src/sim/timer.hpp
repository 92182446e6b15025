// Periodic timer built on the Simulator.
//
// Used for heartbeat pings, checkpoint intervals, load probes and source
// generators with fixed periods.
#pragma once

#include <functional>

#include "sim/simulator.hpp"

namespace streamha {

class PeriodicTimer {
 public:
  /// `fn` fires every `period` microseconds, first firing after
  /// `initialDelay` (defaults to one period). The timer starts stopped.
  PeriodicTimer(Simulator& sim, SimDuration period, std::function<void()> fn);
  ~PeriodicTimer();

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void start();
  void startAfter(SimDuration initialDelay);
  void stop();
  bool running() const { return running_; }

  SimDuration period() const { return period_; }

 private:
  void arm(SimDuration delay);
  void fire();

  Simulator& sim_;
  SimDuration period_;
  std::function<void()> fn_;
  EventHandle pending_;
  bool running_ = false;
};

}  // namespace streamha
