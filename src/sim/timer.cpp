#include "sim/timer.hpp"

#include <cassert>

namespace streamha {

PeriodicTimer::PeriodicTimer(Simulator& sim, SimDuration period,
                             std::function<void()> fn)
    : sim_(sim), period_(period), fn_(std::move(fn)) {
  assert(period_ > 0);
}

PeriodicTimer::~PeriodicTimer() { stop(); }

void PeriodicTimer::start() { startAfter(period_); }

void PeriodicTimer::startAfter(SimDuration initialDelay) {
  stop();
  running_ = true;
  arm(initialDelay);
}

void PeriodicTimer::stop() {
  pending_.cancel();
  running_ = false;
}

void PeriodicTimer::arm(SimDuration delay) {
  pending_ = sim_.schedule(delay, [this] { fire(); });
}

void PeriodicTimer::fire() {
  if (!running_) return;
  // Re-arm before invoking so the callback may stop().
  arm(period_);
  fn_();
}

}  // namespace streamha
