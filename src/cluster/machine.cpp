#include "cluster/machine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "trace/recorder.hpp"

namespace streamha {
namespace {

/// Floor on the application share during spikes. Models the multi-core
/// headroom a real node keeps for the application even when a CPU hog drives
/// total utilization to ~100% (the paper's nodes were 4-core).
constexpr double kMinShare = 0.25;
/// Scheduling-latency scale of the control server.
constexpr SimDuration kCtlQuantum = 9 * kMillisecond;
constexpr double kParkThreshold = 0.90;  ///< rho at/above which control parks.
constexpr double kCtlAppWeight = 0.5;    ///< Weight of app busy fraction in rho.
/// Window of recentBusyFraction().
constexpr SimDuration kBusyWindow = 200 * kMillisecond;

}  // namespace

Machine::Machine(Simulator& sim, MachineId id, Rng rng)
    : sim_(sim), id_(id), rng_(rng), last_accrual_(sim.now()) {
  busy_snapshots_.emplace_back(sim.now(), 0.0);
}

double Machine::effectiveBackground() const {
  return std::min(1.0, background_ + dilation_);
}

double Machine::appShare() const {
  return std::max(kMinShare, 1.0 - effectiveBackground());
}

double Machine::instantaneousLoad() const {
  if (!up_) return 0.0;
  const double load = effectiveBackground() + (data_active_ ? appShare() : 0.0);
  return std::min(1.0, load);
}

void Machine::accrueIntegrals() {
  const SimTime now = sim_.now();
  const double dt = static_cast<double>(now - last_accrual_);
  if (dt > 0) {
    load_integral_ += instantaneousLoad() * dt;
    if (data_active_ && up_) busy_integral_ += dt;
    last_accrual_ = now;
  }
}

double Machine::loadIntegral() const {
  const_cast<Machine*>(this)->accrueIntegrals();
  return load_integral_;
}

double Machine::busyIntegral() const {
  const_cast<Machine*>(this)->accrueIntegrals();
  return busy_integral_;
}

void Machine::noteBusyTransition() {
  busy_snapshots_.emplace_back(sim_.now(), busy_integral_);
  // Retire snapshots much older than the window (keep one beyond the edge
  // so interpolation at the window boundary stays possible).
  const SimTime horizon = sim_.now() - 4 * kBusyWindow;
  while (busy_snapshots_.size() > 2 && busy_snapshots_[1].first < horizon) {
    busy_snapshots_.pop_front();
  }
}

double Machine::recentBusyFraction() const {
  const_cast<Machine*>(this)->accrueIntegrals();
  const SimTime now = sim_.now();
  const SimTime start = std::max<SimTime>(0, now - kBusyWindow);
  if (now <= start) return data_active_ ? 1.0 : 0.0;
  // Find the busy integral at `start` from snapshots. Between transitions the
  // busy indicator is constant, so linear interpolation between consecutive
  // snapshots is exact.
  double integral_at_start = 0.0;
  if (!busy_snapshots_.empty()) {
    auto it = std::lower_bound(
        busy_snapshots_.begin(), busy_snapshots_.end(), start,
        [](const auto& snap, SimTime t) { return snap.first < t; });
    if (it == busy_snapshots_.begin()) {
      integral_at_start = busy_snapshots_.front().second;
    } else if (it == busy_snapshots_.end()) {
      const auto& last = busy_snapshots_.back();
      const double slope = (data_active_ && up_) ? 1.0 : 0.0;
      integral_at_start =
          last.second + slope * static_cast<double>(start - last.first);
    } else {
      const auto& hi = *it;
      const auto& lo = *(it - 1);
      if (hi.first == lo.first) {
        integral_at_start = hi.second;
      } else {
        const double frac = static_cast<double>(start - lo.first) /
                            static_cast<double>(hi.first - lo.first);
        integral_at_start = lo.second + frac * (hi.second - lo.second);
      }
    }
  }
  const double busy_time = busy_integral_ - integral_at_start;
  return std::clamp(busy_time / static_cast<double>(now - start), 0.0, 1.0);
}

void Machine::submitData(double workUs, std::function<void()> done) {
  if (!up_) return;  // Lost: nobody is listening on a crashed machine.
  assert(workUs >= 0);
  queue_.push_back(DataTask{workUs, std::move(done)});
  if (!data_active_) startNextData();
}

std::size_t Machine::dataQueueLength() const {
  return queue_.size() + (data_active_ ? 1 : 0);
}

void Machine::startNextData() {
  assert(!data_active_);
  if (queue_.empty() || !up_) return;
  accrueIntegrals();
  active_ = std::move(queue_.front());
  queue_.pop_front();
  data_active_ = true;
  noteBusyTransition();
  retimeActiveData();
}

void Machine::settleActiveWork() {
  if (!data_active_) return;
  const double elapsed = static_cast<double>(sim_.now() - active_since_);
  active_.remainingWork =
      std::max(0.0, active_.remainingWork - elapsed * active_share_);
}

void Machine::retimeActiveData() {
  finish_event_.cancel();
  if (!data_active_ || !up_) return;
  active_share_ = appShare();
  active_since_ = sim_.now();
  const auto duration = static_cast<SimDuration>(
      std::ceil(active_.remainingWork / active_share_));
  finish_event_ = sim_.schedule(std::max<SimDuration>(0, duration),
                                [this] { finishActiveData(); });
}

void Machine::finishActiveData() {
  assert(data_active_);
  accrueIntegrals();
  data_active_ = false;
  noteBusyTransition();
  auto done = std::move(active_.done);
  active_ = DataTask{};
  startNextData();
  if (done) done();
}

double Machine::controlRho() const {
  const double rho = effectiveBackground() +
                     kCtlAppWeight * recentBusyFraction() * appShare();
  return std::clamp(rho, 0.0, 1.0);
}

void Machine::submitControl(double workUs, std::function<void()> done) {
  if (!up_) return;
  const double rho = controlRho();
  if (rho >= kParkThreshold) {
    parked_.push_back(Parked{workUs, std::move(done)});
    return;
  }
  dispatchControl(workUs, std::move(done));
}

void Machine::dispatchControl(double workUs, std::function<void()> done) {
  const double rho = std::min(controlRho(), 0.98);
  const double mean_wait =
      static_cast<double>(kCtlQuantum) * rho / (1.0 - rho);
  const double wait = mean_wait > 0 ? rng_.exponential(mean_wait) : 0.0;
  const double service = workUs / appShare();
  const auto delay = static_cast<SimDuration>(std::ceil(wait + service));
  sim_.schedule(std::max<SimDuration>(1, delay), std::move(done));
}

void Machine::releaseParked() {
  if (parked_.empty()) return;
  if (controlRho() >= kParkThreshold) return;
  std::vector<Parked> ready;
  ready.swap(parked_);
  for (auto& task : ready) dispatchControl(task.workUs, std::move(task.done));
}

void Machine::setBackgroundLoad(double fraction) {
  accrueIntegrals();
  settleActiveWork();
  background_ = std::clamp(fraction, 0.0, 1.0);
  retimeActiveData();
  releaseParked();
}

void Machine::setCpuDilation(double fraction) {
  accrueIntegrals();
  settleActiveWork();
  dilation_ = std::clamp(fraction, 0.0, 1.0);
  retimeActiveData();
  releaseParked();
}

void Machine::addCrashListener(std::function<void()> fn) {
  crash_listeners_.push_back(std::move(fn));
}

void Machine::addRestartListener(std::function<void()> fn) {
  restart_listeners_.push_back(std::move(fn));
}

void Machine::crash() {
  if (!up_) return;
  accrueIntegrals();
  up_ = false;
  finish_event_.cancel();
  data_active_ = false;
  noteBusyTransition();
  queue_.clear();
  parked_.clear();
  active_ = DataTask{};
  if (trace_ != nullptr) {
    TraceEvent ev;
    ev.type = TraceEventType::kMachineCrash;
    ev.at = sim_.now();
    ev.machine = id_;
    trace_->record(ev);
  }
  for (const auto& fn : crash_listeners_) fn();
}

void Machine::restart() {
  if (up_) return;
  accrueIntegrals();
  up_ = true;
  if (trace_ != nullptr) {
    TraceEvent ev;
    ev.type = TraceEventType::kMachineRestart;
    ev.at = sim_.now();
    ev.machine = id_;
    trace_->record(ev);
  }
  startNextData();
  for (const auto& fn : restart_listeners_) fn();
}

}  // namespace streamha
