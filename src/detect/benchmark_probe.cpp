#include "detect/benchmark_probe.hpp"

namespace streamha {

namespace {
constexpr SimDuration kPollInterval = 5 * kMillisecond;  ///< Load granularity.
constexpr SimDuration kLoadWindow = 100 * kMillisecond;
/// One benchmark run must finish and settle before the next.
constexpr SimDuration kCooldown = 500 * kMillisecond;
}  // namespace

BenchmarkDetector::BenchmarkDetector(Simulator& sim, Machine& target,
                                     Params params, Callbacks callbacks)
    : sim_(sim),
      target_(target),
      params_(params),
      callbacks_(std::move(callbacks)),
      timer_(sim, kPollInterval, [this] { poll(); }) {}

void BenchmarkDetector::start() {
  window_t0_ = sim_.now();
  window_integral0_ = target_.loadIntegral();
  timer_.start();
}

void BenchmarkDetector::stop() { timer_.stop(); }

double BenchmarkDetector::benchmarkUs() const {
  return static_cast<double>(params_.standardSetElements) *
         params_.workPerElementUs;
}

double BenchmarkDetector::windowedLoad() {
  const SimTime now = sim_.now();
  const double integral = target_.loadIntegral();
  double load;
  if (now - window_t0_ <= 0) {
    load = target_.instantaneousLoad();
  } else {
    load = (integral - window_integral0_) /
           static_cast<double>(now - window_t0_);
  }
  // Slide the window forward once it exceeds its width.
  if (now - window_t0_ >= kLoadWindow) {
    window_t0_ = now;
    window_integral0_ = integral;
  }
  return load;
}

void BenchmarkDetector::poll() {
  if (!target_.isUp()) return;
  const double load = windowedLoad();
  if (probe_in_flight_) return;
  if (last_probe_done_ >= 0 && sim_.now() - last_probe_done_ < kCooldown) {
    return;
  }
  if (load < params_.loadThreshold) return;

  // Trigger the embedded standard set through the data server; the measured
  // wall time includes queueing behind application work.
  probe_in_flight_ = true;
  ++probes_run_;
  const SimTime started = sim_.now();
  target_.submitData(benchmarkUs(), [this, started] {
    probe_in_flight_ = false;
    last_probe_done_ = sim_.now();
    const double measured = static_cast<double>(sim_.now() - started);
    if (measured > params_.ratioThreshold * benchmarkUs()) {
      ++detections_;
      if (callbacks_.onDetection) callbacks_.onDetection(sim_.now());
    }
  });
}

}  // namespace streamha
