#include "detect/predictive.hpp"

#include <algorithm>

namespace streamha {

namespace {
constexpr SimDuration kPollInterval = 100 * kMillisecond;
constexpr double kLoadThreshold = 0.90;  ///< Declared-unhealthy load level.
constexpr SimDuration kPredictionHorizon = 300 * kMillisecond;
constexpr std::size_t kTrendSamples = 4;  ///< Window for the linear fit.
/// Consecutive unhealthy reports to declare: one saturated window on a
/// single-server machine is routine queueing, not a failure.
constexpr int kDeclareSamples = 2;
constexpr int kRecoverSamples = 2;  ///< Healthy reports to declare recovery.
constexpr int kMissThreshold = 2;   ///< Unanswered polls = stall fallback.
}  // namespace

PredictiveDetector::PredictiveDetector(Simulator& sim, Network& net,
                                       Machine& monitor, Machine& target,
                                       Callbacks callbacks)
    : FailureDetector(sim, net, monitor, target, kPollInterval,
                      std::move(callbacks)) {}

double PredictiveDetector::predictedLoadAtHorizon() const {
  if (samples_.size() < 2) {
    return samples_.empty() ? 0.0 : samples_.back().second;
  }
  // Least-squares line over the sample window, evaluated `horizon` past the
  // newest sample.
  const std::size_t n = samples_.size();
  const double t0 = static_cast<double>(samples_.front().first);
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const auto& [when, load] : samples_) {
    const double x = static_cast<double>(when) - t0;
    sx += x;
    sy += load;
    sxx += x * x;
    sxy += x * load;
  }
  const double dn = static_cast<double>(n);
  const double denom = dn * sxx - sx * sx;
  if (denom <= 0) return samples_.back().second;
  const double slope = (dn * sxy - sx * sy) / denom;
  const double intercept = (sy - slope * sx) / dn;
  const double x_future = static_cast<double>(samples_.back().first) - t0 +
                          static_cast<double>(kPredictionHorizon);
  return std::clamp(intercept + slope * x_future, 0.0, 1.5);
}

void PredictiveDetector::declareFailure(bool predicted) {
  if (failed()) return;
  consecutive_healthy_ = 0;
  if (predicted) ++predicted_;
  declare(true, predicted ? 1 : 0);
}

void PredictiveDetector::tick() {
  // Evaluate the previous poll: silence counts toward the stall fallback.
  if (!outstanding_answered_) {
    ++consecutive_misses_;
    consecutive_healthy_ = 0;
    if (consecutive_misses_ >= kMissThreshold) declareFailure(false);
  }

  // Send the next load query; the target reads its cumulative load integral
  // (like scraping /proc/stat) and reports it back via the control path, so
  // a saturated machine also answers late or not at all. The monitor turns
  // consecutive integral readings into windowed utilization -- instantaneous
  // samples of a single-server machine are useless (they read 0 or 1).
  const std::uint64_t seq = next_seq_++;
  outstanding_seq_ = seq;
  outstanding_answered_ = false;
  probe(MsgKind::kControl, MsgKind::kControl,
        [this, seq](const ProbeReading& reading) { onReply(seq, reading); });
}

void PredictiveDetector::onReply(std::uint64_t seq,
                                 const ProbeReading& reading) {
  if (seq == outstanding_seq_) {
    outstanding_answered_ = true;
    consecutive_misses_ = 0;
  }
  if (!has_prev_integral_) {
    has_prev_integral_ = true;
    prev_integral_ = reading.loadIntegral;
    prev_sampled_at_ = reading.at;
    return;
  }
  const double dt = static_cast<double>(reading.at - prev_sampled_at_);
  const double load =
      dt <= 0 ? 0.0
              : std::clamp((reading.loadIntegral - prev_integral_) / dt, 0.0,
                           1.0);
  prev_integral_ = reading.loadIntegral;
  prev_sampled_at_ = reading.at;
  onSample(load, reading.at);
}

void PredictiveDetector::onSample(double load, SimTime sampledAt) {
  samples_.emplace_back(sampledAt, load);
  while (samples_.size() > kTrendSamples) samples_.pop_front();

  const bool unhealthy_now = load >= kLoadThreshold;
  const bool unhealthy_soon = predictedLoadAtHorizon() >= kLoadThreshold;
  if (unhealthy_now || unhealthy_soon) {
    consecutive_healthy_ = 0;
    ++consecutive_unhealthy_;
    if (consecutive_unhealthy_ == 1 && !failed()) {
      record(TraceEventType::kFailureSuspected, unhealthy_now ? 0 : 1);
    }
    if (consecutive_unhealthy_ >= kDeclareSamples) {
      declareFailure(!unhealthy_now);
    }
  } else {
    consecutive_unhealthy_ = 0;
    ++consecutive_healthy_;
    if (failed() && consecutive_healthy_ >= kRecoverSamples) {
      declare(false, consecutive_healthy_);
    }
  }
}

}  // namespace streamha
