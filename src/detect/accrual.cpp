#include "detect/accrual.hpp"

#include <algorithm>

namespace streamha {

namespace {
// 1/ln(10): phi = -log10(exp(-t/mean)) = t / (mean * ln 10).
constexpr double kLog10E = 0.4342944819032518;
constexpr double kRecoverPhi = 0.5;       ///< Suspicion a recovery requires.
constexpr int kRecoverStreak = 2;         ///< Timely replies to recover.
constexpr std::size_t kHistorySize = 32;  ///< Inter-arrival samples kept.
}  // namespace

AccrualDetector::AccrualDetector(Simulator& sim, Network& net,
                                 Machine& monitor, Machine& target,
                                 Params params, Callbacks callbacks)
    : FailureDetector(sim, net, monitor, target, params.interval,
                      std::move(callbacks)),
      params_(params) {}

void AccrualDetector::start() {
  // Anchor the arrival clock: silence from the very first ping accrues
  // suspicion against this instant instead of reading as "no data".
  last_arrival_ = sim_.now();
  FailureDetector::start();
}

double AccrualDetector::meanInterArrivalUs() const {
  const auto floor = static_cast<double>(params_.interval);
  if (history_.empty()) return floor;
  return std::max(floor,
                  history_sum_ / static_cast<double>(history_.size()));
}

double AccrualDetector::phiAt(SimTime now) const {
  if (last_arrival_ == kTimeNever || now <= last_arrival_) return 0.0;
  const double elapsed = static_cast<double>(now - last_arrival_);
  return kLog10E * elapsed / meanInterArrivalUs();
}

double AccrualDetector::suspicion() const { return phiAt(sim_.now()); }

void AccrualDetector::tick() {
  const double phi = phiAt(sim_.now());
  if (!failed() && phi >= params_.failPhi) {
    timely_streak_ = 0;
    const auto milliPhi = static_cast<std::uint64_t>(phi * 1000.0);
    record(TraceEventType::kSuspicionCrossed, milliPhi, 0);
    declare(true, milliPhi);
  }

  // Forget pings that will never be answered (crashed target): only the
  // recent window matters for timeliness classification.
  while (outstanding_.size() > 2 * kHistorySize) {
    outstanding_.erase(outstanding_.begin());
  }

  // Send the next ping. A reply parked behind a saturated target is exactly
  // the late arrival the accrual history is built to absorb.
  const std::uint64_t seq = next_seq_++;
  outstanding_[seq] = sim_.now();
  probe(MsgKind::kHeartbeatPing, MsgKind::kHeartbeatReply,
        [this, seq](const ProbeReading&) { onReply(seq); });
}

void AccrualDetector::noteArrival(SimTime at) {
  if (last_arrival_ != kTimeNever && at > last_arrival_) {
    history_.push_back(static_cast<double>(at - last_arrival_));
    history_sum_ += history_.back();
    while (history_.size() > kHistorySize) {
      history_sum_ -= history_.front();
      history_.pop_front();
    }
  }
  last_arrival_ = at;
}

void AccrualDetector::onReply(std::uint64_t seq) {
  const SimTime now = sim_.now();
  bool timely = false;
  const auto it = outstanding_.find(seq);
  if (it != outstanding_.end()) {
    timely = now - it->second <= params_.interval;
    outstanding_.erase(it);
  }
  timely_streak_ = timely ? timely_streak_ + 1 : 0;
  noteArrival(now);

  if (failed() && timely_streak_ >= kRecoverStreak &&
      phiAt(now) <= kRecoverPhi) {
    const auto milliPhi = static_cast<std::uint64_t>(phiAt(now) * 1000.0);
    record(TraceEventType::kSuspicionCrossed, milliPhi, 1);
    declare(false, milliPhi, static_cast<std::uint64_t>(timely_streak_));
  }
}

}  // namespace streamha
