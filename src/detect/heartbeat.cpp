#include "detect/heartbeat.hpp"

namespace streamha {

HeartbeatDetector::HeartbeatDetector(Simulator& sim, Network& net,
                                     Machine& monitor, Machine& target,
                                     Params params, Callbacks callbacks)
    : FailureDetector(sim, net, monitor, target, params.interval,
                      std::move(callbacks)),
      params_(params) {}

void HeartbeatDetector::tick() {
  // Evaluate the previous ping's deadline before sending the next one.
  if (!outstanding_.empty()) {
    const auto it = outstanding_.begin();
    const std::uint64_t dueSeq = it->first;
    const bool hit = replied_in_time_.count(dueSeq) != 0;
    outstanding_.erase(it);
    replied_in_time_.erase(dueSeq);
    if (hit) {
      consecutive_misses_ = 0;
      ++consecutive_hits_;
      if (failed() && consecutive_hits_ >= params_.recoverThreshold) {
        declare(false, consecutive_hits_);
      }
    } else {
      consecutive_hits_ = 0;
      ++consecutive_misses_;
      record(TraceEventType::kHeartbeatMiss, consecutive_misses_);
      if (consecutive_misses_ == 1 && !failed()) {
        record(TraceEventType::kFailureSuspected, 1);
      }
      if (!failed() && consecutive_misses_ >= params_.missThreshold) {
        declare(true, consecutive_misses_);
      }
    }
  }

  // Send the next ping.
  const std::uint64_t seq = next_seq_++;
  outstanding_[seq] = sim_.now();
  probe(MsgKind::kHeartbeatPing, MsgKind::kHeartbeatReply,
        [this, seq](const ProbeReading&) { onReply(seq); });
}

void HeartbeatDetector::onReply(std::uint64_t seq) {
  const auto it = outstanding_.find(seq);
  if (it == outstanding_.end()) return;  // Deadline already passed: late.
  if (sim_.now() - it->second <= params_.interval) {
    replied_in_time_[seq] = true;
  }
}

}  // namespace streamha
