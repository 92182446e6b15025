// Heartbeat failure detection.
//
// "Usually one monitoring machine sends periodic ping messages to another
// (e.g., the primary) machine. The latter sends back a reply for each ping.
// When a threshold (usually 3) number of consecutive replies are missed, a
// failure is declared." The Hybrid method runs this with threshold 1 and
// additionally declares *recovery* after a run of consecutive timely replies.
#pragma once

#include <cstdint>
#include <map>

#include "detect/detector.hpp"

namespace streamha {

class HeartbeatDetector : public FailureDetector {
 public:
  struct Params {
    SimDuration interval = 100 * kMillisecond;
    int missThreshold = 3;     ///< Consecutive misses to declare failure.
    int recoverThreshold = 2;  ///< Consecutive timely replies to declare recovery.
  };

  HeartbeatDetector(Simulator& sim, Network& net, Machine& monitor,
                    Machine& target, Params params, Callbacks callbacks);

  int consecutiveMisses() const { return consecutive_misses_; }

 private:
  void tick() override;
  void onReply(std::uint64_t seq);

  Params params_;
  std::uint64_t next_seq_ = 1;
  std::map<std::uint64_t, SimTime> outstanding_;  ///< seq -> sent time.
  std::map<std::uint64_t, bool> replied_in_time_;
  int consecutive_misses_ = 0;
  int consecutive_hits_ = 0;
};

}  // namespace streamha
