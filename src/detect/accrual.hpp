// Phi-accrual-style failure detection (Hayashibara et al.).
//
// Instead of counting consecutive missed replies, the accrual detector keeps
// a sliding window of the last 32 heartbeat inter-arrival times and emits a
// *continuous* suspicion level:
//
//   phi(t) = -log10( P(no arrival within t) )
//          = 0.434294 * (now - lastArrival) / mean      (exponential model)
//
// where the mean is floored at the ping interval, so a long quiet-but-healthy
// stretch cannot make phi explode on the first late reply. Failure is
// declared when phi crosses `failPhi`; recovery when two consecutive replies
// arrive within one interval *and* phi has fallen back to 0.5 or below
// (hysteresis -- the two thresholds plus the streak are what keep a jittery
// target from flapping the verdict). Because the mean adapts to the observed
// arrival process, a gray target whose replies are merely late stretches the
// estimated mean and stops looking suspicious -- exactly the adaptive
// suppression first-miss counting lacks. It is a FailureDetector, so the
// hybrid/AS/PS coordinators consume it unchanged through
// HaParams::detectorFactory.
#pragma once

#include <cstdint>
#include <deque>
#include <map>

#include "detect/detector.hpp"

namespace streamha {

class AccrualDetector : public FailureDetector {
 public:
  struct Params {
    SimDuration interval = 100 * kMillisecond;  ///< Ping period.
    double failPhi = 2.0;  ///< Suspicion level that declares failure.
  };

  AccrualDetector(Simulator& sim, Network& net, Machine& monitor,
                  Machine& target, Params params, Callbacks callbacks);

  void start() override;

  /// Current suspicion level (recomputed against sim.now()).
  double suspicion() const;
  /// Current estimated mean inter-arrival (after the floor).
  double meanInterArrivalUs() const;

  std::uint64_t suspicionCrossings() const override {
    return failuresDeclared();
  }

 private:
  void tick() override;
  void onReply(std::uint64_t seq);
  void noteArrival(SimTime at);
  double phiAt(SimTime now) const;

  Params params_;
  std::uint64_t next_seq_ = 1;
  std::map<std::uint64_t, SimTime> outstanding_;  ///< seq -> sent time.
  std::deque<double> history_;  ///< Inter-arrival samples (micros).
  double history_sum_ = 0.0;
  SimTime last_arrival_ = kTimeNever;
  int timely_streak_ = 0;  ///< Consecutive replies within one interval.
};

}  // namespace streamha
