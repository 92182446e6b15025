// Predictive failure detection (after Gu et al., cited by the paper).
//
// Every 100 ms the monitor polls the target's CPU load via a small
// control-path load-report round trip and fits a linear trend over the last
// four samples. A failure is declared when EITHER
//   * the observed load already reaches 0.9, OR
//   * the trend predicts it will reach 0.9 within 300 ms (this is what lets
//     the Hybrid switch over *before* a ramping spike actually stalls the
//     primary)
// on two consecutive reports, OR when two consecutive polls go unanswered
// (stall/crash fallback). Recovery is declared after two consecutive
// healthy reports.
#pragma once

#include <cstdint>
#include <deque>
#include <utility>

#include "detect/detector.hpp"

namespace streamha {

class PredictiveDetector : public FailureDetector {
 public:
  PredictiveDetector(Simulator& sim, Network& net, Machine& monitor,
                     Machine& target, Callbacks callbacks);

  std::uint64_t predictedDeclarations() const { return predicted_; }

 private:
  void tick() override;
  /// Mark the poll answered and turn the reading into a load sample.
  void onReply(std::uint64_t seq, const ProbeReading& reading);
  /// The verdict rule, applied to one windowed load sample.
  void onSample(double load, SimTime sampledAt);
  void declareFailure(bool predicted);
  double predictedLoadAtHorizon() const;

  std::uint64_t next_seq_ = 1;
  std::uint64_t outstanding_seq_ = 0;
  bool outstanding_answered_ = true;
  int consecutive_misses_ = 0;
  int consecutive_healthy_ = 0;
  int consecutive_unhealthy_ = 0;
  std::deque<std::pair<SimTime, double>> samples_;
  bool has_prev_integral_ = false;
  double prev_integral_ = 0.0;
  SimTime prev_sampled_at_ = 0;
  std::uint64_t predicted_ = 0;
};

}  // namespace streamha
