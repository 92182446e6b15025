// Scoring detector declarations against ground truth.
//
// The LoadGenerator records the true spike windows; this scorer classifies
// each declaration as a true detection (inside a spike window, or within a
// short grace period after it ends, covering pipeline delays) or a false
// alarm, and computes the three metrics the paper's Figures 12/13 report:
// background-load detection ratio, false alarm ratio, and average detection
// delay. Every window and declaration belongs to the one machine under
// study.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace streamha {

struct DetectionScore {
  std::size_t spikesTotal = 0;
  std::size_t spikesDetected = 0;
  std::size_t declarations = 0;
  std::size_t falseAlarms = 0;
  double detectionRatio = 0.0;   ///< spikesDetected / spikesTotal.
  double falseAlarmRatio = 0.0;  ///< falseAlarms / declarations.
  double avgDetectionDelayMs = 0.0;  ///< spike start -> first declaration.
};

/// Ground-truth spike windows of the machine under study.
using SpikeWindows = std::vector<std::pair<SimTime, SimTime>>;

class DetectorScorer {
 public:
  explicit DetectorScorer(SimDuration grace = 200 * kMillisecond)
      : grace_(grace) {}

  void onDeclared(SimTime when) { declarations_.push_back(when); }

  /// Score against ground-truth spike windows, considering only spikes that
  /// start inside [from, to) (so warm-up and tail spikes can be excluded).
  DetectionScore score(const SpikeWindows& spikes, SimTime from = 0,
                       SimTime to = kTimeNever) const;

  const std::vector<SimTime>& declarations() const { return declarations_; }
  void reset() { declarations_.clear(); }

 private:
  SimDuration grace_;
  std::vector<SimTime> declarations_;
};

}  // namespace streamha
