// Spike extraction from a sampled CPU load trace.
//
// Mirrors the paper's measurement methodology (Section II-B): "A sample of
// CPU load was taken every 0.25 s and the measurement continued for 24 hours.
// ... Using a threshold of 95% CPU utilization to delineate the start and end
// of transient unavailability."
#pragma once

#include <vector>

namespace streamha {

/// Per-machine spike statistics extracted from a load trace.
struct SpikeTraceStats {
  int spikeCount = 0;
  double avgInterFailureSec = 0.0;  ///< Mean start-to-start gap; 0 if < 2 spikes.
  double avgDurationSec = 0.0;      ///< Mean spike length; 0 if no spikes.
};

/// Delineate spikes in a sampled trace using `threshold` (default 0.95) and
/// compute the statistics the paper's Figures 2 and 3 plot.
SpikeTraceStats analyzeLoadTrace(const std::vector<double>& samples,
                                 double sampleIntervalSec,
                                 double threshold = 0.95);

}  // namespace streamha
