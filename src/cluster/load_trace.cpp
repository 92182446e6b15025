#include "cluster/load_trace.hpp"

namespace streamha {

SpikeTraceStats analyzeLoadTrace(const std::vector<double>& samples,
                                 double sampleIntervalSec, double threshold) {
  SpikeTraceStats stats;
  bool in_spike = false;
  int current_len = 0;
  double total_duration_samples = 0;
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const bool high = samples[i] >= threshold;
    if (high && !in_spike) {
      in_spike = true;
      current_len = 0;
      starts.push_back(i);
      ++stats.spikeCount;
    }
    if (high) ++current_len;
    if (!high && in_spike) {
      in_spike = false;
      total_duration_samples += current_len;
    }
  }
  if (in_spike) total_duration_samples += current_len;

  if (stats.spikeCount > 0) {
    stats.avgDurationSec = total_duration_samples /
                           static_cast<double>(stats.spikeCount) *
                           sampleIntervalSec;
  }
  if (starts.size() >= 2) {
    const double span =
        static_cast<double>(starts.back() - starts.front()) * sampleIntervalSec;
    stats.avgInterFailureSec = span / static_cast<double>(starts.size() - 1);
  }
  return stats;
}

}  // namespace streamha
