#include "detect/detector_stats.hpp"

namespace streamha {

namespace {

double ratio(std::size_t part, std::size_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

DetectionScore DetectorScorer::score(const SpikeWindows& spikes, SimTime from,
                                     SimTime to) const {
  struct Window {
    SimTime start = 0;
    SimTime end = 0;
    bool detected = false;
  };
  DetectionScore out;
  std::vector<Window> windows;
  for (const auto& [start, end] : spikes) {
    if (start >= from && start < to) windows.push_back({start, end});
  }

  double delayTotalMs = 0.0;
  for (const SimTime at : declarations_) {
    if (at < from || at >= to) continue;
    ++out.declarations;
    bool matched = false;
    for (Window& w : windows) {
      if (at >= w.start && at < w.end + grace_) {
        matched = true;
        if (!w.detected) {
          w.detected = true;
          delayTotalMs += toMillis(at - w.start);
          ++out.spikesDetected;
        }
        break;
      }
    }
    if (!matched) ++out.falseAlarms;
  }
  out.spikesTotal = windows.size();
  out.detectionRatio = ratio(out.spikesDetected, out.spikesTotal);
  out.falseAlarmRatio = ratio(out.falseAlarms, out.declarations);
  out.avgDetectionDelayMs =
      out.spikesDetected == 0
          ? 0.0
          : delayTotalMs / static_cast<double>(out.spikesDetected);
  return out;
}

}  // namespace streamha
