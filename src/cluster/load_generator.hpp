// Transient-failure load injection.
//
// Reproduces the paper's methodology: "To generate transient failure load on
// a machine, we run a computation-intensive program that can be parameterized
// to take approximately a required share of CPU. By starting and stopping the
// program at different times, we can impose both regular and Poisson arrivals
// of such failures. The average inter-arrival time and failure length are
// tunable."
//
// The generator records ground-truth spike windows so detection studies can
// score detections and false alarms against reality.
#pragma once

#include <utility>
#include <vector>

#include "cluster/machine.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace streamha {

struct SpikeSpec {
  /// Mean time between consecutive spike *starts*.
  SimDuration meanInterArrival = 10 * kSecond;
  /// Mean spike duration (always clipped below the inter-arrival gap).
  SimDuration meanDuration = 2 * kSecond;
  /// Background CPU share consumed while the spike is active.
  double magnitude = 0.97;
  /// Baseline background load outside spikes.
  double baseline = 0.0;
  /// Poisson (exponential gaps/durations) vs regular (fixed) arrivals.
  bool poisson = true;
  /// When > 0, each spike ramps linearly from baseline to its magnitude over
  /// this duration (instead of stepping) -- the pattern failure-*prediction*
  /// detectors exploit. The ramp counts toward the spike duration.
  SimDuration rampDuration = 0;

  /// Convenience: build a spec where spikes of `duration` occupy `fraction`
  /// of wall-clock time on average (the x-axis of Figs 4 and 5).
  static SpikeSpec fromTimeFraction(SimDuration duration, double fraction,
                                    double magnitude, bool poisson = true);
};

class LoadGenerator {
 public:
  LoadGenerator(Simulator& sim, Machine& machine, SpikeSpec spec, Rng rng);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  void start();
  void stop();

  /// Force a single spike of exactly `duration` starting now (used by the
  /// recovery-time experiments that need one failure at a known time).
  void injectSpike(SimDuration duration);

  /// Replay a recorded spike schedule: each [start, end) window (relative to
  /// the current simulated time) becomes one spike at the spec's magnitude.
  /// Used to drive the HA experiments with the failure traces measured in
  /// the Figs 2/3 study. Windows must be sorted and non-overlapping.
  void replayWindows(const std::vector<std::pair<SimTime, SimTime>>& windows);

  bool inSpike() const { return in_spike_; }
  const SpikeSpec& spec() const { return spec_; }

  /// Ground truth: [start, end) of every spike generated so far. The end of
  /// an in-progress spike is its scheduled end.
  const std::vector<std::pair<SimTime, SimTime>>& spikes() const {
    return spikes_;
  }

 private:
  void scheduleNext();
  void beginSpike(SimDuration duration);
  void endSpike();

  Simulator& sim_;
  Machine& machine_;
  SpikeSpec spec_;
  Rng rng_;
  bool running_ = false;
  bool in_spike_ = false;
  EventHandle next_event_;
  EventHandle end_event_;
  std::vector<std::pair<SimTime, SimTime>> spikes_;
};

}  // namespace streamha
