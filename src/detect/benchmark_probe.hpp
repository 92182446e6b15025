// Benchmarking failure detection (the paper's "more sophisticated" method).
//
// "The time for a PE to process a standard set (e.g., 20 or so) of data
// elements are first measured on an idle machine ... That measurement is the
// benchmark. At runtime ... a thread monitors the CPU load at fine
// granularities (e.g., 5 ms) through system calls. When the CPU load exceeds
// a threshold L_th, the thread triggers the PE to process the standard set,
// and compares the result against the benchmark. If the result exceeds the
// benchmark by a threshold P_th, a detection is declared."
//
// The load monitor reads a 100 ms window every 5 ms, and one benchmark run
// must finish and cool down for 500 ms before the next. The probe runs
// through the machine's *data* server, so queueing behind bursty application
// traffic inflates the measurement -- which is exactly why the paper found
// this method prone to false alarms. Unlike the network detectors it makes
// no round trip: it runs on the target itself.
#pragma once

#include <cstdint>
#include <functional>

#include "cluster/machine.hpp"
#include "common/types.hpp"
#include "sim/timer.hpp"

namespace streamha {

class BenchmarkDetector {
 public:
  struct Params {
    double loadThreshold = 0.5;   ///< L_th.
    double ratioThreshold = 1.3;  ///< P_th.
    int standardSetElements = 20;
    double workPerElementUs = 300.0;
  };

  struct Callbacks {
    std::function<void(SimTime)> onDetection;
  };

  BenchmarkDetector(Simulator& sim, Machine& target, Params params,
                    Callbacks callbacks);
  BenchmarkDetector(const BenchmarkDetector&) = delete;
  BenchmarkDetector& operator=(const BenchmarkDetector&) = delete;

  void start();
  void stop();

  /// The idle-machine benchmark time for the standard set, microseconds.
  double benchmarkUs() const;

  std::uint64_t probesRun() const { return probes_run_; }
  std::uint64_t detectionsDeclared() const { return detections_; }

 private:
  void poll();
  double windowedLoad();

  Simulator& sim_;
  Machine& target_;
  Params params_;
  Callbacks callbacks_;
  PeriodicTimer timer_;

  bool probe_in_flight_ = false;
  SimTime last_probe_done_ = -1;
  // Sliding-window bookkeeping for the load read.
  SimTime window_t0_ = 0;
  double window_integral0_ = 0.0;

  std::uint64_t probes_run_ = 0;
  std::uint64_t detections_ = 0;
};

}  // namespace streamha
