// Simulated machine with a time-varying CPU.
//
// Model
// -----
// Each machine runs two logical servers:
//
//  * The *data server* executes application work (PE element processing,
//    checkpoint serialization, deployment, benchmark probes) from a FIFO
//    queue at speed `appShare(t) = max(kMinShare, 1 - background(t))`, with
//    CPU capacity normalized to 1.
//    Background load (the paper's CPU-hog transient-failure injector) changes
//    the speed piecewise-constantly; the in-flight task is re-timed.
//
//  * The *control server* executes tiny control work (heartbeat replies).
//    Its completion time models OS scheduling latency under contention:
//    service = work / appShare  plus an exponential wait with mean
//    `kCtlQuantum * rho / (1 - rho)` where `rho` combines background load and
//    (weighted) recent application busy fraction. When `rho` reaches
//    `kParkThreshold` the machine is considered saturated and control tasks
//    are *parked* until the background load drops — this is what makes a
//    machine in the middle of a load spike miss heartbeats, exactly the
//    signal the paper's detectors rely on.
//
// The model's constants live in machine.cpp.
//
// The split matches the testbed behaviour the paper reports: during a spike
// the node is unresponsive; the moment the spike ends it answers heartbeats
// again even though the stream engine still has a backlog to drain (which is
// why the Hybrid method's read-state-on-rollback is worth having).
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace streamha {

class TraceRecorder;

class Machine {
 public:
  Machine(Simulator& sim, MachineId id, Rng rng);
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  MachineId id() const { return id_; }
  Simulator& sim() { return sim_; }

  // -- Data server ----------------------------------------------------------

  /// Enqueue `workUs` CPU-microseconds (at full speed) of application work;
  /// `done` runs on completion. Work submitted to a crashed machine is lost.
  void submitData(double workUs, std::function<void()> done);

  std::size_t dataQueueLength() const;  ///< Including the in-flight task.

  // -- Control server -------------------------------------------------------

  /// Enqueue control work (heartbeat replies etc.). Subject to the
  /// scheduling-latency model described above.
  void submitControl(double workUs, std::function<void()> done);

  std::size_t parkedControlTasks() const { return parked_.size(); }

  // -- Load -----------------------------------------------------------------

  void setBackgroundLoad(double fraction);
  double backgroundLoad() const { return background_; }

  /// Injected CPU dilation (gray-failure slowdowns, fault/): an *additive*
  /// load channel kept separate from setBackgroundLoad so a scheduled
  /// slowdown composes with the load generator's spikes instead of stomping
  /// them. Effective load is min(1, background + dilation). 0 = healthy.
  void setCpuDilation(double fraction);
  double cpuDilation() const { return dilation_; }

  /// CPU share available to application work right now.
  double appShare() const;

  /// Load as a very fine-grained probe would read it this instant:
  /// background + (data server busy ? appShare : 0), clamped to 1.
  double instantaneousLoad() const;

  /// Integral over time of instantaneousLoad(), in load-microseconds.
  /// Consumers take deltas to compute windowed utilization.
  double loadIntegral() const;

  /// Integral over time of the data server's busy indicator (microseconds).
  double busyIntegral() const;

  /// Application busy fraction over roughly the last 200 ms.
  double recentBusyFraction() const;

  // -- Fail-stop ------------------------------------------------------------

  /// Fail-stop: every queued and in-flight task is lost, all future
  /// submissions are dropped until restart(). Crash listeners fire.
  void crash();
  void restart();
  bool isUp() const { return up_; }

  /// Registers a callback invoked (synchronously) when the machine crashes.
  void addCrashListener(std::function<void()> fn);

  /// Registers a callback invoked (synchronously) when the machine restarts
  /// after a crash. Hosted components use this to resume self-driven work
  /// whose pending completions the crash dropped.
  void addRestartListener(std::function<void()> fn);

  /// Optional structured-event sink (null = tracing off). Crash/restart
  /// events are recorded here; the load generator reaches it through its
  /// machine as well.
  void setTrace(TraceRecorder* trace) { trace_ = trace; }
  TraceRecorder* trace() const { return trace_; }

 private:
  struct DataTask {
    double remainingWork;  // cpu-microseconds at full speed
    std::function<void()> done;
  };

  void accrueIntegrals();
  double effectiveBackground() const;
  void startNextData();
  void settleActiveWork();
  void retimeActiveData();
  void finishActiveData();
  double controlRho() const;
  void dispatchControl(double workUs, std::function<void()> done);
  void releaseParked();
  void noteBusyTransition();

  Simulator& sim_;
  MachineId id_;
  Rng rng_;

  bool up_ = true;
  double background_ = 0.0;
  double dilation_ = 0.0;  ///< Injected slowdown load (fault/), additive.

  std::deque<DataTask> queue_;
  bool data_active_ = false;
  DataTask active_{};
  SimTime active_since_ = 0;    ///< When the active task last (re)started.
  double active_share_ = 1.0;   ///< Share in effect since active_since_.
  EventHandle finish_event_;

  struct Parked {
    double workUs;
    std::function<void()> done;
  };
  std::vector<Parked> parked_;

  // Integral bookkeeping.
  SimTime last_accrual_ = 0;
  double load_integral_ = 0.0;
  double busy_integral_ = 0.0;
  // (time, busyIntegral) snapshot ring used for the windowed busy fraction.
  std::deque<std::pair<SimTime, double>> busy_snapshots_;

  std::vector<std::function<void()>> crash_listeners_;
  std::vector<std::function<void()>> restart_listeners_;
  TraceRecorder* trace_ = nullptr;
};

}  // namespace streamha
