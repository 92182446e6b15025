// Failure-detector skeleton and the one probe round trip.
//
// The Hybrid method's core is speculative switching; it works with any
// mechanism that can declare a target machine suspect and (for rollback)
// declare it responsive again. The paper pairs it with heartbeats but notes
// compatibility with e.g. the failure-*prediction* mechanisms of Gu et al.;
// PredictiveDetector implements that idea.
//
// Every network detector is the same skeleton: a monitor machine probes a
// target once per interval through sendProbe (request, control work on the
// target, reply) and turns what comes back into a verdict. FailureDetector
// holds that skeleton -- the timer, the probe, the verdict with its counters
// and trace events -- and a detector supplies only its verdict rule, tick().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "cluster/machine.hpp"
#include "common/types.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "trace/event.hpp"

namespace streamha {

/// What the target read when a probe's request landed on it.
struct ProbeReading {
  SimTime at = 0;            ///< When the request landed.
  double loadIntegral = 0.0; ///< Machine::loadIntegral() at that instant.
};

/// One probe round trip from `monitor` to `target`: a 64 B `request`, 50 us
/// of control work on the target (subject to its scheduling-latency model,
/// so a saturated target answers late or not at all) and a 64 B `reply`.
/// The target reads its ProbeReading when the request lands, before the
/// control work; `onReply` receives it on the monitor.
void sendProbe(Simulator& sim, Network& net, MachineId monitor, Machine& target,
               MsgKind request, MsgKind reply,
               std::function<void(const ProbeReading&)> onReply);

class FailureDetector {
 public:
  struct Callbacks {
    /// The target was declared failed (or predicted to fail imminently).
    std::function<void(SimTime)> onFailure;
    /// The target became responsive/healthy again after a declaration.
    std::function<void(SimTime)> onRecovery;
  };

  /// tick() runs every `interval` once started, skipped while the monitor is
  /// down (a crashed monitor neither probes nor declares anything).
  FailureDetector(Simulator& sim, Network& net, Machine& monitor,
                  Machine& target, SimDuration interval, Callbacks callbacks);
  virtual ~FailureDetector() = default;
  FailureDetector(const FailureDetector&) = delete;
  FailureDetector& operator=(const FailureDetector&) = delete;

  virtual void start() { timer_.start(); }
  void stop() { timer_.stop(); }

  /// True while the target is in a declared-failed state.
  bool failed() const { return failed_; }

  std::uint64_t pingsSent() const { return pings_sent_; }
  std::uint64_t repliesReceived() const { return replies_received_; }
  std::uint64_t failuresDeclared() const { return failures_declared_; }

  /// Times a suspicion level crossed the failure threshold upward (each one
  /// a failure declaration); 0 for detectors without a suspicion level.
  virtual std::uint64_t suspicionCrossings() const { return 0; }

 protected:
  /// One interval's verdict rule.
  virtual void tick() = 0;

  /// Send one counted probe to the target; `onReply` runs when its reply
  /// arrives (counted too), whether or not the detector is still running.
  void probe(MsgKind request, MsgKind reply,
             std::function<void(const ProbeReading&)> onReply);
  /// Flip the verdict: record kFailureConfirmed (failed) or kFailureCleared
  /// with `value`/`aux`, count the declaration, then call back.
  void declare(bool failed, std::uint64_t value, std::uint64_t aux = 0);
  /// Record a detector trace event against the target, seen from the monitor.
  void record(TraceEventType type, std::uint64_t value, std::uint64_t aux = 0);

  Simulator& sim_;

 private:
  Network& net_;
  Machine& monitor_;
  Machine& target_;
  Callbacks callbacks_;
  PeriodicTimer timer_;
  bool failed_ = false;
  std::uint64_t pings_sent_ = 0;
  std::uint64_t replies_received_ = 0;
  std::uint64_t failures_declared_ = 0;
};

/// Constructs a detector watching `target` from `monitor`. HA coordinators
/// call this whenever monitoring must be (re)installed; thresholds (e.g. the
/// Hybrid's 1-miss policy) are baked into the factory by its creator.
using DetectorFactory = std::function<std::unique_ptr<FailureDetector>(
    Simulator&, Network&, Machine& monitor, Machine& target,
    FailureDetector::Callbacks)>;

}  // namespace streamha
