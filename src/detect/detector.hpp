// Failure-detector interface.
//
// The Hybrid method's core is speculative switching; it works with any
// mechanism that can declare a target machine suspect and (for rollback)
// declare it responsive again. The paper pairs it with heartbeats but notes
// compatibility with e.g. the failure-*prediction* mechanisms of Gu et al.;
// PredictiveDetector implements that idea.
#pragma once

#include <functional>
#include <memory>

#include "cluster/machine.hpp"
#include "common/types.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace streamha {

class FailureDetector {
 public:
  struct Callbacks {
    /// The target was declared failed (or predicted to fail imminently).
    std::function<void(SimTime)> onFailure;
    /// The target became responsive/healthy again after a declaration.
    std::function<void(SimTime)> onRecovery;
  };

  virtual ~FailureDetector() = default;

  virtual void start() = 0;
  virtual void stop() = 0;

  /// Point the detector at a different target machine (migration /
  /// promotion re-targets monitoring). Resets internal state.
  virtual void retarget(Machine& newTarget) = 0;

  /// True while the target is in a declared-failed state.
  virtual bool failed() const = 0;

  virtual MachineId targetId() const = 0;

  /// Times a suspicion level crossed the failure threshold upward (each one
  /// a failure declaration); 0 for detectors without a suspicion level.
  virtual std::uint64_t suspicionCrossings() const { return 0; }
};

/// Constructs a detector watching `target` from `monitor`. HA coordinators
/// call this whenever monitoring must be (re)installed; thresholds (e.g. the
/// Hybrid's 1-miss policy) are baked into the factory by its creator.
using DetectorFactory = std::function<std::unique_ptr<FailureDetector>(
    Simulator&, Network&, Machine& monitor, Machine& target,
    FailureDetector::Callbacks)>;

}  // namespace streamha
