// Subjob: the subset of a job's PEs running on one machine, as one physical
// instance (primary or secondary copy).
#pragma once

#include <memory>
#include <vector>

#include "checkpoint/state.hpp"
#include "common/types.hpp"
#include "sim/timer.hpp"
#include "stream/pe.hpp"

namespace streamha {

class Subjob {
 public:
  Subjob(Simulator& sim, Machine& machine, SubjobId logicalId, Replica replica);

  SubjobId logicalId() const { return logical_id_; }
  Replica replica() const { return replica_; }
  Machine& machine() { return machine_; }
  const Machine& machine() const { return machine_; }
  Simulator& sim() { return sim_; }

  /// Add a PE instance (in upstream-to-downstream order for chains).
  PeInstance& addPe(std::unique_ptr<PeInstance> pe);

  std::size_t peCount() const { return pes_.size(); }
  PeInstance& pe(std::size_t i) { return *pes_.at(i); }
  const PeInstance& pe(std::size_t i) const { return *pes_.at(i); }
  PeInstance* peByLogicalId(LogicalPeId id);
  PeInstance& firstPe() { return *pes_.front(); }
  PeInstance& lastPe() { return *pes_.back(); }

  // -- Control ---------------------------------------------------------------

  /// Suspend every PE's processing loop (Hybrid standby).
  void suspendAll();
  /// Clear the suspension flags and kick the processing loops.
  void unsuspendAll();
  bool suspended() const { return suspended_; }

  /// Permanently stop this instance (PS migration shut down the old copy).
  void terminateAll();
  bool terminated() const { return terminated_; }

  /// An instance is alive if not terminated and its machine is up.
  bool alive() const { return !terminated_ && machine_.isUp(); }

  void setAckPolicy(AckPolicy policy);

  /// Start / stop the periodic ack flush (every kAckFlushInterval) of the
  /// kOnProcess PEs at their processed watermarks.
  void startAckTimer();
  void stopAckTimer();

  // -- Flow control (flow/) ----------------------------------------------------

  /// Drop every PE input queue's overload flag. Called when the instance
  /// goes dormant (suspension on rollback, termination on promotion or
  /// migration): a dormant copy's backlog must not keep the source paused.
  void releaseFlowPressure();
  /// Re-evaluate every PE input queue's overload flag from its current
  /// depth. Called on activation (switchover): the copy inherits whatever
  /// backlog the standby queue accumulated, and the source must learn of it.
  void pokeFlowPressure();

  // -- State -----------------------------------------------------------------

  /// Capture the states of all PEs (queue inclusion per checkpoint variant).
  SubjobState captureState(bool includeOutputQueues,
                           bool includeInputQueues) const;

  /// Read-only capture: no checkpoint-version bump on any PE (see
  /// PeInstance::peekState). Used by the delta-aware restore planner.
  SubjobState peekState(bool includeOutputQueues,
                        bool includeInputQueues) const;

  /// Apply a full subjob state (storeJobState on every PE).
  void applyState(const SubjobState& state);

  std::uint64_t processedCount() const;

 private:
  Simulator& sim_;
  Machine& machine_;
  SubjobId logical_id_;
  Replica replica_;
  bool suspended_ = false;
  bool terminated_ = false;
  std::vector<std::unique_ptr<PeInstance>> pes_;
  std::unique_ptr<PeriodicTimer> ack_timer_;
  std::uint64_t state_version_ = 0;
};

}  // namespace streamha
