// The Hybrid HA method (the paper's contribution, Section IV).
//
// Normal operation is passive standby with sweeping checkpointing, plus:
//   * a pre-deployed, suspended secondary copy on the standby machine;
//   * early connections (`isActive=false`) from upstream into the secondary
//     and from the secondary into downstream;
//   * checkpoints refresh the secondary's PE memory directly (StateStore
//     attached replica) -- no disk I/O;
//   * detection acts on the FIRST heartbeat miss (false alarms are cheap
//     because rollback is cheap).
//
// On switchover the system becomes active standby: the secondary resumes
// (flag flip + small resume cost), its connections are activated and
// repositioned at the checkpoint watermarks, and it processes alongside the
// (stalled) primary. Upstream trimming stays anchored to the *primary's*
// checkpointed acks, so no data can be lost even if the secondary fails too.
//
// When the primary answers heartbeats again the coordinator rolls back:
// quiesce the secondary, read its (more advanced) state into the primary
// (Read State on Rollback -- skips the backlog), re-persist it, suspend the
// secondary and deactivate its connections. If the primary stays silent past
// `failStopAfter`, the secondary is promoted to primary and a fresh
// secondary is pre-deployed on the spare machine.
//
// hybrid.cpp holds exactly that protocol. Two later policies ride on it:
// domain-loss re-provisioning, the standby redeploy and the membership drain
// (hybrid_reprovision.cpp, active with a placement planner), and flap damping
// with quarantine (FlapDamper, ha/flap_damping.hpp).
#pragma once

#include <set>
#include <utility>

#include "ha/coordinator.hpp"
#include "place/planner.hpp"

namespace streamha {

class HybridCoordinator : public HaCoordinator {
 public:
  HybridCoordinator(Runtime& rt, SubjobId subjob, HaParams params)
      : HaCoordinator(rt, subjob, std::move(params)),
        damper_(*this, rt.cluster(), params_.damping, params_.heartbeat,
                [this](MachineId machine) {
                  if (params_.planner != nullptr) {
                    params_.planner->setQuarantined(machine, false);
                  }
                  // The node re-joins the pool: if no spare is provisioned it
                  // becomes the spare used by the next fail-stop promotion.
                  if (params_.spareMachine == kNoMachine) {
                    params_.spareMachine = machine;
                  }
                }) {}

  void setup() override;
  HaMode mode() const override { return HaMode::kHybrid; }

  bool switchedOver() const { return switched_; }

  /// Message overhead of switchover/rollback episodes: elements delivered to
  /// the unresponsive primary while switched over, plus state read back.
  std::uint64_t elementsToStalledPrimary() const {
    return elements_to_stalled_primary_;
  }
  std::uint64_t stateReadElements() const { return state_read_elements_; }

  // -- Gray-failure telemetry (non-zero only with flap damping enabled) -------
  std::uint64_t flapsDetected() const { return damper_.flapsDetected(); }
  std::uint64_t quarantines() const { return damper_.quarantines(); }
  std::uint64_t readmissions() const { return damper_.readmissions(); }
  /// The machine currently quarantined by this coordinator (kNoMachine when
  /// none).
  MachineId quarantinedMachine() const { return damper_.quarantined(); }

  // -- Placement / domain-loss telemetry (place/; planner-side counters are
  // aggregated separately by the scenario) ----------------------------------
  std::uint64_t domainLosses() const { return domain_losses_; }
  std::uint64_t reprovisions() const { return reprovisions_; }
  std::uint64_t reprovisionRetries() const { return reprovision_retries_; }
  std::uint64_t standbyRedeploys() const { return standby_redeploys_; }
  /// The machine currently hosting (or slated to host) the standby; tests
  /// use this to assert planner-routed replacement choices.
  MachineId standbyMachine() const { return params_.standbyMachine; }

  /// membership/ interplay: a roster member departed (graceful retirement or
  /// lease expiry). If it hosted this coordinator's standby, the standby is
  /// drained onto a planner-chosen machine via the redeploy path; primaries
  /// are out of scope (graceful leaves never target primary hosts, and a
  /// crashed primary's lease expiry is already covered by crash detection).
  void noteMemberLeft(MachineId machine);

 private:
  // -- Paper Section IV (hybrid.cpp) ------------------------------------------
  void predeploySecondary(MachineId machine);
  void installDetector(MachineId monitor, Machine& target);
  void onFailure(SimTime detectedAt);
  void beginSwitchover(SimTime detectedAt);
  void completeSwitchover(std::size_t timelineIdx);
  void onRecovery(SimTime recoveredAt);
  void promote();
  /// Promote the secondary if the primary is still silent `failStopAfter`
  /// from now.
  void armFailStop();
  /// The current incident's timeline; every caller runs after a switchover
  /// (or a domain loss) opened one.
  RecoveryTimeline& currentTimeline() { return recoveries_[current_timeline_]; }
  /// Planner choice of a standby host away from the primary (and from any
  /// quarantined machine); kNoMachine when the pool is exhausted.
  MachineId chooseStandbyHost();
  /// Protect the primary again with a standby on `host`: fresh store, a
  /// suspended pre-deployed copy, checkpointing and a detector.
  void standUpStandby(MachineId host);
  /// No standby available: checkpoint into a store on the primary's own
  /// machine so the job keeps running, without standby protection.
  void runUnprotected();

  // -- Domain-loss re-provisioning, standby redeploy, membership drain
  // (hybrid_reprovision.cpp; active only with a placement planner) ----------
  bool reprovisionEnabled() const { return params_.planner != nullptr; }
  /// Register a (permanent, idempotent) crash listener on a machine hosting
  /// one of this coordinator's copies or replacement targets.
  void watchMachine(MachineId machine);
  /// Crash listener body: schedules one coalesced assessLoss() per
  /// confirmation window.
  void onWatchedMachineCrash();
  /// Classify what the crash burst actually took out and dispatch to the
  /// matching recovery path.
  void assessLoss();
  /// Primary and secondary are gone together: tear both down, snapshot the
  /// last confirmed checkpoint and re-provision on a planner-chosen machine.
  void beginDomainLossRecovery();
  /// Pick a re-provision target and pay the deployment; retries while the
  /// pool is exhausted and restarts if the target dies mid-flight.
  void deployReplacement();
  /// The replacement is deployed: instantiate, wire, restore, activate.
  void activateReplacement(MachineId target);
  /// Secondary/standby lost while the primary survives: tear down the dead
  /// copy and stand a fresh standby up on a planner-chosen machine.
  void redeployStandby();
  /// Shared tail of both recovery paths: a standby on a planner-chosen
  /// machine, or a local store when the pool is exhausted. Calls
  /// onStandbyRebuilt when done.
  void rebuildStandby();
  /// Seed a freshly created store with `rebuild_carry_` (no-op outside a
  /// rebuild) so it never holds less than the checkpoint whose acks already
  /// trimmed upstream.
  void seedRebuiltStore();
  void onStandbyRebuilt(MachineId standby, bool degraded);

  // -- Section IV state ---------------------------------------------------------
  bool switched_ = false;
  bool promoting_ = false;
  bool resume_in_flight_ = false;
  bool holdoff_pending_ = false;  ///< A hysteresis re-check is scheduled.
  EventHandle failstop_timer_;
  SubjobQuiescer quiescer_;
  std::size_t current_timeline_ = 0;
  ElementSeq switchover_baseline_ = 0;  ///< Primary's position at detection.
  std::uint64_t cursor_sum_at_switchover_ = 0;
  std::uint64_t elements_to_stalled_primary_ = 0;
  std::uint64_t state_read_elements_ = 0;
  FlapDamper damper_;
  // -- Domain-loss recovery state ---------------------------------------------
  std::set<MachineId> watched_machines_;  ///< Crash listeners registered.
  bool assess_pending_ = false;      ///< A coalesced assessLoss() is scheduled.
  bool reprovisioning_ = false;      ///< Domain-loss recovery in flight.
  enum class RebuildReason : std::uint8_t { kNone, kAfterReprovision, kStandbyLoss };
  RebuildReason rebuild_reason_ = RebuildReason::kNone;
  MachineId rebuild_target_ = kNoMachine;      ///< Standby rebuild in flight.
  MachineId reprovision_target_ = kNoMachine;  ///< Replacement-primary target.
  std::uint64_t place_epoch_ = 0;  ///< Invalidates stale placement callbacks.
  SubjobState reprovision_state_;  ///< Checkpoint snapshot being restored.
  /// Last confirmed checkpoint carried across a standby rebuild's store swap:
  /// upstream queues were already trimmed against its acks, so the new store
  /// must never start emptier than it (the primary can die before the fresh
  /// checkpoint manager confirms anything).
  SubjobState rebuild_carry_;
  ElementSeq reprovision_baseline_ = 0;
  std::size_t reprovision_timeline_ = 0;
  std::uint64_t domain_losses_ = 0;
  std::uint64_t reprovisions_ = 0;
  std::uint64_t reprovision_retries_ = 0;
  std::uint64_t standby_redeploys_ = 0;
};

}  // namespace streamha
