// High-availability coordinators.
//
// One coordinator protects one subjob and owns its standby machinery:
// standby copies, state store, checkpoint manager and failure detector. Four
// modes (paper Section V-A):
//
//   NONE    -- single copy, no action on failure (no coordinator object).
//   AS      -- ActiveStandbyCoordinator: two always-active copies, duplicate
//              elimination downstream, 4x traffic.
//   PS      -- PassiveStandbyCoordinator: checkpoint to a standby store;
//              on 3 heartbeat misses deploy + restore + reconnect on the
//              standby machine (migration; no rollback).
//   Hybrid  -- HybridCoordinator: pre-deployed suspended copy, early
//              connections, in-memory state refresh, switchover on the first
//              heartbeat miss, rollback with read-state when the primary
//              recovers, promotion on fail-stop, secondary multiplexing.
#pragma once

#include <memory>
#include <vector>

#include "checkpoint/manager.hpp"
#include "checkpoint/store.hpp"
#include "detect/detector.hpp"
#include "detect/heartbeat.hpp"
#include "ha/flap_damping.hpp"
#include "metrics/recovery.hpp"
#include "stream/runtime.hpp"
#include "trace/event.hpp"

namespace streamha {

class PlacementPlanner;

enum class HaMode : std::uint8_t { kNone, kActiveStandby, kPassiveStandby, kHybrid };

constexpr const char* toString(HaMode mode) {
  switch (mode) {
    case HaMode::kNone: return "NONE";
    case HaMode::kActiveStandby: return "AS";
    case HaMode::kPassiveStandby: return "PS";
    case HaMode::kHybrid: return "Hybrid";
  }
  return "?";
}

enum class CheckpointKind : std::uint8_t { kSweeping, kSynchronous, kIndividual };

struct HaParams {
  MachineId standbyMachine = kNoMachine;
  /// Replacement standby used after a fail-stop promotion/replacement.
  MachineId spareMachine = kNoMachine;
  HeartbeatDetector::Params heartbeat;
  /// Optional custom detector (e.g. PredictiveDetector); when unset the
  /// coordinator builds a HeartbeatDetector from `heartbeat`. The Hybrid
  /// method works with any mechanism that declares failure and recovery.
  DetectorFactory detectorFactory;
  CheckpointManager::Params checkpoint;
  StateStore::Params store;
  CheckpointKind checkpointKind = CheckpointKind::kSweeping;
  /// Continued unresponsiveness after which a failure is treated as
  /// fail-stop (Hybrid promotes its secondary; AS replaces the dead copy).
  SimDuration failStopAfter = 10 * kSecond;
  // -- Hybrid optimization toggles (for the ablation bench) -----------------
  bool predeploySecondary = true;   ///< Off: deploy on demand at switchover.
  bool earlyConnections = true;     ///< Off: establish connections on demand.
  bool readStateOnRollback = true;  ///< Off: primary grinds through backlog.
  // -- Gray-failure resilience ----------------------------------------------
  FlapDamping damping;
  // -- Failure-domain-aware placement (place/) --------------------------------
  /// Optional placement planner consulted for replacement-machine choices:
  /// the spare at fail-stop/quarantine promotion, the fresh standby after a
  /// standby-only loss, and the domain-loss re-provision target. Quarantine
  /// verdicts and detector suspicions are reported to it, so it never offers
  /// a degraded node. With a planner, Hybrid also recovers from domain loss:
  /// when primary and secondary are lost together -- a correlated domain
  /// kill -- it re-provisions a fresh primary from the last confirmed
  /// checkpoint on a planner-chosen machine and replays the retained
  /// upstream queues. Null = the static `spareMachine` is used as-is, minus a
  /// liveness check. Not owned.
  PlacementPlanner* planner = nullptr;
};

class HaCoordinator {
 public:
  HaCoordinator(Runtime& rt, SubjobId subjob, HaParams params);
  virtual ~HaCoordinator();
  HaCoordinator(const HaCoordinator&) = delete;
  HaCoordinator& operator=(const HaCoordinator&) = delete;

  /// Deploy standby machinery. Call after Runtime::deployPrimaries() and
  /// before Runtime::start().
  virtual void setup() = 0;
  virtual HaMode mode() const = 0;

  SubjobId subjobId() const { return subjob_; }
  Subjob* primary() { return primary_; }
  Subjob* secondary() { return secondary_; }
  CheckpointManager* checkpointManager() { return cm_.get(); }
  FailureDetector* detector() { return detector_.get(); }
  StateStore* store() { return store_.get(); }

  const std::vector<RecoveryTimeline>& recoveries() const { return recoveries_; }
  std::vector<RecoveryTimeline>& mutableRecoveries() { return recoveries_; }

  /// Aggregated state-store telemetry over the live store and every store
  /// retired by promotions/migrations. All zero when the delta/tiered
  /// backend is disabled.
  StateTelemetry stateTelemetry() const;
  /// Upward suspicion crossings over every detector this coordinator
  /// started, live and retired.
  std::uint64_t suspicionCrossings() const;

  std::uint64_t switchovers() const { return switchovers_; }
  std::uint64_t rollbacks() const { return rollbacks_; }
  std::uint64_t promotions() const { return promotions_; }

  /// Records an incident-correlated recovery event (no-op when tracing off).
  /// `machine` is the failed/affected machine, `peer` the standby involved.
  void recordIncidentEvent(TraceEventType type, std::uint64_t incident,
                           MachineId machine, MachineId peer,
                           std::uint64_t value = 0, std::uint64_t aux = 0);

 protected:
  Simulator& sim();
  Network& net();
  Cluster& cluster() { return rt_.cluster(); }

  /// Trace sink (null = tracing off); reached through the network.
  TraceRecorder* trace();

  /// Allocates a fresh incident correlation id; 0 when tracing is off.
  std::uint64_t beginTraceIncident();

  // -- Recovery lifecycle, shared by AS, PS and Hybrid ------------------------
  /// Open a recovery incident: a fresh timeline detected at `detectedAt`, a
  /// trace incident id, and its opening `type` event about `machine` (the
  /// failed/affected one) and `peer`. Returns the timeline's index.
  std::size_t openIncident(TraceEventType type, SimTime detectedAt,
                           MachineId machine, MachineId peer);
  /// Timeline milestones: the replacement copy on `machine` is deployed or
  /// resumed / its connections are ready.
  void markRedeployDone(std::size_t timelineIdx, MachineId machine);
  void markConnectionsReady(std::size_t timelineIdx, MachineId machine);

  /// Retire the current state store and stand a fresh one up on `host`.
  void replaceStore(Machine& host);
  /// Retire the current checkpoint manager and start checkpointing the
  /// primary into the current store.
  void startCheckpointing();
  /// Tear a dead or demoted copy down: cut it loose, terminate its PEs and
  /// remove its wires.
  void tearDown(Subjob& copy);

  /// Builds and starts the configured failure detector (custom factory or
  /// heartbeat): `monitor` watches `target`.
  std::unique_ptr<FailureDetector> startDetector(
      Machine& monitor, Machine& target, FailureDetector::Callbacks callbacks);

  /// Record firstOutputAt on recoveries_[timelineIdx] when `copy` produces
  /// its first genuinely *new* element: one with sequence number at or past
  /// `baseline` (the stream position the failed copy had reached when the
  /// failure was detected). Elements below the baseline are reprocessing of
  /// already-produced data -- the paper counts that time as part of the
  /// retransmission/reprocessing phase.
  void watchFirstOutput(Subjob& copy, std::size_t timelineIdx,
                        ElementSeq baseline);

  /// True when `state` is at or ahead of `instance` on every PE/stream --
  /// the safety condition for read-state-on-rollback.
  static bool stateAdvances(const SubjobState& state, Subjob& instance);

  /// Park a stopped component; objects are retired, never destroyed
  /// mid-run, because in-flight network closures may still reference them.
  void retire(std::unique_ptr<CheckpointManager> cm);
  void retire(std::unique_ptr<FailureDetector> detector);
  void retire(std::unique_ptr<StateStore> store);

  Runtime& rt_;
  SubjobId subjob_;
  HaParams params_;

  Subjob* primary_ = nullptr;
  Subjob* secondary_ = nullptr;
  std::unique_ptr<StateStore> store_;
  std::unique_ptr<CheckpointManager> cm_;
  std::unique_ptr<FailureDetector> detector_;

  std::vector<RecoveryTimeline> recoveries_;
  std::uint64_t switchovers_ = 0;
  std::uint64_t rollbacks_ = 0;
  std::uint64_t promotions_ = 0;

 private:
  std::vector<std::unique_ptr<CheckpointManager>> retired_cms_;
  std::vector<std::unique_ptr<FailureDetector>> retired_detectors_;
  /// Every detector startDetector() built. Not owning: each is owned by a
  /// live slot or retired, and retired objects are never destroyed mid-run.
  std::vector<const FailureDetector*> started_detectors_;
  std::vector<std::unique_ptr<StateStore>> retired_stores_;
};

}  // namespace streamha
