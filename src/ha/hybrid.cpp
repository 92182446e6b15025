#include "ha/hybrid.hpp"

#include <cassert>
#include <functional>
#include <map>
#include <memory>

#include "common/logging.hpp"

namespace streamha {

void HybridCoordinator::setup() {
  primary_ = rt_.instanceOf(subjob_, Replica::kPrimary);
  assert(primary_ != nullptr && "deploy primaries before HA setup");
  assert(params_.standbyMachine != kNoMachine);

  primary_->setAckPolicy(AckPolicy::kOnCheckpoint);
  replaceStore(cluster().machine(params_.standbyMachine));
  if (params_.predeploySecondary) {
    predeploySecondary(params_.standbyMachine);
  }
  startCheckpointing();
  installDetector(params_.standbyMachine, primary_->machine());
  // Domain-loss coverage (hybrid_reprovision.cpp; no-op without a planner).
  watchMachine(primary_->machine().id());
  watchMachine(params_.standbyMachine);
}

void HybridCoordinator::predeploySecondary(MachineId machine) {
  secondary_ = &rt_.instantiate(subjob_, machine, Replica::kSecondary);
  secondary_->setAckPolicy(AckPolicy::kOnCheckpoint);
  // "To avoid consuming CPU cycles, we suspend this job immediately after
  // its deployment."
  secondary_->suspendAll();
  if (params_.earlyConnections) {
    // Early connection: channels exist with isActive=false; switchover only
    // flips the flag.
    rt_.wireInstance(*secondary_, Runtime::WireOpts{false, false},
                     Runtime::WireOpts{false, false});
  }
  // Checkpoints refresh the suspended copy's PE memory directly.
  store_->attachReplica(subjob_, secondary_);
}

void HybridCoordinator::installDetector(MachineId monitor, Machine& target) {
  retire(std::move(detector_));
  FailureDetector::Callbacks callbacks;
  callbacks.onFailure = [this](SimTime t) { onFailure(t); };
  callbacks.onRecovery = [this](SimTime t) { onRecovery(t); };
  detector_ = startDetector(cluster().machine(monitor), target,
                            std::move(callbacks));
}

void HybridCoordinator::onFailure(SimTime detectedAt) {
  // The planner must stop offering a machine some detector currently declares
  // failed, even when this coordinator takes no action of its own.
  if (params_.planner != nullptr) {
    params_.planner->setSuspected(primary_->machine().id(), true);
  }
  if (reprovisioning_ || rebuild_reason_ != RebuildReason::kNone) return;
  if (switched_ || promoting_ || resume_in_flight_ || holdoff_pending_) return;
  if (damper_.holdoffApplies(primary_->machine().id(), detectedAt)) {
    // Hysteresis: this primary already flapped inside the window. Instead of
    // honoring the first-miss policy immediately, wait a beat and only switch
    // over if the detector still says failed.
    holdoff_pending_ = true;
    sim().schedule(damper_.params().switchoverHoldoff, [this] {
      holdoff_pending_ = false;
      if (switched_ || promoting_ || resume_in_flight_) return;
      if (detector_ != nullptr && detector_->failed()) {
        beginSwitchover(sim().now());
      }
    });
    return;
  }
  beginSwitchover(detectedAt);
}

void HybridCoordinator::beginSwitchover(SimTime detectedAt) {
  switched_ = true;
  ++switchovers_;
  current_timeline_ =
      openIncident(TraceEventType::kSwitchoverBegin, detectedAt,
                   primary_->machine().id(), params_.standbyMachine);
  switchover_baseline_ = primary_->lastPe().output(0).nextSeq();
  cursor_sum_at_switchover_ = 0;
  for (Runtime::Wire* wire : rt_.wiresInto(*primary_)) {
    cursor_sum_at_switchover_ += wire->oq->connectionCursor(wire->connId);
  }
  LOG_INFO(sim().now(), "hybrid")
      << "switchover for subjob " << subjob_ << " (miss on machine "
      << primary_->machine().id() << ")";

  // Promote to a permanent failure if the primary stays silent.
  armFailStop();

  // Resume the pre-deployed suspended copy: a flag flip plus a small amount
  // of control work on the standby machine. Ablation without pre-deployment:
  // pay the full deployment cost now.
  const std::size_t idx = current_timeline_;
  const bool predeployed = secondary_ != nullptr;
  Machine& standby = predeployed ? secondary_->machine()
                                 : cluster().machine(params_.standbyMachine);
  const double work =
      predeployed ? Runtime::kResumeWorkUs : Runtime::kDeployWorkUs;
  resume_in_flight_ = true;
  standby.submitData(work, [this, idx, predeployed] {
    resume_in_flight_ = false;
    if (!switched_ || promoting_) return;  // Rolled back before resume.
    if (predeployed) {
      secondary_->unsuspendAll();
    } else {
      secondary_ = &rt_.instantiate(subjob_, params_.standbyMachine,
                                    Replica::kSecondary);
    }
    // While switched over the system runs in active-standby mode: the
    // secondary acks as it processes (keeping its own queues trimmed).
    // Safety is unaffected -- its upstream connections never gate trim.
    secondary_->setAckPolicy(AckPolicy::kOnProcess);
    secondary_->startAckTimer();
    if (!predeployed) store_->attachReplica(subjob_, secondary_);
    markRedeployDone(idx, secondary_->machine().id());
    if (predeployed && params_.earlyConnections) {
      completeSwitchover(idx);
      return;
    }
    rt_.wireInstanceWithCost(*secondary_, Runtime::WireOpts{false, false},
                             Runtime::WireOpts{false, false}, [this, idx] {
                               if (switched_ && !promoting_) {
                                 completeSwitchover(idx);
                               }
                             });
  });
}

void HybridCoordinator::completeSwitchover(std::size_t timelineIdx) {
  const SubjobState state = store_->latest(subjob_);
  secondary_->applyState(state);
  watchFirstOutput(*secondary_, timelineIdx, switchover_baseline_);
  markConnectionsReady(timelineIdx, secondary_->machine().id());
  // The activated secondary's connections gate upstream trimming alongside
  // the primary's checkpointed acks (trim advances to the *minimum* over
  // gating connections, so adding the secondary only retains more). This
  // matters when the primary is degraded rather than dead: a gray primary
  // keeps processing and checkpointing while switched over, and its acks
  // alone would let upstream trim past the snapshot the secondary adopted --
  // a later promotion (fail-stop or flap quarantine) would then discard the
  // only copy that covers the trimmed range. finishRollback() and
  // deactivateInstanceWires() drop the gate when the secondary re-suspends.
  rt_.activateRestoredInstance(*secondary_, state);
}

void HybridCoordinator::onRecovery(SimTime recoveredAt) {
  if (params_.planner != nullptr) {
    params_.planner->setSuspected(primary_->machine().id(), false);
  }
  if (reprovisioning_ || rebuild_reason_ != RebuildReason::kNone) return;
  if (!switched_ || promoting_) return;
  // Detector lag: a "recovered" verdict can rest on heartbeat replies that
  // left the primary just before it died. Never start a rollback to a dead
  // primary -- stand pat on the secondary and leave the fail-stop timer
  // armed so the crash eventually promotes it.
  if (!primary_->alive()) return;
  const MachineId primaryM = primary_->machine().id();
  // The primary came back before the secondary even finished resuming (or,
  // without pre-deployment, before it was deployed): nothing to roll back --
  // abort the speculative switchover. The pending resume/deploy callback
  // sees switched_ == false and stands down.
  if (resume_in_flight_ || secondary_ == nullptr) {
    failstop_timer_.cancel();
    RecoveryTimeline& timeline = currentTimeline();
    timeline.rollbackStartAt = recoveredAt;
    timeline.rollbackDoneAt = recoveredAt;
    // Aborted switchover: zero-length rollback span (aux = 1 marks it).
    recordIncidentEvent(TraceEventType::kRollbackBegin, timeline.incidentId,
                        primaryM, kNoMachine, 0, 1);
    recordIncidentEvent(TraceEventType::kRollbackEnd, timeline.incidentId,
                        primaryM, kNoMachine, 0, 1);
    // Explicit classification for the timeline analyzer: value 1 = the
    // switchover was abandoned before the secondary even resumed.
    recordIncidentEvent(TraceEventType::kIncidentAborted, timeline.incidentId,
                        primaryM, kNoMachine, 1);
    // An aborted switchover is still one oscillation against this primary.
    damper_.noteCycle(primaryM, recoveredAt);
    switched_ = false;
    return;
  }
  // Flap damping: if this primary has already completed maxCycles
  // switchover<->rollback cycles inside the window, this recovery verdict is
  // just the next oscillation of a gray node. Quarantine it -- promote the
  // secondary permanently -- instead of rolling back into the flap.
  if (damper_.shouldQuarantine(primaryM, recoveredAt) && secondary_->alive()) {
    damper_.quarantine(primaryM, secondary_->machine().id(),
                       currentTimeline().incidentId, recoveredAt);
    if (params_.planner != nullptr) {
      params_.planner->setQuarantined(primaryM, true);
    }
    failstop_timer_.cancel();
    promote();
    damper_.startReadmission();
    return;
  }
  ++rollbacks_;
  failstop_timer_.cancel();
  currentTimeline().rollbackStartAt = recoveredAt;
  recordIncidentEvent(TraceEventType::kRollbackBegin,
                      currentTimeline().incidentId, primaryM,
                      secondary_->machine().id());
  LOG_INFO(sim().now(), "hybrid")
      << "primary responsive again; rolling back subjob " << subjob_;

  // Account the elements that were shipped to the stalled primary while we
  // were switched over (Fig 10's dominant overhead term).
  std::uint64_t cursor_sum_now = 0;
  for (Runtime::Wire* wire : rt_.wiresInto(*primary_)) {
    cursor_sum_now += wire->oq->connectionCursor(wire->connId);
  }
  if (cursor_sum_now > cursor_sum_at_switchover_) {
    elements_to_stalled_primary_ += cursor_sum_now - cursor_sum_at_switchover_;
  }

  quiescer_.quiesce(*secondary_, [this] {
    // The primary can die between the recovery verdict and quiesce
    // completion. Abort the rollback: resume the secondary where it was and
    // re-arm the fail-stop timer (cancelled above) so the crash promotes it.
    if (!primary_->alive()) {
      quiescer_.release();
      RecoveryTimeline& timeline = currentTimeline();
      timeline.rollbackDoneAt = sim().now();
      recordIncidentEvent(TraceEventType::kRollbackEnd, timeline.incidentId,
                          primary_->machine().id(), secondary_->machine().id(),
                          0, 1);
      // Explicit classification for the timeline analyzer: value 2 = the
      // rollback was abandoned because the primary died mid-quiesce.
      recordIncidentEvent(TraceEventType::kIncidentAborted,
                          timeline.incidentId, primary_->machine().id(),
                          secondary_->machine().id(), 2);
      armFailStop();
      return;
    }
    SubjobState state = secondary_->captureState(true, false);
    const bool useState =
        params_.readStateOnRollback && stateAdvances(state, *primary_);
    auto finishRollback = [this] {
      secondary_->suspendAll();
      secondary_->stopAckTimer();
      secondary_->setAckPolicy(AckPolicy::kOnCheckpoint);
      quiescer_.release();
      rt_.deactivateInstanceWires(*secondary_);
      currentTimeline().rollbackDoneAt = sim().now();
      recordIncidentEvent(TraceEventType::kRollbackEnd,
                          currentTimeline().incidentId,
                          primary_->machine().id(), secondary_->machine().id(),
                          state_read_elements_);
      damper_.noteCycle(primary_->machine().id(), sim().now());
      switched_ = false;
    };
    if (!useState) {
      finishRollback();
      return;
    }
    // Read State on Rollback: the primary adopts the secondary's more
    // advanced state instead of grinding through its backlog.
    const std::uint64_t elements = state.sizeElements();
    state_read_elements_ += elements;
    // Delta-aware transfer: when delta shipping is on, the recovering
    // primary already holds its own last-checkpointed state, and the store's
    // delta log knows which runs it is missing -- only those bytes cross the
    // wire. Full-copy mode transfers the whole snapshot.
    std::uint64_t transferBytes = state.sizeBytes();
    if (store_->deltaEnabled()) {
      std::map<LogicalPeId, std::uint64_t> have;
      const SubjobState held = primary_->peekState(false, false);
      for (const auto& [peId, peState] : held.pes) {
        have[peId] = peState.version;
      }
      transferBytes = store_->restoreBytes(subjob_, have, state);
    }
    // The transfer rides the reliable path, so a lost copy is retried instead
    // of silently falling back; the timeout below only remains for the case
    // where the primary dies while the state is in flight (the detector then
    // re-reports the failure and a fresh switchover begins).
    auto finishOnce = std::make_shared<std::function<void()>>(
        [finishRollback, done = false]() mutable {
          if (done) return;
          done = true;
          finishRollback();
        });
    net().sendReliable(
        secondary_->machine().id(), primary_->machine().id(),
        MsgKind::kStateRead, transferBytes, elements,
        [this, state, finishOnce] {
          // Re-check at application time: the recovered primary has been
          // processing during the transfer and may have moved past the
          // captured state -- applying it then would roll the primary
          // backwards and skew its output numbering.
          if (stateAdvances(state, *primary_)) {
            primary_->applyState(state);
            for (Runtime::Wire* wire : rt_.wiresInto(*primary_)) {
              if (wire->consumerPe == nullptr) continue;
              const ElementSeq wm = Runtime::stateWatermark(
                  state, *wire->consumerPe, wire->stream);
              wire->oq->retransmitFrom(wire->connId, wm + 1);
            }
            // Re-persist the adopted state so upstream acks (and trimming)
            // resume from it. In delta mode the adopted versions and the
            // manager's confirmed bases can disagree, so restart from
            // full-coverage ships. Atomic: fence pre-adoption pipelines still
            // in flight (their confirms must not trim upstream past what the
            // rewound copy has to reprocess) and release the re-persist's
            // acks all-or-nothing.
            cm_->resetDeltaBase();
            cm_->checkpointAllNow(nullptr, /*atomic=*/true);
          }
          (*finishOnce)();
        });
    sim().schedule(params_.failStopAfter, [finishOnce] { (*finishOnce)(); });
  });
}

void HybridCoordinator::promote() {
  if (!switched_ || secondary_ == nullptr) return;
  // Never promote a dead copy; if the standby died too, the only option is
  // to keep waiting for the primary (or an operator) to come back.
  if (!secondary_->alive()) return;
  promoting_ = true;
  ++promotions_;
  recordIncidentEvent(TraceEventType::kPromotion, currentTimeline().incidentId,
                      secondary_->machine().id(), primary_->machine().id());
  LOG_INFO(sim().now(), "hybrid")
      << "fail-stop: promoting secondary of subjob " << subjob_
      << " on machine " << secondary_->machine().id();

  Subjob* old = primary_;
  tearDown(*old);
  // The old primary is out of the picture; lift its suspicion mark so a
  // later restart can re-join the pool (quarantine and liveness checks keep
  // guarding it meanwhile).
  if (params_.planner != nullptr) {
    params_.planner->setSuspected(old->machine().id(), false);
  }

  primary_ = secondary_;
  secondary_ = nullptr;
  store_->detachReplica(subjob_);
  // The promoted copy checkpoints like a primary from here on.
  primary_->stopAckTimer();
  primary_->setAckPolicy(AckPolicy::kOnCheckpoint);

  // The promoted copy's connections now carry primary semantics: its acks
  // gate upstream trimming.
  for (Runtime::Wire* wire : rt_.wiresInto(*primary_)) {
    wire->oq->setConnectionGating(wire->connId, true);
  }

  retire(std::move(cm_));
  MachineId spare = params_.spareMachine;
  if (params_.planner != nullptr) {
    // Never a quarantined, suspected or down machine, and spread away from
    // the new primary's failure domain.
    spare = chooseStandbyHost();
  } else if (spare != kNoMachine && !cluster().machineUp(spare)) {
    // A dead spare would swallow the deployment work -- the completion
    // callback is lost with the machine and the promotion wedges with
    // `promoting_` stuck. Degrade to a local store instead.
    spare = kNoMachine;
  }
  if (spare == kNoMachine) {
    runUnprotected();
    promoting_ = false;
    switched_ = false;
    return;
  }
  if (reprovisionEnabled()) {
    // Crash coverage for the deployment window: if the spare dies before
    // the callback runs, assessLoss() re-chooses instead of wedging.
    rebuild_target_ = spare;
    watchMachine(spare);
  }
  // Stand up a fresh standby on the spare machine (full deployment cost),
  // then resume checkpointing against it.
  cluster().machine(spare).submitData(Runtime::kDeployWorkUs,
                                      [this, spare] {
                                        standUpStandby(spare);
                                        params_.spareMachine = kNoMachine;
                                        promoting_ = false;
                                        switched_ = false;
                                      });
}

void HybridCoordinator::armFailStop() {
  failstop_timer_ = sim().schedule(params_.failStopAfter, [this] {
    if (switched_ && !promoting_) promote();
  });
}

MachineId HybridCoordinator::chooseStandbyHost() {
  PlacementPlanner::Request request;
  request.avoidMachines.push_back(primary_->machine().id());
  if (damper_.quarantined() != kNoMachine) {
    request.avoidMachines.push_back(damper_.quarantined());
  }
  request.preferDisjointFrom.push_back(primary_->machine().id());
  return params_.planner->choose(request);
}

void HybridCoordinator::standUpStandby(MachineId host) {
  replaceStore(cluster().machine(host));
  params_.standbyMachine = host;
  // Pre-deployed even when the predeploySecondary ablation is off.
  predeploySecondary(host);
  seedRebuiltStore();
  startCheckpointing();
  installDetector(host, primary_->machine());
  rebuild_target_ = kNoMachine;
}

void HybridCoordinator::runUnprotected() {
  replaceStore(primary_->machine());
  seedRebuiltStore();
  startCheckpointing();
  retire(std::move(detector_));
}

}  // namespace streamha
