// Hybrid coordinator, beyond paper Section IV: domain-loss re-provisioning,
// the standby redeploy after a standby-only loss, and the membership drain.
// All of it is active only with a placement planner (HaParams::planner).
#include "ha/hybrid.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace streamha {

// ---------------------------------------------------------------------------
// Domain-loss recovery (place/): when a correlated burst kills the machines
// hosting primary AND secondary together, no detector path can help -- the
// monitor died with the standby. The coordinator instead watches the hosting
// machines directly, classifies what a crash burst took out, and either
// re-provisions a fresh primary from the last confirmed checkpoint
// (both-dead) or stands a fresh standby up (standby-only loss). Safety rests
// on the queue-trim invariant: removing both dead copies' wires leaves their
// upstream queues with zero gating connections, and a queue with no gating
// consumers retains everything -- so the replacement can always replay from
// its checkpoint watermark.
// ---------------------------------------------------------------------------

namespace {

/// Wait after a watched machine crashes before classifying the loss, so a
/// staggered burst is assessed once, in full.
constexpr SimDuration kLossConfirm = 500 * kMillisecond;
/// Retry period when the planner pool is exhausted mid-recovery.
constexpr SimDuration kReprovisionRetry = 1 * kSecond;

}  // namespace

void HybridCoordinator::watchMachine(MachineId machine) {
  if (!reprovisionEnabled() || machine == kNoMachine) return;
  if (!watched_machines_.insert(machine).second) return;
  cluster().machine(machine).addCrashListener([this] {
    onWatchedMachineCrash();
  });
}

void HybridCoordinator::onWatchedMachineCrash() {
  // Coalesce: a burst staggers its kills, and classifying after the first
  // crash would mistake a budding domain loss for a plain primary failure.
  if (assess_pending_) return;
  assess_pending_ = true;
  sim().schedule(kLossConfirm, [this] { assessLoss(); });
}

void HybridCoordinator::assessLoss() {
  assess_pending_ = false;
  const bool primaryAlive = primary_ != nullptr && primary_->alive();
  if (reprovisioning_) {
    if (reprovision_target_ != kNoMachine &&
        !cluster().machineUp(reprovision_target_)) {
      // The chosen replacement died mid-flight: invalidate its pending
      // callbacks, tear down any partial copy and re-choose.
      ++place_epoch_;
      ++reprovision_retries_;
      if (primary_ != nullptr &&
          primary_->machine().id() == reprovision_target_) {
        tearDown(*primary_);
      }
      reprovision_target_ = kNoMachine;
      deployReplacement();
    }
    return;
  }
  if (rebuild_reason_ != RebuildReason::kNone) {
    if (rebuild_target_ != kNoMachine &&
        !cluster().machineUp(rebuild_target_)) {
      // The standby rebuild target died before its deployment finished.
      ++place_epoch_;
      ++reprovision_retries_;
      rebuild_target_ = kNoMachine;
      rebuildStandby();
    }
    return;
  }
  if (promoting_ && primaryAlive && rebuild_target_ != kNoMachine &&
      !cluster().machineUp(rebuild_target_)) {
    // The promotion's spare died during its deployment -- the completion
    // callback is gone. Un-wedge and rebuild protection from scratch.
    ++place_epoch_;
    ++reprovision_retries_;
    rebuild_target_ = kNoMachine;
    promoting_ = false;
    switched_ = false;
    redeployStandby();
    return;
  }
  const bool secondaryDead = secondary_ != nullptr && !secondary_->alive();
  const bool standbyHostDown = params_.standbyMachine != kNoMachine &&
                               !cluster().machineUp(params_.standbyMachine);
  if (!primaryAlive && (secondary_ == nullptr || secondaryDead)) {
    beginDomainLossRecovery();
    return;
  }
  if (primaryAlive && !promoting_ &&
      (secondaryDead || (secondary_ == nullptr && standbyHostDown))) {
    redeployStandby();
    return;
  }
  // Primary dead, secondary alive: the ordinary detector -> switchover ->
  // fail-stop promotion path owns this case.
}

void HybridCoordinator::beginDomainLossRecovery() {
  ++domain_losses_;
  ++place_epoch_;
  reprovisioning_ = true;
  failstop_timer_.cancel();
  holdoff_pending_ = false;
  rebuild_target_ = kNoMachine;

  const MachineId deadPrimaryM =
      primary_ != nullptr ? primary_->machine().id() : kNoMachine;
  const MachineId deadStandbyM = params_.standbyMachine;

  // Snapshot the last *confirmed* checkpoint before retiring the store. The
  // store object models durably replicated checkpoint bytes -- they survive
  // the standby machine, which is exactly what re-provisioning needs (cf.
  // the paper's Section VII persist-to-disk discussion).
  reprovision_state_ = store_ != nullptr ? store_->latest(subjob_)
                                         : SubjobState{};
  reprovision_baseline_ = 0;
  if (primary_ != nullptr) {
    reprovision_baseline_ = primary_->lastPe().output(0).nextSeq();
  }
  if (secondary_ != nullptr) {
    reprovision_baseline_ = std::max(
        reprovision_baseline_, secondary_->lastPe().output(0).nextSeq());
  }

  reprovision_timeline_ = openIncident(TraceEventType::kDomainLoss,
                                       sim().now(), deadPrimaryM, deadStandbyM);
  current_timeline_ = reprovision_timeline_;
  LOG_INFO(sim().now(), "hybrid")
      << "domain loss for subjob " << subjob_ << ": primary (machine "
      << deadPrimaryM << ") and standby (machine " << deadStandbyM
      << ") down together; re-provisioning from checkpoint";

  // Tear both dead copies down. Their gating connections disappear with the
  // wires; an upstream queue left with no gating consumers retains
  // everything (stream/queues.cpp), so nothing can be trimmed before the
  // replacement re-wires and replays.
  quiescer_.release();  // Cancels any rollback quiesce pending on the dead copy.
  if (secondary_ != nullptr) {
    tearDown(*secondary_);
    secondary_ = nullptr;
  }
  if (primary_ != nullptr) tearDown(*primary_);
  if (store_ != nullptr) store_->detachReplica(subjob_);
  retire(std::move(cm_));
  retire(std::move(detector_));
  retire(std::move(store_));
  switched_ = false;
  promoting_ = false;
  resume_in_flight_ = false;

  deployReplacement();
}

void HybridCoordinator::deployReplacement() {
  PlacementPlanner::Request request;
  for (const MachineId watched : watched_machines_) {
    if (!cluster().machineUp(watched)) {
      // Spread away from everything the burst just proved correlated.
      request.avoidMachines.push_back(watched);
      request.preferDisjointFrom.push_back(watched);
    }
  }
  const MachineId target = params_.planner->choose(request);
  const std::uint64_t epoch = place_epoch_;
  if (target == kNoMachine) {
    // Pool exhausted; keep the retained upstream queues and retry.
    ++reprovision_retries_;
    sim().schedule(kReprovisionRetry, [this, epoch] {
      if (epoch != place_epoch_ || !reprovisioning_) return;
      deployReplacement();
    });
    return;
  }
  reprovision_target_ = target;
  watchMachine(target);
  recordIncidentEvent(TraceEventType::kReprovisionBegin,
                      recoveries_[reprovision_timeline_].incidentId,
                      primary_ != nullptr ? primary_->machine().id()
                                          : kNoMachine,
                      target, reprovision_state_.sizeBytes());
  cluster().machine(target).submitData(
      Runtime::kDeployWorkUs, [this, epoch, target] {
        if (epoch != place_epoch_ || !reprovisioning_) return;
        activateReplacement(target);
      });
}

void HybridCoordinator::activateReplacement(MachineId target) {
  primary_ = &rt_.instantiate(subjob_, target, Replica::kPrimary);
  primary_->setAckPolicy(AckPolicy::kOnCheckpoint);
  markRedeployDone(reprovision_timeline_, target);
  const std::uint64_t epoch = place_epoch_;
  rt_.wireInstanceWithCost(
      *primary_, Runtime::WireOpts{false, false},
      Runtime::WireOpts{false, false}, [this, epoch] {
        if (epoch != place_epoch_ || !reprovisioning_) return;
        primary_->applyState(reprovision_state_);
        markConnectionsReady(reprovision_timeline_, primary_->machine().id());
        watchFirstOutput(*primary_, reprovision_timeline_,
                         reprovision_baseline_);
        // Inbound wires rewind to the checkpoint watermarks and replay the
        // retained upstream queues; outbound duplicates below the baseline
        // are absorbed by downstream dedup.
        rt_.activateRestoredInstance(*primary_, reprovision_state_);
        ++reprovisions_;
        reprovision_target_ = kNoMachine;
        rebuild_reason_ = RebuildReason::kAfterReprovision;
        rebuild_carry_ = reprovision_state_;
        rebuildStandby();
      });
}

void HybridCoordinator::noteMemberLeft(MachineId machine) {
  // Graceful retirement and lease expiry drain the same way; the membership
  // service traces which one it was.
  if (machine != params_.standbyMachine) return;
  // Mid-incident the secondary is (or is becoming) the live copy -- the
  // assessLoss/promote machinery owns it; don't tear it down underneath.
  if (switched_ || promoting_) return;
  redeployStandby();
}

void HybridCoordinator::redeployStandby() {
  if (!reprovisionEnabled() || reprovisioning_ ||
      rebuild_reason_ != RebuildReason::kNone || promoting_) {
    return;
  }
  if (primary_ == nullptr || !primary_->alive()) return;
  ++place_epoch_;
  failstop_timer_.cancel();
  holdoff_pending_ = false;
  quiescer_.release();
  if (secondary_ != nullptr) {
    tearDown(*secondary_);
    secondary_ = nullptr;
  }
  if (store_ != nullptr) {
    store_->detachReplica(subjob_);
    rebuild_carry_ = store_->latest(subjob_);
  }
  retire(std::move(cm_));
  retire(std::move(detector_));
  retire(std::move(store_));
  switched_ = false;
  resume_in_flight_ = false;
  rebuild_reason_ = RebuildReason::kStandbyLoss;
  rebuildStandby();
}

void HybridCoordinator::rebuildStandby() {
  const MachineId target = chooseStandbyHost();
  const std::uint64_t epoch = place_epoch_;
  if (target == kNoMachine) {
    // Degraded: checkpoint locally so the job keeps running unprotected.
    params_.standbyMachine = kNoMachine;
    runUnprotected();
    onStandbyRebuilt(kNoMachine, /*degraded=*/true);
    return;
  }
  rebuild_target_ = target;
  watchMachine(target);
  cluster().machine(target).submitData(
      Runtime::kDeployWorkUs, [this, epoch, target] {
        if (epoch != place_epoch_ ||
            rebuild_reason_ == RebuildReason::kNone) {
          return;
        }
        standUpStandby(target);
        onStandbyRebuilt(target, /*degraded=*/false);
      });
}

void HybridCoordinator::seedRebuiltStore() {
  // The swap must not lose durable ground: acks for the carried checkpoint
  // were already released upstream, so if the primary dies before the fresh
  // checkpoint manager confirms its first checkpoint, promotion/re-provision
  // would otherwise restore an *empty* state against already-trimmed queues
  // -- an unrecoverable gap. Seeding also refreshes the attached suspended
  // copy's PE memory.
  if (rebuild_carry_.empty()) return;
  store_->storeSubjobState(rebuild_carry_, [] {});
}

void HybridCoordinator::onStandbyRebuilt(MachineId standby, bool degraded) {
  const RebuildReason reason = rebuild_reason_;
  rebuild_reason_ = RebuildReason::kNone;
  rebuild_carry_ = SubjobState{};
  if (reason == RebuildReason::kAfterReprovision) {
    recordIncidentEvent(TraceEventType::kReprovisionEnd,
                        recoveries_[reprovision_timeline_].incidentId,
                        primary_->machine().id(), standby,
                        degraded ? 1 : 0);
    reprovisioning_ = false;
    LOG_INFO(sim().now(), "hybrid")
        << "re-provisioned subjob " << subjob_ << " on machine "
        << primary_->machine().id()
        << (degraded ? " (degraded: no standby)" : "");
  } else {
    ++standby_redeploys_;
    LOG_INFO(sim().now(), "hybrid")
        << "redeployed standby of subjob " << subjob_ << " on machine "
        << standby << (degraded ? " (degraded: no standby)" : "");
  }
}

}  // namespace streamha
