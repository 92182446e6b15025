#include "ha/passive_standby.hpp"

#include <cassert>

#include "common/logging.hpp"

namespace streamha {

void PassiveStandbyCoordinator::setup() {
  primary_ = rt_.instanceOf(subjob_, Replica::kPrimary);
  assert(primary_ != nullptr && "deploy primaries before HA setup");
  standby_machine_ = params_.standbyMachine;
  assert(standby_machine_ != kNoMachine);

  primary_->setAckPolicy(AckPolicy::kOnCheckpoint);
  replaceStore(cluster().machine(standby_machine_));
  startCheckpointing();
  installDetector(standby_machine_, primary_->machine());
}

void PassiveStandbyCoordinator::installDetector(MachineId monitor,
                                                Machine& target) {
  retire(std::move(detector_));
  FailureDetector::Callbacks callbacks;
  callbacks.onFailure = [this](SimTime t) { onFailure(t); };
  detector_ = startDetector(cluster().machine(monitor), target,
                            std::move(callbacks));
}

void PassiveStandbyCoordinator::onFailure(SimTime detectedAt) {
  if (recovering_) return;
  recovering_ = true;
  // Fence the abandoned primary's checkpoint pipeline: from this point no
  // further acks may advance upstream trim points past the state the standby
  // is about to restore.
  cm_->stop();
  const std::size_t idx =
      openIncident(TraceEventType::kSwitchoverBegin, detectedAt,
                   primary_->machine().id(), standby_machine_);
  LOG_INFO(sim().now(), "ps") << "failure declared for subjob " << subjob_
                              << "; deploying on machine " << standby_machine_;

  // "New output" for recovery timing means output beyond the position the
  // failed copy had reached when the failure was declared.
  const ElementSeq baseline = primary_->lastPe().output(0).nextSeq();

  // Full on-demand deployment on the standby machine.
  Machine& standby = cluster().machine(standby_machine_);
  standby.submitData(Runtime::kDeployWorkUs, [this, idx, baseline] {
    Subjob& copy = rt_.instantiate(subjob_, standby_machine_,
                                   Replica::kSecondary);
    copy.setAckPolicy(AckPolicy::kOnCheckpoint);
    const SubjobState state = store_->latest(subjob_);
    copy.applyState(state);
    markRedeployDone(idx, standby_machine_);
    watchFirstOutput(copy, idx, baseline);
    // Establish connections on demand (control round-trips + CPU), then
    // reposition and activate them.
    rt_.wireInstanceWithCost(
        copy, Runtime::WireOpts{false, false}, Runtime::WireOpts{false, false},
        [this, &copy, state, idx] {
          markConnectionsReady(idx, copy.machine().id());
          rt_.activateRestoredInstance(copy, state);
          finishMigration(copy, idx);
        });
  });
}

void PassiveStandbyCoordinator::finishMigration(Subjob& copy,
                                                std::size_t timelineIdx) {
  Subjob* old = primary_;
  const MachineId oldMachine = old->machine().id();
  // PS migration is permanent: the restored copy takes over the primary role.
  recordIncidentEvent(TraceEventType::kPromotion,
                      timelineIdx < recoveries_.size()
                          ? recoveries_[timelineIdx].incidentId
                          : 0,
                      copy.machine().id(), oldMachine);

  // Upstream stops feeding and waiting on the old copy immediately (these
  // are actions on the healthy upstream machines).
  rt_.isolateInstance(*old);

  // The old copy itself is told to terminate via a reliable control message
  // -- it lands whenever the stalled machine gets around to it (retried if
  // lost). Until then the old copy may keep producing from its backlog;
  // downstream dedup drops it. A crashed machine never gets the message, so
  // its copy is terminated and unwired now: otherwise the downstream
  // consumer would keep acking the dead copy.
  if (!old->machine().isUp()) {
    old->terminateAll();
    rt_.removeWiresOf(*old);
  } else {
    net().sendReliable(copy.machine().id(), oldMachine, MsgKind::kControl,
                       Runtime::kControlMsgBytes, 0, [this, old] {
                         old->terminateAll();
                         rt_.removeWiresOf(*old);
                       });
  }

  // Role swap: the old primary machine becomes the new standby.
  primary_ = &copy;
  standby_machine_ = oldMachine;
  primary_->startAckTimer();

  replaceStore(cluster().machine(standby_machine_));
  startCheckpointing();
  installDetector(standby_machine_, primary_->machine());
  recovering_ = false;
  LOG_INFO(sim().now(), "ps") << "migration complete; subjob " << subjob_
                              << " now on machine " << copy.machine().id()
                              << ", standby " << standby_machine_;
}

}  // namespace streamha
