#include "ha/active_standby.hpp"

#include <cassert>

#include "common/logging.hpp"

namespace streamha {

void ActiveStandbyCoordinator::setup() {
  primary_ = rt_.instanceOf(subjob_, Replica::kPrimary);
  assert(primary_ != nullptr && "deploy primaries before HA setup");
  assert(params_.standbyMachine != kNoMachine);

  // Both copies process everything and ack as they process.
  primary_->setAckPolicy(AckPolicy::kOnProcess);
  secondary_ = &rt_.instantiate(subjob_, params_.standbyMachine,
                                Replica::kSecondary);
  secondary_->setAckPolicy(AckPolicy::kOnProcess);
  // All channels active and gating: upstream queues retain data until BOTH
  // copies have consumed it; downstream dedups whatever arrives second.
  rt_.wireInstance(*secondary_, Runtime::WireOpts{true, true},
                   Runtime::WireOpts{true, true});
  secondary_->startAckTimer();
  installDetectors();
}

void ActiveStandbyCoordinator::installDetectors() {
  retire(std::move(detector_));
  retire(std::move(detector2_));
  // Each copy's machine watches the other copy.
  auto watch = [this](Subjob& monitor, Subjob& target, Replica which) {
    FailureDetector::Callbacks callbacks;
    callbacks.onFailure = [this, which](SimTime t) { onCopyFailure(which, t); };
    return startDetector(monitor.machine(), target.machine(),
                         std::move(callbacks));
  };
  detector_ = watch(*secondary_, *primary_, Replica::kPrimary);
  detector2_ = watch(*primary_, *secondary_, Replica::kSecondary);
}

void ActiveStandbyCoordinator::onCopyFailure(Replica which,
                                             SimTime detectedAt) {
  if (replacing_) return;
  // AS deliberately does nothing about transient unavailability -- the other
  // copy carries the traffic. Only sustained silence becomes a replacement.
  LOG_INFO(sim().now(), "as") << "copy " << toString(which) << " of subjob "
                              << subjob_ << " unresponsive at "
                              << toMillis(detectedAt) << "ms";
  if (params_.spareMachine == kNoMachine) return;
  if (failstop_timer_.pending()) return;
  failstop_timer_ = sim().schedule(params_.failStopAfter, [this, which] {
    FailureDetector* det =
        which == Replica::kPrimary ? detector_.get() : detector2_.get();
    if (det != nullptr && det->failed() && !replacing_) replaceCopy(which);
  });
}

void ActiveStandbyCoordinator::replaceCopy(Replica which) {
  replacing_ = true;
  Subjob* dead = which == Replica::kPrimary ? primary_ : secondary_;
  Subjob* survivor = which == Replica::kPrimary ? secondary_ : primary_;
  const MachineId spare = params_.spareMachine;
  LOG_INFO(sim().now(), "as") << "replacing " << toString(which)
                              << " copy of subjob " << subjob_
                              << " on spare machine " << spare;

  const std::size_t idx =
      openIncident(TraceEventType::kSwitchoverBegin, sim().now(),
                   dead->machine().id(), spare);
  tearDown(*dead);

  cluster().machine(spare).submitData(
      Runtime::kDeployWorkUs, [this, which, survivor, spare, idx] {
        Subjob& copy = rt_.instantiate(subjob_, spare, which);
        copy.setAckPolicy(AckPolicy::kOnProcess);
        markRedeployDone(idx, spare);
        if (which == Replica::kPrimary) {
          primary_ = &copy;
        } else {
          secondary_ = &copy;
        }
        params_.spareMachine = kNoMachine;  // Spare consumed.
        // AS has no checkpoints: read a consistent state (including pending
        // input) from the surviving copy.
        quiescer_.quiesce(*survivor, [this, &copy, survivor, spare, idx] {
          SubjobState state = survivor->captureState(true, true);
          const MachineId from = survivor->machine().id();
          net().sendReliable(
              from, spare, MsgKind::kStateRead, state.sizeBytes(),
              state.sizeElements(),
              [this, &copy, survivor, state, idx] {
                quiescer_.release();
                const ElementSeq baseline =
                    survivor->lastPe().output(0).nextSeq();
                copy.applyState(state);
                watchFirstOutput(copy, idx, baseline);
                rt_.wireInstanceWithCost(
                    copy, Runtime::WireOpts{false, false},
                    Runtime::WireOpts{false, false},
                    [this, &copy, state, idx] {
                      markConnectionsReady(idx, copy.machine().id());
                      rt_.activateRestoredInstance(copy, state);
                      copy.startAckTimer();
                      installDetectors();
                      replacing_ = false;
                    });
              });
        });
      });
}

}  // namespace streamha
