// Active standby (AS).
//
// Two copies of the subjob run independently on different machines; both
// receive every input and both send every output to every downstream copy
// ("both the primary and the secondary send two copies of each message to
// the two downstream subjobs, leading to a 4X increase of traffic" when the
// whole job is protected). Downstream input queues eliminate duplicates by
// (stream, seq). Transient failures need no action: the downstream uses
// whichever copy's data arrives first.
//
// Fail-stop events replace the dead copy: after `failStopAfter` of continued
// unresponsiveness, a fresh copy is deployed on the spare machine and
// initialized from the surviving copy's state (AS keeps no checkpoints, so a
// consistent state must be read from the live peer).
#pragma once

#include "ha/coordinator.hpp"

namespace streamha {

class ActiveStandbyCoordinator : public HaCoordinator {
 public:
  using HaCoordinator::HaCoordinator;

  void setup() override;
  HaMode mode() const override { return HaMode::kActiveStandby; }

 private:
  void installDetectors();
  void onCopyFailure(Replica which, SimTime detectedAt);
  void replaceCopy(Replica which);

  std::unique_ptr<FailureDetector> detector2_;  ///< Watches the secondary.
  EventHandle failstop_timer_;
  bool replacing_ = false;
  SubjobQuiescer quiescer_;
};

}  // namespace streamha
