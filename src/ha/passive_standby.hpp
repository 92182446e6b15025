// Passive standby (PS).
//
// The primary checkpoints to a store on the standby machine. A heartbeat
// detector (conventional 3-miss threshold) on the standby machine watches
// the primary. On a declared failure, PS *migrates*: deploy a copy on the
// standby (paying the full deployment cost), restore from the last
// checkpoint, establish connections on demand, ask upstream for
// retransmission, and shut the old copy down. PS never rolls back -- after
// the migration the old primary machine becomes the new standby, so repeated
// transient failures keep bouncing the subjob between the two machines,
// paying detection + redeployment every time (the behaviour Figures 4/7/8
// quantify).
#pragma once

#include "ha/coordinator.hpp"

namespace streamha {

class PassiveStandbyCoordinator : public HaCoordinator {
 public:
  using HaCoordinator::HaCoordinator;

  void setup() override;
  HaMode mode() const override { return HaMode::kPassiveStandby; }

  MachineId currentStandbyMachine() const { return standby_machine_; }
  bool recovering() const { return recovering_; }

 private:
  void onFailure(SimTime detectedAt);
  void finishMigration(Subjob& copy, std::size_t timelineIdx);
  void installDetector(MachineId monitor, Machine& target);

  MachineId standby_machine_ = kNoMachine;
  bool recovering_ = false;
};

}  // namespace streamha
