// Switchover flap damping and degraded-node quarantine (gray-failure
// resilience for the Hybrid coordinator; not part of the paper).
//
// A gray primary -- slow, jittery, but not dead -- makes first-miss
// detection oscillate: switchover -> primary limps back -> rollback ->
// switchover again, paying retransmission and state-read cost every cycle.
// FlapDamper is the bookkeeping behind the three decisions the coordinator
// makes about such a node (ha/hybrid.cpp):
//
//   * holdoff   -- onFailure waits `switchoverHoldoff` and re-checks the
//                  detector when the primary already cycled in the window;
//   * quarantine -- onRecovery promotes the secondary permanently instead of
//                  rolling back once `maxCycles` cycles complete in the window;
//   * re-admission -- after `quarantineFor`, probe pings to the quarantined
//                  node; `readmitStreak` healthy replies in a row lift it.
//
// The damper owns the cycle window, the one-quarantine-at-a-time slot, the
// re-admission probe chain with its epoch, and the flap/quarantine/
// re-admission counters. Everything is off by default: a default FlapDamping
// changes no behavior.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/types.hpp"
#include "detect/detector.hpp"

namespace streamha {

class HaCoordinator;

struct FlapDamping {
  bool enabled = false;
  /// Completed switchover<->rollback cycles tolerated inside `cycleWindow`
  /// before the next recovery quarantines instead of rolling back.
  int maxCycles = 1;
  SimDuration cycleWindow = 15 * kSecond;
  /// Quarantine length before re-admission probing starts.
  SimDuration quarantineFor = 60 * kSecond;
  /// Consecutive healthy probe replies (one per heartbeat interval) required
  /// to re-admit.
  int readmitStreak = 3;
  /// Optional switchover hysteresis: when a cycle already happened inside
  /// `cycleWindow`, delay acting on a new failure declaration by this much
  /// and re-confirm the detector still says failed. 0 = act immediately
  /// (the paper's first-miss policy).
  SimDuration switchoverHoldoff = 0;
};

class FlapDamper {
 public:
  /// Damps `coordinator`: its incidents carry the quarantine events and its
  /// primary's machine sends the re-admission probes, one heartbeat round
  /// trip every `probeInterval`. `onReadmit` runs when a quarantined machine
  /// is re-admitted.
  FlapDamper(HaCoordinator& coordinator, Cluster& cluster, FlapDamping params,
             SimDuration probeInterval,
             std::function<void(MachineId)> onReadmit);

  const FlapDamping& params() const { return params_; }

  /// True when onFailure should hold off: a holdoff is configured and
  /// `primary` already completed a cycle inside the window ending at `now`.
  bool holdoffApplies(MachineId primary, SimTime now) const;
  /// Record one completed (or aborted) switchover<->rollback cycle against
  /// `primary` (no-op when damping is off).
  void noteCycle(MachineId primary, SimTime at);
  /// True when this recovery verdict should quarantine `primary` instead of
  /// rolling back: damping on, the slot free, and `maxCycles` cycles inside
  /// the window.
  bool shouldQuarantine(MachineId primary, SimTime now) const;
  /// Take the quarantine slot for `victim`: count the flap, record
  /// kFlapDetected + kQuarantineBegin against `incident` (with `peer`, the
  /// secondary taking over) and clear the cycle window.
  void quarantine(MachineId victim, MachineId peer, std::uint64_t incident,
                  SimTime now);
  /// Start the re-admission clock: probing begins after `quarantineFor`.
  void startReadmission();

  /// The machine currently quarantined (kNoMachine when none).
  MachineId quarantined() const { return quarantined_; }
  std::uint64_t flapsDetected() const { return flaps_detected_; }
  std::uint64_t quarantines() const { return quarantines_; }
  std::uint64_t readmissions() const { return readmissions_; }

 private:
  /// Completed cycles against `primary` inside the window ending at `now`.
  int cyclesInWindow(MachineId primary, SimTime now) const;
  void scheduleProbe(SimDuration delay);
  /// One probe ping, judged against the heartbeat interval; re-arms itself
  /// until the streak is reached.
  void probe();
  void readmit();
  /// The machine probes leave from: the coordinator's current primary's.
  MachineId monitor() const;

  HaCoordinator& coordinator_;
  Cluster& cluster_;
  FlapDamping params_;
  SimDuration probe_interval_;
  std::function<void(MachineId)> on_readmit_;
  /// Completion times of recent cycles against `cycle_machine_` (pruned to
  /// the damping window).
  std::vector<SimTime> cycle_times_;
  MachineId cycle_machine_ = kNoMachine;
  MachineId quarantined_ = kNoMachine;
  int probe_streak_ = 0;
  std::uint64_t probe_epoch_ = 0;  ///< Invalidates stale probe replies.
  std::uint64_t flaps_detected_ = 0;
  std::uint64_t quarantines_ = 0;
  std::uint64_t readmissions_ = 0;
};

}  // namespace streamha
