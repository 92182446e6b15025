#include "ha/flap_damping.hpp"

#include <algorithm>
#include <memory>

#include "common/logging.hpp"
#include "ha/coordinator.hpp"

namespace streamha {

FlapDamper::FlapDamper(HaCoordinator& coordinator, Cluster& cluster,
                       FlapDamping params, SimDuration probeInterval,
                       std::function<void(MachineId)> onReadmit)
    : coordinator_(coordinator),
      cluster_(cluster),
      params_(params),
      probe_interval_(probeInterval),
      on_readmit_(std::move(onReadmit)) {}

MachineId FlapDamper::monitor() const {
  return coordinator_.primary()->machine().id();
}

int FlapDamper::cyclesInWindow(MachineId primary, SimTime now) const {
  if (cycle_machine_ == kNoMachine || cycle_machine_ != primary) return 0;
  const SimTime horizon =
      now > params_.cycleWindow ? now - params_.cycleWindow : 0;
  int count = 0;
  for (const SimTime at : cycle_times_) {
    if (at >= horizon) ++count;
  }
  return count;
}

bool FlapDamper::holdoffApplies(MachineId primary, SimTime now) const {
  return params_.enabled && params_.switchoverHoldoff > 0 &&
         cyclesInWindow(primary, now) > 0;
}

void FlapDamper::noteCycle(MachineId primary, SimTime at) {
  if (!params_.enabled) return;
  if (cycle_machine_ != primary) {
    cycle_times_.clear();
    cycle_machine_ = primary;
  }
  cycle_times_.push_back(at);
  const SimTime horizon =
      at > params_.cycleWindow ? at - params_.cycleWindow : 0;
  cycle_times_.erase(
      std::remove_if(cycle_times_.begin(), cycle_times_.end(),
                     [horizon](SimTime t) { return t < horizon; }),
      cycle_times_.end());
}

bool FlapDamper::shouldQuarantine(MachineId primary, SimTime now) const {
  if (!params_.enabled) return false;
  // One quarantine at a time: while a node sits in quarantine the promoted
  // primary's own troubles follow the normal switchover/rollback path.
  if (quarantined_ != kNoMachine) return false;
  return cyclesInWindow(primary, now) >= params_.maxCycles;
}

void FlapDamper::quarantine(MachineId victim, MachineId peer,
                            std::uint64_t incident, SimTime now) {
  const auto cycles = static_cast<std::uint64_t>(cyclesInWindow(victim, now));
  ++flaps_detected_;
  ++quarantines_;
  coordinator_.recordIncidentEvent(TraceEventType::kFlapDetected, incident,
                                   victim, peer, cycles);
  coordinator_.recordIncidentEvent(
      TraceEventType::kQuarantineBegin, incident, victim, peer, cycles,
      static_cast<std::uint64_t>(params_.quarantineFor));
  LOG_INFO(cluster_.sim().now(), "hybrid")
      << "flap detected on machine " << victim << " (" << cycles
      << " cycles in window); quarantining and promoting secondary of subjob "
      << coordinator_.subjobId();
  quarantined_ = victim;
  cycle_times_.clear();
  cycle_machine_ = kNoMachine;
}

void FlapDamper::startReadmission() {
  probe_streak_ = 0;
  ++probe_epoch_;  // Kill any probe chain from a previous quarantine.
  scheduleProbe(params_.quarantineFor);
}

void FlapDamper::scheduleProbe(SimDuration delay) {
  const std::uint64_t epoch = probe_epoch_;
  cluster_.sim().schedule(delay, [this, epoch] {
    if (epoch != probe_epoch_) return;
    probe();
  });
}

void FlapDamper::probe() {
  if (quarantined_ == kNoMachine) return;
  Machine& machine = cluster_.machine(quarantined_);
  if (!machine.isUp()) {
    // Crashed while quarantined: keep waiting -- re-admission requires the
    // node to come back and then answer a full healthy streak.
    probe_streak_ = 0;
    scheduleProbe(probe_interval_);
    return;
  }
  // One heartbeat round trip to the quarantined node; timeliness is judged
  // against the interval.
  const std::uint64_t epoch = probe_epoch_;
  auto answered = std::make_shared<bool>(false);
  sendProbe(cluster_.sim(), cluster_.network(), monitor(), machine,
            MsgKind::kHeartbeatPing, MsgKind::kHeartbeatReply,
            [answered](const ProbeReading&) { *answered = true; });
  cluster_.sim().schedule(probe_interval_, [this, answered, epoch] {
    if (epoch != probe_epoch_) return;
    if (quarantined_ == kNoMachine) return;
    if (*answered) {
      ++probe_streak_;
      if (probe_streak_ >= params_.readmitStreak) {
        readmit();
        return;
      }
    } else {
      probe_streak_ = 0;
    }
    probe();
  });
}

void FlapDamper::readmit() {
  const MachineId machine = quarantined_;
  quarantined_ = kNoMachine;
  ++readmissions_;
  coordinator_.recordIncidentEvent(TraceEventType::kQuarantineEnd, 0, machine,
                                   monitor(),
                                   static_cast<std::uint64_t>(probe_streak_));
  LOG_INFO(cluster_.sim().now(), "hybrid")
      << "re-admitting machine " << machine << " after " << probe_streak_
      << " healthy probe replies (subjob " << coordinator_.subjobId() << ")";
  on_readmit_(machine);
  probe_streak_ = 0;
  ++probe_epoch_;
}

}  // namespace streamha
