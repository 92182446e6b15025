#include "membership/membership.hpp"

#include "cluster/cluster.hpp"
#include "trace/recorder.hpp"

namespace streamha {
namespace {

constexpr std::size_t kBeaconBytes = 48;

}  // namespace

MembershipTelemetry& MembershipTelemetry::operator+=(
    const MembershipTelemetry& other) {
  joins += other.joins;
  warmUps += other.warmUps;
  leaseExpiries += other.leaseExpiries;
  retirements += other.retirements;
  beaconsSent += other.beaconsSent;
  beaconsDelivered += other.beaconsDelivered;
  rosterSize += other.rosterSize;
  return *this;
}

MembershipService::MembershipService(Cluster& cluster, Params params)
    : cluster_(cluster), params_(params) {}

bool MembershipService::isWarm(MachineId machine) const {
  const auto it = roster_.find(machine);
  return it != roster_.end() && it->second.warm;
}

std::vector<MachineId> MembershipService::roster() const {
  std::vector<MachineId> out;
  out.reserve(roster_.size());
  for (const auto& [machine, member] : roster_) out.push_back(machine);
  return out;
}

void MembershipService::recordEvent(TraceEventType type, MachineId machine,
                                    std::uint64_t value) {
  TraceRecorder* trace = cluster_.network().trace();
  if (trace == nullptr) return;
  TraceEvent ev;
  ev.type = type;
  ev.at = cluster_.sim().now();
  ev.machine = machine;
  ev.peer = params_.directory;
  ev.value = value;
  trace->record(ev);
}

void MembershipService::addFoundingMember(MachineId machine) {
  Member& member = roster_[machine];
  member.expiry = cluster_.sim().now() + params_.leaseDuration;
  member.lastRefresh = cluster_.sim().now();
  member.refreshGen = 1;
  member.joinGen = ++join_counter_;
  member.warm = true;
  scheduleExpiryCheck(machine, member.refreshGen);
  startBeacon(machine);
}

void MembershipService::startBeacon(MachineId machine) {
  auto& active = beacon_active_[machine];
  if (active) return;
  active = true;
  // Deterministic per-machine phase (pure arithmetic, no RNG) so a mass join
  // never lands every first beacon on the same instant.
  const SimDuration phase =
      (static_cast<SimDuration>(machine) % 8 + 1) * kMillisecond;
  scheduleBeacon(machine, phase);
}

void MembershipService::stopBeacon(MachineId machine) {
  beacon_active_[machine] = false;
}

void MembershipService::scheduleBeacon(MachineId machine, SimDuration delay) {
  cluster_.sim().schedule(delay, [this, machine] {
    if (!beacon_active_[machine]) return;
    // A down machine announces nothing, but the loop keeps ticking: after a
    // restart the next tick re-announces and the machine re-joins on its own.
    if (cluster_.machineUp(machine)) {
      telemetry_.beaconsSent += 1;
      cluster_.network().send(machine, params_.directory, MsgKind::kBeacon,
                              kBeaconBytes, 0,
                              [this, machine] { onBeaconDelivered(machine); });
    }
    scheduleBeacon(machine, params_.beaconInterval);
  });
}

void MembershipService::onBeaconDelivered(MachineId machine) {
  telemetry_.beaconsDelivered += 1;
  const auto it = roster_.find(machine);
  if (it == roster_.end()) {
    admit(machine);
  } else {
    refresh(machine, it->second);
  }
}

void MembershipService::admit(MachineId machine) {
  Member& member = roster_[machine];
  member.expiry = cluster_.sim().now() + params_.leaseDuration;
  member.lastRefresh = cluster_.sim().now();
  member.refreshGen = 1;
  member.joinGen = ++join_counter_;
  member.warm = false;
  telemetry_.joins += 1;
  recordEvent(TraceEventType::kMachineJoined, machine,
              static_cast<std::uint64_t>(params_.leaseDuration));
  scheduleExpiryCheck(machine, member.refreshGen);
  const std::uint64_t joinGen = member.joinGen;
  cluster_.sim().schedule(params_.warmUp, [this, machine, joinGen] {
    const auto it = roster_.find(machine);
    if (it == roster_.end() || it->second.joinGen != joinGen) return;
    if (it->second.warm) return;
    it->second.warm = true;
    telemetry_.warmUps += 1;
    if (listener_.onWarmedUp) listener_.onWarmedUp(machine);
  });
  if (listener_.onJoined) listener_.onJoined(machine);
}

void MembershipService::refresh(MachineId machine, Member& member) {
  member.expiry = cluster_.sim().now() + params_.leaseDuration;
  member.lastRefresh = cluster_.sim().now();
  member.refreshGen += 1;
  scheduleExpiryCheck(machine, member.refreshGen);
}

void MembershipService::scheduleExpiryCheck(MachineId machine,
                                            std::uint64_t gen) {
  const auto it = roster_.find(machine);
  if (it == roster_.end()) return;
  const SimDuration delay = it->second.expiry - cluster_.sim().now() + 1;
  cluster_.sim().schedule(delay, [this, machine, gen] {
    const auto memberIt = roster_.find(machine);
    if (memberIt == roster_.end()) return;
    if (memberIt->second.refreshGen != gen) return;  // A refresh superseded us.
    if (cluster_.sim().now() < memberIt->second.expiry) return;
    if (!cluster_.machineUp(params_.directory)) {
      // The lease table's host is down; nobody can adjudicate expiry. Try
      // again a lease later (same generation: a refresh still supersedes).
      cluster_.sim().schedule(params_.leaseDuration, [this, machine, gen] {
        const auto it2 = roster_.find(machine);
        if (it2 == roster_.end() || it2->second.refreshGen != gen) return;
        evict(machine, LeaveReason::kLeaseExpiry);
      });
      return;
    }
    evict(machine, LeaveReason::kLeaseExpiry);
  });
}

void MembershipService::retire(MachineId machine) {
  stopBeacon(machine);
  if (roster_.count(machine) == 0) return;
  // The departure announce must not get lost -- it rides the reliable path.
  cluster_.network().sendReliable(
      machine, params_.directory, MsgKind::kBeacon, kBeaconBytes, 0,
      [this, machine] {
        if (roster_.count(machine) == 0) return;
        recordEvent(TraceEventType::kMachineRetired, machine, 0);
        evict(machine, LeaveReason::kRetired);
      });
}

void MembershipService::evict(MachineId machine, LeaveReason reason) {
  const auto it = roster_.find(machine);
  if (it == roster_.end()) return;
  if (reason == LeaveReason::kLeaseExpiry) {
    telemetry_.leaseExpiries += 1;
    recordEvent(TraceEventType::kLeaseExpired, machine,
                static_cast<std::uint64_t>(cluster_.sim().now() -
                                           it->second.lastRefresh));
  } else {
    telemetry_.retirements += 1;
  }
  recordEvent(TraceEventType::kMachineLeft, machine,
              static_cast<std::uint64_t>(reason));
  roster_.erase(it);
  if (listener_.onLeft) listener_.onLeft(machine, reason);
}

}  // namespace streamha
