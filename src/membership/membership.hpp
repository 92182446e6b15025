// Elastic membership: a beacon/lease protocol over the lossy interconnect.
//
// Every participating machine periodically announces itself (a small kBeacon
// message on the plain lossy send path) to a directory machine hosting the
// lease table. The first delivered beacon from an unknown -- or previously
// departed -- machine admits it to the roster (kMachineJoined) and starts a
// warm-up clock; each further beacon refreshes the member's lease. A lease
// that lapses without a refresh evicts the member (kLeaseExpired +
// kMachineLeft), so a crashed or partitioned-away machine leaves the roster
// on its own clock, independently of (and idempotently with) heartbeat-based
// crash detection. A graceful leave (retire) rides the reliable control path
// and evicts immediately (kMachineRetired + kMachineLeft).
//
// Design constraints, matching the rest of the substrate:
//  * Seed-deterministic: no RNG anywhere. Beacon phases are derived from
//    machine ids; all timing is pure arithmetic over Params.
//  * Off-by-default: a scenario that never constructs (or never starts) the
//    service schedules no events, sends no messages and draws nothing --
//    membership-disabled runs are bit-identical to builds without this file.
//  * Listener-decoupled: the service knows nothing about planners,
//    coordinators or schedulers. Scenario wiring decides what a join or a
//    leave means (pool admission after warm-up, standby drains, ...).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/types.hpp"

namespace streamha {

class Cluster;
enum class TraceEventType : std::uint8_t;

/// End-of-run membership counters, aggregated into ScenarioResult. All zero
/// when the subsystem is disabled (the FlowTelemetry / PlacementTelemetry
/// idiom).
struct MembershipTelemetry {
  std::uint64_t joins = 0;          ///< Roster admissions (incl. re-joins).
  std::uint64_t warmUps = 0;        ///< Members that completed warm-up.
  std::uint64_t leaseExpiries = 0;  ///< Evictions by lapsed lease.
  std::uint64_t retirements = 0;    ///< Graceful leaves.
  std::uint64_t beaconsSent = 0;
  std::uint64_t beaconsDelivered = 0;
  std::uint64_t rosterSize = 0;     ///< Members at collection time.

  MembershipTelemetry& operator+=(const MembershipTelemetry& other);
};

class MembershipService {
 public:
  struct Params {
    /// Machine hosting the lease table (the scenario uses the sink machine:
    /// always present, never a chaos-plan crash target).
    MachineId directory = kNoMachine;
    SimDuration beaconInterval = 500 * kMillisecond;
    /// Lease granted/refreshed per delivered beacon. Several beacon intervals
    /// long so isolated beacon losses never evict a live member.
    SimDuration leaseDuration = 2 * kSecond;
    /// Join -> draftable delay: a freshly admitted member is announced
    /// immediately but only declared warmed up (onWarmedUp) after this long.
    SimDuration warmUp = kSecond;
  };

  enum class LeaveReason : std::uint8_t {
    kLeaseExpiry = 0,
    kRetired = 1,
  };

  /// Roster-change callbacks, fired from directory-side processing. All
  /// optional. onJoined fires at admission (before warm-up); onWarmedUp when
  /// the member becomes draftable; onLeft on any eviction.
  struct Listener {
    std::function<void(MachineId)> onJoined;
    std::function<void(MachineId)> onWarmedUp;
    std::function<void(MachineId, LeaveReason)> onLeft;
  };

  MembershipService(Cluster& cluster, Params params);

  void setListener(Listener listener) { listener_ = std::move(listener); }

  /// Register a founding member: in the roster and warm from the start, no
  /// join event, no listener call -- the static layout already accounted for
  /// it. Its beacon starts immediately so its lease stays maintained (and
  /// lapses if the machine crashes).
  void addFoundingMember(MachineId machine);

  /// Start announcing `machine` (the join path: the first delivered beacon
  /// admits it). Idempotent while the beacon is active.
  void startBeacon(MachineId machine);
  /// Go quiet without retiring: the lease lapses on its own. Idempotent.
  void stopBeacon(MachineId machine);
  /// Graceful leave: stop the beacon and announce the departure on the
  /// reliable path; the member is evicted when the announce is delivered.
  void retire(MachineId machine);

  bool isMember(MachineId machine) const { return roster_.count(machine) != 0; }
  bool isWarm(MachineId machine) const;
  std::vector<MachineId> roster() const;

  const Params& params() const { return params_; }
  MembershipTelemetry& telemetry() { return telemetry_; }
  const MembershipTelemetry& telemetry() const { return telemetry_; }

 private:
  struct Member {
    SimTime expiry = 0;
    SimTime lastRefresh = 0;
    /// Bumped per refresh; an expiry check only fires for the generation it
    /// was scheduled against, so refreshed leases invalidate older checks.
    std::uint64_t refreshGen = 0;
    /// Global admission counter value; validates the warm-up timer across
    /// evict/re-join cycles of the same machine id.
    std::uint64_t joinGen = 0;
    bool warm = false;
  };

  void scheduleBeacon(MachineId machine, SimDuration delay);
  void onBeaconDelivered(MachineId machine);
  void admit(MachineId machine);
  void refresh(MachineId machine, Member& member);
  void scheduleExpiryCheck(MachineId machine, std::uint64_t gen);
  void evict(MachineId machine, LeaveReason reason);
  void recordEvent(TraceEventType type, MachineId machine, std::uint64_t value);

  Cluster& cluster_;
  Params params_;
  Listener listener_;
  std::map<MachineId, Member> roster_;
  std::map<MachineId, bool> beacon_active_;
  std::uint64_t join_counter_ = 0;
  MembershipTelemetry telemetry_;
};

}  // namespace streamha
