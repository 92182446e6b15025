// PlacementPlanner: failure-domain-aware choice of standby / spare /
// migration-target machines from a shared replacement pool.
//
// The planner ranks eligible pool machines by (1) domain separation from the
// machine(s) being protected against, (2) how many copies it already hosts
// (occupancy), (3) instantaneous CPU load, with the machine id as the final
// deterministic tie-break. Quarantined machines (flap-damping verdicts),
// suspected machines (a detector currently declares them failed) and down
// machines are never chosen. Every decision is pure arithmetic over
// simulator state -- no RNG -- so runs stay bit-identical on replay.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "common/types.hpp"
#include "place/domain.hpp"

namespace streamha {

class Cluster;

/// End-of-run placement + domain-loss recovery counters, aggregated into
/// ScenarioResult. All zero when the placement subsystem is disabled,
/// matching the FlowTelemetry / GrayFailureTelemetry idiom.
struct PlacementTelemetry {
  std::uint64_t plannerChoices = 0;       ///< Successful choose() calls.
  std::uint64_t plannerExhausted = 0;     ///< choose() calls with no eligible machine.
  std::uint64_t quarantineRejections = 0; ///< Candidates skipped: quarantined/suspected.
  std::uint64_t sameDomainFallbacks = 0;  ///< Choices that could not leave the rack.
  std::uint64_t domainLosses = 0;         ///< Primary+secondary lost together.
  std::uint64_t reprovisions = 0;         ///< Fresh copies re-provisioned from checkpoint.
  std::uint64_t reprovisionRetries = 0;   ///< Re-provision attempts restarted (target died / pool empty).
  std::uint64_t standbyRedeploys = 0;     ///< Fresh standbys deployed after standby-only loss.

  PlacementTelemetry& operator+=(const PlacementTelemetry& other);
};

class PlacementPlanner {
 public:
  /// What a caller wants placed. `avoidMachines` are hard-excluded (dead
  /// copies, the machine being protected); `preferDisjointFrom` lists the
  /// machines whose failure domains the choice should maximize separation
  /// from (typically the surviving or about-to-be-deployed primary).
  struct Request {
    std::vector<MachineId> avoidMachines;
    std::vector<MachineId> preferDisjointFrom;
  };

  PlacementPlanner(Cluster& cluster, DomainTopology topology, bool domainAware,
                   std::vector<MachineId> pool);

  /// Best eligible pool machine for the request, or kNoMachine when the pool
  /// is exhausted. Successful choices bump the chosen machine's occupancy.
  MachineId choose(const Request& request);

  /// A machine is eligible when it is up, not quarantined and not currently
  /// suspected dead by any detector.
  bool eligible(MachineId machine) const;

  void setQuarantined(MachineId machine, bool quarantined);
  void setSuspected(MachineId machine, bool suspected);

  /// Elastic membership: admit `machine` to the replacement pool at runtime.
  /// With `warm == false` the machine is listed but stays ineligible (the
  /// membership warm-up gate -- a half-joined node must never be drafted)
  /// until setWarm() clears it. Idempotent; a re-join resets occupancy.
  void addPoolMachine(MachineId machine, bool warm = true);
  /// Membership eviction (lease expiry or graceful retirement): the machine
  /// leaves the pool entirely. Idempotent.
  void removePoolMachine(MachineId machine);
  /// Clears the warm-up gate set by addPoolMachine(machine, false).
  void setWarm(MachineId machine);

  /// Records that `machine` hosts one more / one fewer copy, for occupancy
  /// balancing. Layout-time standby assignments call noteAssigned so runtime
  /// choices spread away from them.
  void noteAssigned(MachineId machine);
  void noteReleased(MachineId machine);

  const std::vector<MachineId>& pool() const { return pool_; }
  const DomainTopology& topology() const { return topology_; }
  bool domainAware() const { return domain_aware_; }

  PlacementTelemetry& telemetry() { return telemetry_; }
  const PlacementTelemetry& telemetry() const { return telemetry_; }

  /// Layout-time standby assignment: one pool machine per entry of
  /// `primaries`, spread across failure domains (domain-aware) or taken in
  /// pool order (oblivious baseline). Static and cluster-free so
  /// Scenario::layoutFor can call it before any machine exists. Occupancy is
  /// tracked across the entries so two standbys only share a machine once
  /// the pool is exhausted.
  static std::vector<MachineId> planInitialStandbys(
      const DomainTopology& topology, bool domainAware,
      const std::vector<MachineId>& pool,
      const std::vector<MachineId>& primaries);

 private:
  int occupancyOf(MachineId machine) const;

  Cluster& cluster_;
  DomainTopology topology_;
  bool domain_aware_;
  std::vector<MachineId> pool_;
  std::vector<int> occupancy_;  // Parallel to pool_.
  std::set<MachineId> quarantined_;
  std::set<MachineId> suspected_;
  std::set<MachineId> warming_;  // Joined but not yet draftable.
  PlacementTelemetry telemetry_;
};

}  // namespace streamha
