#include "place/planner.hpp"

#include <algorithm>

#include "cluster/cluster.hpp"
#include "cluster/machine.hpp"

namespace streamha {

PlacementTelemetry& PlacementTelemetry::operator+=(const PlacementTelemetry& other) {
  plannerChoices += other.plannerChoices;
  plannerExhausted += other.plannerExhausted;
  quarantineRejections += other.quarantineRejections;
  sameDomainFallbacks += other.sameDomainFallbacks;
  domainLosses += other.domainLosses;
  reprovisions += other.reprovisions;
  reprovisionRetries += other.reprovisionRetries;
  standbyRedeploys += other.standbyRedeploys;
  return *this;
}

namespace {

/// Worst-case (minimum) separation between `candidate` and any machine in
/// `against`: a standby that shares a rack with ANY protected machine is as
/// exposed as its most-correlated pairing.
DomainSeparation minSeparation(const DomainTopology& topology,
                               MachineId candidate,
                               const std::vector<MachineId>& against) {
  DomainSeparation worst = DomainSeparation::kDisjoint;
  const DomainLabel mine = topology.labelOf(candidate);
  for (const MachineId other : against) {
    const DomainSeparation s = separationOf(mine, topology.labelOf(other));
    if (static_cast<int>(s) < static_cast<int>(worst)) worst = s;
  }
  return worst;
}

}  // namespace

PlacementPlanner::PlacementPlanner(Cluster& cluster, DomainTopology topology,
                                   bool domainAware, std::vector<MachineId> pool)
    : cluster_(cluster),
      topology_(topology),
      domain_aware_(domainAware),
      pool_(std::move(pool)),
      occupancy_(pool_.size(), 0) {}

bool PlacementPlanner::eligible(MachineId machine) const {
  if (!cluster_.machineUp(machine)) return false;
  if (quarantined_.contains(machine)) return false;
  if (suspected_.contains(machine)) return false;
  if (warming_.contains(machine)) return false;
  return true;
}

int PlacementPlanner::occupancyOf(MachineId machine) const {
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    if (pool_[i] == machine) return occupancy_[i];
  }
  return 0;
}

MachineId PlacementPlanner::choose(const Request& request) {
  MachineId best = kNoMachine;
  int bestSeparation = -1;
  int bestOccupancy = 0;
  double bestLoad = 0.0;
  for (const MachineId candidate : pool_) {
    if (std::find(request.avoidMachines.begin(), request.avoidMachines.end(),
                  candidate) != request.avoidMachines.end()) {
      continue;
    }
    if (!cluster_.machineUp(candidate)) continue;
    if (quarantined_.contains(candidate) || suspected_.contains(candidate)) {
      ++telemetry_.quarantineRejections;
      continue;
    }
    // Warm-up gate: a freshly joined member is listed but not draftable
    // until the membership service declares it warmed up.
    if (warming_.contains(candidate)) continue;
    const int separation =
        domain_aware_
            ? static_cast<int>(minSeparation(topology_, candidate,
                                             request.preferDisjointFrom))
            : 0;
    const int occupancy = occupancyOf(candidate);
    const double load = cluster_.machine(candidate).instantaneousLoad();
    const bool better =
        best == kNoMachine || separation > bestSeparation ||
        (separation == bestSeparation &&
         (occupancy < bestOccupancy ||
          (occupancy == bestOccupancy && load < bestLoad)));
    if (better) {
      best = candidate;
      bestSeparation = separation;
      bestOccupancy = occupancy;
      bestLoad = load;
    }
  }
  if (best == kNoMachine) {
    ++telemetry_.plannerExhausted;
    return kNoMachine;
  }
  ++telemetry_.plannerChoices;
  if (domain_aware_ &&
      bestSeparation == static_cast<int>(DomainSeparation::kSameRack) &&
      !request.preferDisjointFrom.empty() && topology_.enabled()) {
    ++telemetry_.sameDomainFallbacks;
  }
  noteAssigned(best);
  return best;
}

void PlacementPlanner::addPoolMachine(MachineId machine, bool warm) {
  if (!warm) warming_.insert(machine);
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    if (pool_[i] == machine) {
      occupancy_[i] = 0;  // Re-join: the previous incarnation's copies died.
      return;
    }
  }
  pool_.push_back(machine);
  occupancy_.push_back(0);
}

void PlacementPlanner::removePoolMachine(MachineId machine) {
  warming_.erase(machine);
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    if (pool_[i] == machine) {
      pool_.erase(pool_.begin() + static_cast<std::ptrdiff_t>(i));
      occupancy_.erase(occupancy_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

void PlacementPlanner::setWarm(MachineId machine) { warming_.erase(machine); }

void PlacementPlanner::setQuarantined(MachineId machine, bool quarantined) {
  if (quarantined) {
    quarantined_.insert(machine);
  } else {
    quarantined_.erase(machine);
  }
}

void PlacementPlanner::setSuspected(MachineId machine, bool suspected) {
  if (suspected) {
    suspected_.insert(machine);
  } else {
    suspected_.erase(machine);
  }
}

void PlacementPlanner::noteAssigned(MachineId machine) {
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    if (pool_[i] == machine) {
      ++occupancy_[i];
      return;
    }
  }
}

void PlacementPlanner::noteReleased(MachineId machine) {
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    if (pool_[i] == machine) {
      if (occupancy_[i] > 0) --occupancy_[i];
      return;
    }
  }
}

std::vector<MachineId> PlacementPlanner::planInitialStandbys(
    const DomainTopology& topology, bool domainAware,
    const std::vector<MachineId>& pool,
    const std::vector<MachineId>& primaries) {
  std::vector<MachineId> standbys;
  standbys.reserve(primaries.size());
  std::vector<int> occupancy(pool.size(), 0);
  for (const MachineId primary : primaries) {
    MachineId best = kNoMachine;
    int bestSeparation = -1;
    int bestOccupancy = 0;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const MachineId candidate = pool[i];
      const int separation =
          domainAware ? static_cast<int>(minSeparation(topology, candidate,
                                                       {primary}))
                      : 0;
      const bool better = best == kNoMachine || separation > bestSeparation ||
                          (separation == bestSeparation &&
                           occupancy[i] < bestOccupancy);
      if (better) {
        best = candidate;
        bestSeparation = separation;
        bestOccupancy = occupancy[i];
      }
    }
    if (best != kNoMachine) {
      for (std::size_t i = 0; i < pool.size(); ++i) {
        if (pool[i] == best) {
          ++occupancy[i];
          break;
        }
      }
    }
    standbys.push_back(best);
  }
  return standbys;
}

}  // namespace streamha
