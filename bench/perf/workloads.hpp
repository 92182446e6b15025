// The benchmark's named workloads (see README.md for why each exists).
//
// A workload is a function from a seed to the ScenarioParams of one run, plus
// how many consecutive seeds make up one measured round. It sets only the
// fields that describe the job, the failure load and the fault plan -- never
// the A/B toggles the simulator keeps for equivalence tests -- so the same
// workload runs unchanged while those toggles are deleted.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/scenario.hpp"

namespace streamha::perf {

struct Workload {
  std::string name;
  /// Seeds S .. S+seedCount-1 make up one measured round.
  int seedCount = 1;
  /// Simulated run length of one seed (before the quiescent drain).
  SimDuration duration = 0;
  /// Seed -> the run's parameters, fault schedule included.
  ScenarioParams (*params)(std::uint64_t seed, SimDuration duration) = nullptr;
};

const std::vector<Workload>& allWorkloads();

/// Null when no workload has this name.
const Workload* findWorkload(const std::string& name);

/// The smoke variant: one short seed of the same shape.
Workload smokeVariant(const Workload& w);

}  // namespace streamha::perf
