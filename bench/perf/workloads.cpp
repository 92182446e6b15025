#include "workloads.hpp"

#include "harness/chaos_harness.hpp"

namespace streamha::perf {
namespace {

/// The paper's Section V-A chain: 8 PEs in 4 subjobs, Hybrid on subjobs 1-3,
/// 97%-CPU 2 s spikes covering 20% of the time on every primary but the
/// first, a 1000 el/s Poisson source, 300 us of work per element, sweeping
/// checkpoints every 50 ms and 100 ms heartbeats. No network faults.
ScenarioParams paperHybrid(std::uint64_t seed, SimDuration duration) {
  ScenarioParams p;
  p.numPes = 8;
  p.pesPerSubjob = 2;
  p.peWorkUs = 300.0;
  p.dataRatePerSec = 1000.0;
  p.mode = HaMode::kHybrid;
  p.protectedSubjobs = {1, 2, 3};
  p.checkpointInterval = 50 * kMillisecond;
  p.heartbeatInterval = 100 * kMillisecond;
  p.failureFraction = 0.2;
  p.failureDuration = 2 * kSecond;
  p.failureMagnitude = 0.97;
  p.failurePlacement = ScenarioParams::FailurePlacement::kAllButFirst;
  p.duration = duration;
  p.seed = seed;
  return p;
}

/// The same chain with 256 KB of keyed state per PE (64 B keys, one dirtied
/// per element), shipped as delta checkpoints into the tiered store.
ScenarioParams keyedState(std::uint64_t seed, SimDuration duration) {
  ScenarioParams p = paperHybrid(seed, duration);
  p.stateBytes = 256 * 1024;
  p.stateKeyBytes = 64;
  p.store.delta.enabled = true;
  p.store.tiered = true;
  return p;
}

/// Short chaos seeds: Hybrid on {1,2} with spares, and all-kind loss up to
/// 5%, 5% duplicates, 10% jitter and one healed partition inside [3 s, 8 s]
/// of a 10 s run. No crash: with one, restarting or not, about 0.2% of seeds
/// lose elements (README.md), and every seed must pass the oracle.
ScenarioParams chaosSweep(std::uint64_t seed, SimDuration duration) {
  ScenarioParams p;
  p.mode = HaMode::kHybrid;
  p.protectedSubjobs = {1, 2};
  p.provisionSpares = true;
  p.failStopAfter = 3 * kSecond;
  p.duration = duration;
  p.seed = seed;
  harness::ChaosProfile profile;
  profile.maxDuplicateProb = 0.05;
  profile.maxDelayProb = 0.1;
  profile.withCrash = false;
  profile.faultsFrom = 3 * kSecond;
  profile.faultsUntil = 8 * kSecond;
  p.faults = harness::makeChaosPlan(p, profile, seed).schedule;
  p.faultSeedSalt = seed;
  return p;
}

/// A wide job at fleet shape: 32 PEs in 16 subjobs, Hybrid on 15, standbys
/// drawn from a 99-machine pool on 4 racks, elastic membership with 2 latent
/// machines, a permanent whole-rack kill, a churn storm (joins, a
/// retirement, a silenced beacon) and a healed partition. The placement
/// ignores the racks, so the kill takes primaries together with their
/// standbys and the coordinators re-provision them from checkpoints; with
/// rack-aware placement nothing would be re-provisioned, and a correlated
/// primary+standby burst added to reach it loses elements on ~2.7% of seeds
/// (README.md). No link loss: with it, 0.5-2% of seeds lose elements.
ScenarioParams fleetChurn(std::uint64_t seed, SimDuration duration) {
  ScenarioParams p;
  p.numPes = 32;
  p.pesPerSubjob = 2;
  p.mode = HaMode::kHybrid;
  p.protectedSubjobs.clear();
  for (SubjobId sj = 1; sj < 16; ++sj) p.protectedSubjobs.push_back(sj);
  p.failStopAfter = 3 * kSecond;
  p.placement.enabled = true;
  p.placement.domainAware = false;
  p.placement.topology.racks = 4;
  p.placement.poolMachines = 99;
  p.membership.enabled = true;
  p.membership.latentMachines = 2;
  p.duration = duration;
  p.seed = seed;
  harness::ChaosProfile profile;
  profile.withCrash = false;
  profile.withDomainKill = true;
  profile.withChurn = true;
  profile.faultsFrom = duration / 6;
  profile.faultsUntil = duration * 2 / 3;
  p.faults = harness::makeChaosPlan(p, profile, seed).schedule;
  p.faults.links.clear();
  p.faultSeedSalt = seed;
  return p;
}

}  // namespace

const std::vector<Workload>& allWorkloads() {
  static const std::vector<Workload> workloads = {
      {"paper_hybrid", 8, 60 * kSecond, paperHybrid},
      {"keyed_state", 3, 25 * kSecond, keyedState},
      {"chaos_sweep", 40, 10 * kSecond, chaosSweep},
      {"fleet_churn", 9, 10 * kSecond, fleetChurn},
  };
  return workloads;
}

const Workload* findWorkload(const std::string& name) {
  for (const Workload& w : allWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Workload smokeVariant(const Workload& w) {
  Workload smoke = w;
  smoke.seedCount = 1;
  smoke.duration = 10 * kSecond;
  return smoke;
}

}  // namespace streamha::perf
