// The cluster: a simulator, a set of machines and the interconnect.
//
// Owns all substrate objects; the stream runtime and HA coordinators are
// layered on top of it.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "cluster/machine.hpp"
#include "common/rng.hpp"
#include "net/network.hpp"
#include "place/domain.hpp"
#include "sim/simulator.hpp"

namespace streamha {

class Cluster {
 public:
  struct Params {
    std::size_t machineCount = 4;
    std::uint64_t seed = 1;
    Network::Params network;
    /// Failure-domain nesting (rack/power/zone). Disabled by default; a
    /// machine's label is `topology.labelOf(id)` (pure arithmetic, no RNG).
    DomainTopology topology;
  };

  explicit Cluster(Params params);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  Simulator& sim() { return sim_; }
  const Simulator& sim() const { return sim_; }
  Network& network() { return *network_; }
  std::size_t size() const { return machines_.size(); }

  Machine& machine(MachineId id);
  const Machine& machine(MachineId id) const;
  bool machineUp(MachineId id) const;

  const DomainTopology& topology() const { return params_.topology; }

  /// Deterministic per-purpose RNG derived from the cluster seed.
  Rng forkRng(std::uint64_t salt) const { return root_rng_.fork(salt); }

  /// Point the network and every machine at a trace recorder (null detaches).
  void attachTrace(TraceRecorder* trace) {
    network_->setTrace(trace);
    for (auto& m : machines_) m->setTrace(trace);
  }

 private:
  Params params_;
  Simulator sim_;
  Rng root_rng_;
  std::vector<std::unique_ptr<Machine>> machines_;
  std::unique_ptr<Network> network_;
};

}  // namespace streamha
