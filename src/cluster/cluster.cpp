#include "cluster/cluster.hpp"

#include <cassert>

namespace streamha {

Cluster::Cluster(Params params) : params_(params), root_rng_(params.seed) {
  machines_.reserve(params_.machineCount);
  for (std::size_t i = 0; i < params_.machineCount; ++i) {
    const auto id = static_cast<MachineId>(i);
    machines_.push_back(std::make_unique<Machine>(
        sim_, id, root_rng_.fork(0x4D41434800ULL + i)));
  }
  network_ = std::make_unique<Network>(
      sim_, params_.network,
      [this](MachineId id) { return machineUp(id); });
}

Machine& Cluster::machine(MachineId id) {
  assert(id >= 0 && static_cast<std::size_t>(id) < machines_.size());
  return *machines_[static_cast<std::size_t>(id)];
}

const Machine& Cluster::machine(MachineId id) const {
  assert(id >= 0 && static_cast<std::size_t>(id) < machines_.size());
  return *machines_[static_cast<std::size_t>(id)];
}

bool Cluster::machineUp(MachineId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= machines_.size()) return false;
  return machines_[static_cast<std::size_t>(id)]->isUp();
}

}  // namespace streamha
