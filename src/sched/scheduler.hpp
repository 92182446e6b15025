// Placement and migration-based load balancing.
//
// The paper's system model (Section II-A): "The system typically has a
// scheduling component that determines the placement of PEs on machines
// based on their respective resource requirements and availability. When the
// resource available on a machine or the resource requirement of a running
// subjob changes significantly and remains stable for an extended period of
// time, the scheduling component may migrate subjobs across machines...
// However, the scheduler is not the right place to handle short yet frequent
// transient failures."
//
// LoadBalancer is the slow reactive path: it monitors machine load at coarse
// granularity (one sample a second) and, when overload (load >= 0.9)
// *sustains*, migrates the hottest subjob to the least-loaded candidate
// machine with a stop-and-copy migration. Deliberately conservative
// (sustained-sample threshold + cooldown), as real schedulers are; the
// ablation bench shows why that loses against the Hybrid method on
// second-scale spikes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "sim/timer.hpp"
#include "checkpoint/manager.hpp"
#include "stream/runtime.hpp"

namespace streamha {

class LoadBalancer {
 public:
  struct Params {
    int sustainedSamples = 4;    ///< Consecutive hot samples before acting.
    SimDuration cooldown = 10 * kSecond;  ///< Per-machine, between migrations.
  };

  /// Watches the machines hosting `runtime`'s primary instances and migrates
  /// away from sustained overload onto the least-loaded machine from
  /// `spareMachines`.
  LoadBalancer(Runtime& runtime, std::vector<MachineId> spareMachines,
               Params params);
  ~LoadBalancer();
  LoadBalancer(const LoadBalancer&) = delete;
  LoadBalancer& operator=(const LoadBalancer&) = delete;

  void start();
  void stop();

  std::uint64_t migrations() const { return migrations_; }

  /// Stop-and-copy migration of `instance` to `target`: quiesce, capture the
  /// full state (including input queues), transfer, apply, rewire, terminate
  /// the old copy. `done` runs when the moved subjob is processing again.
  /// Exposed for direct use (the scheduler path of a deployment tool).
  void migrateSubjob(Subjob& instance, MachineId target,
                     std::function<void()> done);

 private:
  void poll();
  double windowedLoad(MachineId machine);
  /// Least-loaded live spare (kNoMachine when none is up).
  MachineId coolestSpare();

  Runtime& rt_;
  std::vector<MachineId> spares_;
  Params params_;
  PeriodicTimer timer_;
  bool migrating_ = false;
  std::uint64_t migrations_ = 0;
  std::map<MachineId, int> hot_streak_;
  std::map<MachineId, double> last_integral_;
  std::map<MachineId, SimTime> last_sample_at_;
  std::map<MachineId, SimTime> cooldown_until_;
  SubjobQuiescer quiescer_;
};

}  // namespace streamha
