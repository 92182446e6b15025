// State store: the standby-side destination of checkpoint messages.
//
// For passive standby the store simply retains the latest state per subjob
// (optionally paying a disk penalty). For the Hybrid method the store is
// *attached* to the pre-deployed suspended secondary copy and refreshes its
// PE memory directly on every checkpoint ("Instead of storing the checkpoint
// states on disk, we keep them in memory. Whenever new states come we refresh
// the PE memory directly.").
//
// Two opt-in extensions sit underneath (both off by default, leaving the
// classic full-copy in-memory behavior bit-identical):
//
//  * delta mode (params.delta.enabled) -- the checkpoint manager ships
//    PeStateDelta objects (changed chunks since the last confirmed version)
//    via storePeDelta(); applied deltas are retained as log-structured runs
//    in a per-PE DeltaLog and compacted with a deterministic k-way merge.
//    A delta whose base does not match the stored version is a *base miss*:
//    it is dropped without confirmation, so the sender never releases acks
//    for state the store cannot reconstruct.
//  * tiered mode (params.tiered) -- writes are placed on a DRAM/SSD/HDD
//    TieredBackend (state/tier.hpp) and durability pays that tier's
//    latency + bandwidth cost instead of the flat disk penalty.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <utility>

#include "checkpoint/state.hpp"
#include "cluster/machine.hpp"
#include "common/types.hpp"
#include "sim/simulator.hpp"
#include "state/delta.hpp"
#include "state/telemetry.hpp"
#include "state/tier.hpp"
#include "stream/subjob.hpp"

namespace streamha {

class TraceRecorder;

class StateStore {
 public:
  struct Params {
    /// When true, writes/reads pay a simulated disk penalty (conventional PS
    /// that must survive loss of both machines); when false the store is
    /// memory-only (the Hybrid default).
    bool persistToDisk = false;
    /// Sequential-disk bandwidth; defaults to the HDD preset
    /// (state/tier.hpp) so the bench and the store agree on the number.
    double diskBytesPerMicro = kTierHdd.bytesPerMicro;
    /// Delta-checkpoint shipping (state/delta.hpp). Off by default.
    DeltaParams delta;
    /// Tiered placement/cost model (state/tier.hpp) with the preset tiers.
    /// Off by default.
    bool tiered = false;
  };

  /// `trace` is the optional sink for kTierSpill / kCompaction* events (null
  /// = tracing off); recording never changes simulated behavior.
  StateStore(Simulator& sim, Machine& machine, Params params,
             TraceRecorder* trace = nullptr);
  StateStore(Simulator& sim, Machine& machine);
  StateStore(const StateStore&) = delete;
  StateStore& operator=(const StateStore&) = delete;

  Machine& machine() { return machine_; }

  /// Store an updated state for one PE of `subjob`; `onDurable` runs once the
  /// write completes (immediately for memory, after the penalty for disk).
  void storePeState(SubjobId subjob, PeState state,
                    std::function<void()> onDurable);

  /// Store a whole-subjob state (synchronous checkpointing sends one blob).
  void storeSubjobState(const SubjobState& state,
                        std::function<void()> onDurable);

  /// Delta-mode write path. `onDurable` runs once the store durably holds
  /// this PE at delta.version or newer (applied, or stale against a newer
  /// stored version), so the sender may release the delta's acks. A base
  /// miss -- delta.version ahead of the store but baseVersion not matching --
  /// runs nothing: no confirm flows and the sender's attempt must time out.
  void storePeDelta(SubjobId subjob, const PeStateDelta& delta,
                    std::function<void()> onDurable);

  /// Latest known state of `subjob` (merged per-PE versions); empty state if
  /// nothing stored yet.
  SubjobState latest(SubjobId subjob) const;

  /// Attach a live suspended replica: every stored PE state is additionally
  /// applied to the replica's PE memory while the replica stays suspended.
  void attachReplica(SubjobId subjob, Subjob* replica);
  void detachReplica(SubjobId subjob);

  /// Wire bytes a rollback Read-State transfer costs when the recovering
  /// primary already holds `have` (per-PE versions): per PE, the delta log's
  /// runs newer than the held version when they chain from it, the full
  /// state otherwise. Updates the restore telemetry. With delta mode off
  /// this is exactly `state.sizeBytes()`.
  std::uint64_t restoreBytes(SubjobId subjob,
                             const std::map<LogicalPeId, std::uint64_t>& have,
                             const SubjobState& state);

  bool deltaEnabled() const { return params_.delta.enabled; }
  const DeltaParams& deltaParams() const { return params_.delta; }

  /// The per-PE delta log (nullptr when absent); white-box for tests.
  const DeltaLog* deltaLog(SubjobId subjob, LogicalPeId pe) const;
  /// The tiered backend (nullptr when tiering is off).
  const TieredBackend* backend() const { return backend_.get(); }

  StateTelemetry& telemetry() { return telemetry_; }
  const StateTelemetry& telemetry() const { return telemetry_; }

  std::uint64_t writeCount() const { return writes_; }
  std::uint64_t bytesWritten() const { return bytes_written_; }
  /// Ships that arrived with a per-PE version at or below the stored one
  /// (ARQ retries may reorder; stale versions are never applied). Counts
  /// full-copy and delta ships alike.
  std::uint64_t staleWrites() const { return stale_writes_; }

 private:
  bool freshFor(const SubjobState& slot, const PeState& state) const;
  /// Adopt a fresh full state for one PE of `slot`: assign it, refresh the
  /// attached replica and, in delta mode, log it as a full-coverage run.
  void adopt(SubjobId subjob, SubjobState& slot, PeState state);
  /// Load `state` into the attached suspended replica. `delta`, when given,
  /// produced `state` from the store's previous version of the PE: if the
  /// replica still holds exactly what this store loaded at the delta's base,
  /// its logic takes the delta's chunks as a patch instead of a full reload.
  void applyToReplica(SubjobId subjob, const PeState& state,
                      const PeStateDelta* delta = nullptr);
  void forgetReplicaLoads(SubjobId subjob);
  void completeWrite(std::uint64_t allocation, std::uint64_t bytes,
                     std::function<void()> onDurable);
  /// Record an applied state in the delta log + tiered backend, compacting
  /// when the run budget is reached.
  void logApply(SubjobId subjob, const PeStateDelta& delta);
  void maybeCompact(SubjobId subjob, LogicalPeId pe, DeltaLog& log);
  /// Stable tier-backend allocation key for one delta-log run / state slot.
  static std::uint64_t allocationKey(SubjobId subjob, LogicalPeId pe,
                                     std::uint64_t runId);

  Simulator& sim_;
  Machine& machine_;
  Params params_;
  TraceRecorder* trace_ = nullptr;
  std::map<SubjobId, SubjobState> latest_;
  std::map<SubjobId, Subjob*> replicas_;
  /// What this store last loaded into each replica PE: the state's version
  /// and the PE's stateWrites() right after. A replica whose count has not
  /// moved since processed nothing and loaded nothing else. Cleared when the
  /// subjob's replica is attached or detached.
  struct ReplicaLoad {
    std::uint64_t version = 0;
    std::uint64_t writes = 0;
  };
  std::map<std::pair<SubjobId, LogicalPeId>, ReplicaLoad> replica_loads_;
  std::map<std::pair<SubjobId, LogicalPeId>, DeltaLog> logs_;
  std::unique_ptr<TieredBackend> backend_;
  StateTelemetry telemetry_;
  std::uint64_t writes_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t stale_writes_ = 0;
};

}  // namespace streamha
