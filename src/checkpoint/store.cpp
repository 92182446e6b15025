#include "checkpoint/store.hpp"

#include <cmath>

#include "trace/recorder.hpp"

namespace streamha {

namespace {

void recordStoreEvent(TraceRecorder* trace, TraceEventType type, SimTime at,
                      MachineId machine, SubjobId subjob, std::uint64_t value,
                      std::uint64_t aux) {
  if (trace == nullptr) return;
  TraceEvent ev;
  ev.type = type;
  ev.at = at;
  ev.machine = machine;
  ev.subjob = subjob;
  ev.value = value;
  ev.aux = aux;
  trace->record(ev);
}

}  // namespace

StateStore::StateStore(Simulator& sim, Machine& machine, Params params,
                       TraceRecorder* trace)
    : sim_(sim), machine_(machine), params_(params), trace_(trace) {
  if (params_.tiered) {
    backend_ = std::make_unique<TieredBackend>(sim_, TieredBackendParams{},
                                               machine_.id(), trace_);
  }
}

StateStore::StateStore(Simulator& sim, Machine& machine)
    : StateStore(sim, machine, Params{}) {}

std::uint64_t StateStore::allocationKey(SubjobId subjob, LogicalPeId pe,
                                        std::uint64_t runId) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(subjob)) << 44) ^
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(pe)) << 24) ^
         runId;
}

void StateStore::completeWrite(std::uint64_t allocation, std::uint64_t bytes,
                               std::function<void()> onDurable) {
  ++writes_;
  bytes_written_ += bytes;
  if (backend_ != nullptr) {
    const TierWriteResult placed = backend_->write(allocation, bytes);
    switch (placed.tier) {
      case StorageTier::kDram: telemetry_.bytesWrittenDram += bytes; break;
      case StorageTier::kSsd: telemetry_.bytesWrittenSsd += bytes; break;
      case StorageTier::kHdd: telemetry_.bytesWrittenHdd += bytes; break;
    }
    if (placed.spilled) ++telemetry_.tierSpills;
    sim_.schedule(std::max<SimDuration>(1, placed.cost), std::move(onDurable));
    return;
  }
  if (!params_.persistToDisk) {
    if (onDurable) onDurable();
    return;
  }
  const auto penalty = static_cast<SimDuration>(
      std::ceil(static_cast<double>(bytes) / params_.diskBytesPerMicro));
  sim_.schedule(std::max<SimDuration>(1, penalty), std::move(onDurable));
}

bool StateStore::freshFor(const SubjobState& slot, const PeState& state) const {
  const auto it = slot.pes.find(state.pe);
  return it == slot.pes.end() || it->second.version < state.version;
}

void StateStore::adopt(SubjobId subjob, SubjobState& slot, PeState state) {
  PeState& stored = slot.pes[state.pe];
  stored = std::move(state);
  applyToReplica(subjob, stored);
  if (params_.delta.enabled) {
    // Keep the delta log consistent under full-copy ships too (grouped
    // checkpoints, rollback re-persists): a full state is a full-coverage
    // run, so later restores can still plan from the log.
    logApply(subjob, encodeDelta(nullptr, stored, params_.delta.chunkBytes));
  }
}

void StateStore::storePeState(SubjobId subjob, PeState state,
                              std::function<void()> onDurable) {
  if (!machine_.isUp()) return;  // Store lost with its machine.
  SubjobState& slot = latest_[subjob];
  slot.subjob = subjob;
  const std::uint64_t allocation = allocationKey(subjob, state.pe, 0);
  const std::uint64_t bytes = state.sizeBytes();
  // Ships ride the ARQ layer, which guarantees delivery but not order: a
  // retried older checkpoint may land after a newer one. Applying it would
  // rewind the replica behind the upstream trim point, so drop it here;
  // versions are monotonic per PE (PeInstance::checkpoint).
  if (freshFor(slot, state)) {
    ++slot.version;
    adopt(subjob, slot, std::move(state));
  } else {
    ++stale_writes_;
  }
  completeWrite(allocation, bytes, std::move(onDurable));
}

void StateStore::storePeDelta(SubjobId subjob, const PeStateDelta& delta,
                              std::function<void()> onDurable) {
  if (!machine_.isUp()) return;
  SubjobState& slot = latest_[subjob];
  slot.subjob = subjob;
  auto it = slot.pes.find(delta.pe);
  const std::uint64_t storedVersion =
      it == slot.pes.end() ? 0 : it->second.version;
  if (delta.version <= storedVersion) {
    // ARQ-reordered stale ship: the store already holds newer state, so the
    // delta's acks are safe to release -- confirm without applying.
    ++stale_writes_;
    ++telemetry_.staleDeltaDrops;
  } else if (delta.baseVersion != 0 && delta.baseVersion != storedVersion) {
    // Base miss: the store cannot reconstruct delta.version from what it
    // holds. Drop WITHOUT confirming -- a confirm would let the sender trim
    // upstream queues past state this store never materialized. The sender's
    // confirm-timeout (or a late confirm for the base version) resolves the
    // pipeline.
    ++telemetry_.baseMisses;
    return;
  } else {
    PeState& stored = slot.pes[delta.pe];
    // A full delta (empty base) applies to the empty state, not to whatever
    // older, possibly larger, state the slot holds.
    if (delta.baseVersion == 0) stored = PeState{};
    applyDeltaInPlace(stored, delta);
    ++slot.version;
    ++telemetry_.deltaApplies;
    applyToReplica(subjob, stored, &delta);
    logApply(subjob, delta);
  }
  completeWrite(allocationKey(subjob, delta.pe, 0), delta.sizeBytes(),
                std::move(onDurable));
}

void StateStore::logApply(SubjobId subjob, const PeStateDelta& delta) {
  auto [it, inserted] = logs_.try_emplace(
      std::make_pair(subjob, delta.pe), params_.delta.compactEveryRuns);
  DeltaLog& log = it->second;
  const std::uint64_t runId = log.append(delta);
  ++telemetry_.runsAppended;
  if (backend_ != nullptr) {
    // The run itself occupies tier capacity until compaction frees it. The
    // placement cost of the live-state write is paid in completeWrite; run
    // retention only accounts capacity.
    backend_->write(allocationKey(subjob, delta.pe, runId),
                    log.runs().back().bytes());
  }
  maybeCompact(subjob, delta.pe, log);
}

void StateStore::maybeCompact(SubjobId subjob, LogicalPeId pe, DeltaLog& log) {
  if (!log.shouldCompact()) return;
  recordStoreEvent(trace_, TraceEventType::kCompactionBegin, sim_.now(),
                   machine_.id(), subjob, log.runs().size(), 0);
  std::vector<std::uint64_t> freed;
  const CompactionResult result = log.compact(&freed);
  ++telemetry_.compactions;
  telemetry_.runsCompacted += result.runsMerged;
  telemetry_.compactionBytesIn += result.bytesIn;
  telemetry_.compactionBytesOut += result.bytesOut;
  telemetry_.chunksDiscarded += result.chunksDropped;
  if (backend_ != nullptr) {
    for (const std::uint64_t runId : freed) {
      backend_->free(allocationKey(subjob, pe, runId));
    }
    if (!log.runs().empty()) {
      backend_->write(allocationKey(subjob, pe, log.runs().front().id),
                      log.runs().front().bytes());
    }
  }
  recordStoreEvent(trace_, TraceEventType::kCompactionEnd, sim_.now(),
                   machine_.id(), subjob, result.bytesIn, result.bytesOut);
}

void StateStore::storeSubjobState(const SubjobState& state,
                                  std::function<void()> onDurable) {
  if (!machine_.isUp()) return;
  SubjobState& slot = latest_[state.subjob];
  slot.subjob = state.subjob;
  ++slot.version;
  for (const auto& [peId, peState] : state.pes) {
    if (freshFor(slot, peState)) {
      adopt(state.subjob, slot, peState);
    } else {
      ++stale_writes_;
    }
  }
  completeWrite(allocationKey(state.subjob, -1, 0), state.sizeBytes(),
                std::move(onDurable));
}

SubjobState StateStore::latest(SubjobId subjob) const {
  const auto it = latest_.find(subjob);
  if (it == latest_.end()) {
    SubjobState empty;
    empty.subjob = subjob;
    return empty;
  }
  return it->second;
}

const DeltaLog* StateStore::deltaLog(SubjobId subjob, LogicalPeId pe) const {
  const auto it = logs_.find(std::make_pair(subjob, pe));
  return it == logs_.end() ? nullptr : &it->second;
}

std::uint64_t StateStore::restoreBytes(
    SubjobId subjob, const std::map<LogicalPeId, std::uint64_t>& have,
    const SubjobState& state) {
  std::uint64_t total = 0;
  for (const auto& [peId, peState] : state.pes) {
    const std::uint64_t fullBytes = peState.sizeBytes();
    const auto haveIt = have.find(peId);
    const std::uint64_t haveVersion = haveIt == have.end() ? 0 : haveIt->second;
    const DeltaLog* log = deltaLog(subjob, peId);
    bool covered = false;
    std::uint64_t deltaBytes = 0;
    if (params_.delta.enabled && log != nullptr && !log->runs().empty()) {
      // The runs newer than what the primary holds must chain from it: the
      // first needed run's base must be at or below haveVersion (runs are
      // self-contained against their base; a full-coverage run has base 0).
      std::uint64_t chain = haveVersion;
      covered = true;
      bool any = false;
      for (const DeltaLog::Run& run : log->runs()) {
        if (run.version <= haveVersion) continue;
        any = true;
        if (run.baseVersion > chain) {
          covered = false;
          break;
        }
        chain = run.version;
        deltaBytes += run.bytes();
      }
      if (!any) covered = haveVersion >= peState.version;
      if (covered && chain < peState.version && haveVersion < peState.version) {
        // The log ends before the state being restored; the tail is missing.
        covered = false;
      }
    }
    if (covered && deltaBytes < fullBytes) {
      ++telemetry_.deltaRestores;
      telemetry_.restoreDeltaBytes += deltaBytes;
      total += deltaBytes;
    } else {
      ++telemetry_.fullRestores;
      telemetry_.restoreFullBytes += fullBytes;
      total += fullBytes;
    }
  }
  return total;
}

void StateStore::attachReplica(SubjobId subjob, Subjob* replica) {
  replicas_[subjob] = replica;
  forgetReplicaLoads(subjob);
}

void StateStore::detachReplica(SubjobId subjob) {
  replicas_.erase(subjob);
  forgetReplicaLoads(subjob);
}

void StateStore::forgetReplicaLoads(SubjobId subjob) {
  std::erase_if(replica_loads_, [subjob](const auto& entry) {
    return entry.first.first == subjob;
  });
}

void StateStore::applyToReplica(SubjobId subjob, const PeState& state,
                                const PeStateDelta* delta) {
  const auto it = replicas_.find(subjob);
  if (it == replicas_.end() || it->second == nullptr) return;
  Subjob* replica = it->second;
  // Never clobber a replica that has been activated (switchover in
  // progress); it will re-sync on rollback.
  if (!replica->suspended() || replica->terminated()) return;
  PeInstance* pe = replica->peByLogicalId(state.pe);
  if (pe == nullptr) return;
  // Refreshes apply one PE at a time, so only fast-forwards are safe here.
  // A checkpoint that lags what this replica processed during an active
  // window (a stale ship confirming after the rollback) would rewind the PE
  // below its own internal trim point -- and the upstream PE's output queue,
  // which is not part of this application, no longer retains the rewound
  // span, so the gap could never be refilled. Legitimate rewinds ride the
  // whole-subjob adoption on switchover (completeSwitchover), where the
  // matching upstream queue contents are restored alongside.
  for (const auto& [stream, wm] : pe->watermarks()) {
    const auto it2 = state.processedWatermark.find(stream);
    if (it2 == state.processedWatermark.end() || it2->second < wm) return;
  }
  // Patch only a replica that still holds what this store loaded at the
  // delta's base; one that processed an element or loaded another state
  // since (a switchover, a rollback) reloads in full.
  ReplicaLoad& loaded = replica_loads_[{subjob, state.pe}];
  const bool patch = delta != nullptr && loaded.version != 0 &&
                     loaded.version == delta->baseVersion &&
                     loaded.writes == pe->stateWrites();
  pe->storeJobState(state, patch ? delta : nullptr);
  loaded = ReplicaLoad{state.version, pe->stateWrites()};
}

}  // namespace streamha
