// Delta checkpoints and the log-structured delta log.
//
// A PeStateDelta is what the delta-mode checkpoint pipeline ships instead of
// a full PeState: the chunks of the serialized internal state that changed
// since the last *confirmed* version (the base), plus the full queue /
// watermark bookkeeping (which is small and changes every checkpoint anyway).
// Deltas are self-contained against their base: the store applies one iff its
// stored version for the PE equals the delta's baseVersion; a base mismatch
// is a *miss* (the delta is dropped and NOT confirmed, so the sender never
// releases acks for state the store cannot reconstruct).
//
// The DeltaLog retains applied deltas as log-structured runs per PE and
// compacts them with a deterministic k-way merge (newest version wins per
// chunk), following the external-merge-sort run/merge playbook in
// SNIPPETS.md §1. Runs are what the tiered backend places on storage, and
// what the delta-aware restore path replays to a recovering primary.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "checkpoint/state.hpp"
#include "common/types.hpp"

namespace streamha {

struct DeltaParams {
  /// Master switch: when false the store/manager keep the full-copy pipeline
  /// and stay bit-identical to the pre-delta build.
  bool enabled = false;
  /// Chunk granularity of the internal-state diff.
  std::uint32_t chunkBytes = 64;
  /// Compact a PE's run list once it reaches this many runs. 0 = never.
  std::uint32_t compactEveryRuns = 8;
};

/// One changed chunk of a PE's serialized internal state.
struct DeltaChunk {
  std::uint32_t index = 0;               ///< Chunk offset = index * chunkBytes.
  std::vector<std::uint8_t> bytes;       ///< New contents (<= chunkBytes).
};

/// Delta checkpoint of one PE: everything needed to advance a copy of the
/// state at `baseVersion` to `version`.
struct PeStateDelta {
  LogicalPeId pe = -1;
  std::uint64_t version = 0;      ///< The version this delta produces.
  std::uint64_t baseVersion = 0;  ///< The confirmed version it applies on.
  std::uint32_t chunkBytes = 64;
  std::uint64_t internalSize = 0; ///< Size of `internal` after applying.
  std::vector<DeltaChunk> chunks;

  /// Queue/watermark bookkeeping travels in full (small, always changing).
  std::map<StreamId, ElementSeq> processedWatermark;
  std::vector<PeState::PortState> ports;
  std::vector<Element> inputBacklog;
  std::map<StreamId, ElementSeq> receivedWatermark;

  /// Wire size: changed chunks + queue payload + a small header.
  std::uint64_t sizeBytes() const;
  std::uint64_t sizeElements() const;
};

/// Diff `next` against `base` (nullptr = empty base, i.e. a full delta).
/// Chunks are emitted in ascending index order, so the encoding is
/// deterministic for identical inputs.
PeStateDelta encodeDelta(const PeState* base, const PeState& next,
                         std::uint32_t chunkBytes);

/// Advance `state` to `delta.version` in place: apply the delta's chunks to
/// `state.internal` (applyDeltaChunks) and replace the queue/watermark
/// bookkeeping. `state.version` must equal `delta.baseVersion`; the caller
/// checks. A delta against the empty base (baseVersion 0) applies to a
/// default-constructed PeState.
void applyDeltaInPlace(PeState& state, const PeStateDelta& delta);

/// The internal-state half of applyDeltaInPlace: resize `internal` to
/// `delta.internalSize` (growth is zero-filled) and overwrite the shipped
/// chunks.
void applyDeltaChunks(std::vector<std::uint8_t>& internal,
                      const PeStateDelta& delta);

/// Copying form of applyDeltaInPlace: returns `base` advanced by `delta` and
/// leaves `base` untouched.
PeState applyDelta(const PeState& base, const PeStateDelta& delta);

/// Result of one compaction pass.
struct CompactionResult {
  std::size_t runsMerged = 0;
  std::uint64_t bytesIn = 0;
  std::uint64_t bytesOut = 0;
  std::uint64_t chunksDropped = 0;  ///< Superseded chunk versions discarded.
};

/// Log-structured per-PE delta runs with k-way merge compaction.
class DeltaLog {
 public:
  /// One retained run: a contiguous [baseVersion, version] span of chunk
  /// updates, sorted by chunk index.
  struct Run {
    std::uint64_t id = 0;           ///< Stable id (tier-backend allocation key).
    std::uint64_t baseVersion = 0;
    std::uint64_t version = 0;
    std::uint32_t chunkBytes = 64;
    std::uint64_t internalSize = 0;
    std::vector<DeltaChunk> chunks;

    std::uint64_t bytes() const;
  };

  explicit DeltaLog(std::uint32_t compactEveryRuns)
      : compact_every_(compactEveryRuns) {}

  /// Append one applied delta as a new run. Returns the run's id.
  std::uint64_t append(const PeStateDelta& delta);

  bool shouldCompact() const {
    return compact_every_ > 0 && runs_.size() >= compact_every_;
  }

  /// Merge every retained run into one (newest version wins per chunk).
  /// Deterministic: same run list in, same merged run out. The merged run
  /// keeps the id of the *oldest* input run; the other ids are returned in
  /// `freed` so the caller can release their tier allocations.
  CompactionResult compact(std::vector<std::uint64_t>* freed);

  const std::vector<Run>& runs() const { return runs_; }
  std::uint64_t newestVersion() const {
    return runs_.empty() ? 0 : runs_.back().version;
  }

  /// FNV-1a over the run structure; equal logs hash equal. Used by the
  /// determinism tests.
  std::uint64_t fingerprint() const;

  std::uint64_t totalBytes() const;

 private:
  std::uint32_t compact_every_ = 8;
  std::uint64_t next_run_id_ = 1;
  std::vector<Run> runs_;  ///< Ascending version order.
};

}  // namespace streamha
