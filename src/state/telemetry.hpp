// End-of-run state-store telemetry (delta shipping, compaction, tiering,
// restore). Aggregated over every StateStore a scenario created (including
// stores retired by promotions); all zero when the tiered/delta backend is
// disabled, matching the FlowTelemetry / GrayFailureTelemetry idiom.
#pragma once

#include <cstdint>

namespace streamha {

struct StateTelemetry {
  // Delta shipping (checkpoint/manager.cpp delta pipeline).
  std::uint64_t deltaShips = 0;        ///< Delta checkpoints shipped.
  std::uint64_t deltaShipBytes = 0;    ///< Bytes those deltas cost on the wire.
  std::uint64_t deltaFullBytes = 0;    ///< Full-copy bytes they avoided.
  std::uint64_t deltaChunksShipped = 0;

  // Store-side apply outcomes.
  std::uint64_t deltaApplies = 0;      ///< Deltas genuinely applied.
  std::uint64_t staleDeltaDrops = 0;   ///< ARQ-reordered stale deltas dropped.
  std::uint64_t baseMisses = 0;        ///< Deltas dropped for a base mismatch
                                       ///< (never confirmed: no acks released).

  // Delta log / compaction.
  std::uint64_t runsAppended = 0;
  std::uint64_t compactions = 0;
  std::uint64_t runsCompacted = 0;     ///< Input runs consumed by merges.
  std::uint64_t compactionBytesIn = 0;
  std::uint64_t compactionBytesOut = 0;
  std::uint64_t chunksDiscarded = 0;   ///< Superseded chunk versions dropped.

  // Tiered backend placement.
  std::uint64_t tierSpills = 0;
  std::uint64_t bytesWrittenDram = 0;
  std::uint64_t bytesWrittenSsd = 0;
  std::uint64_t bytesWrittenHdd = 0;

  // Restore path (Hybrid rollback Read-State). Counted per PE.
  std::uint64_t fullRestores = 0;      ///< PEs restored by full transfer.
  std::uint64_t deltaRestores = 0;     ///< PEs restored from delta runs only.
  std::uint64_t restoreFullBytes = 0;  ///< Bytes moved by full restores.
  std::uint64_t restoreDeltaBytes = 0; ///< Bytes moved by delta restores.

  StateTelemetry& operator+=(const StateTelemetry& other);
};

}  // namespace streamha
