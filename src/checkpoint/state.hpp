// Checkpoint state containers.
//
// Per the paper, a checkpoint carries a PE's *internal states* (variables
// that affect the output -- not the memory image) and, depending on the
// checkpointing variant, output-queue and/or input-queue contents:
//
//   * sweeping checkpointing: internal state + output queues (input queues
//     are reconstructed by upstream retransmission);
//   * synchronous / individual (conventional) checkpointing: internal state +
//     output queues + input queues.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/types.hpp"
#include "stream/element.hpp"

namespace streamha {

/// Bytes per data element: the divisor converting internal-state bytes to
/// the element-denominated overhead the paper's figures use.
inline constexpr std::uint32_t kBytesPerElement = 132;

/// Checkpointed state of one PE instance.
struct PeState {
  LogicalPeId pe = -1;
  std::uint64_t version = 0;  ///< Monotonic per-PE checkpoint counter.

  /// Serialized internal state of the user logic.
  std::vector<std::uint8_t> internal;

  /// Per-input-stream watermark: highest sequence number whose processing is
  /// reflected in `internal`. After restore the PE asks upstream to
  /// retransmit from watermark + 1 and drops anything at or below it.
  std::map<StreamId, ElementSeq> processedWatermark;

  /// State of one output port's queue.
  struct PortState {
    StreamId stream = kNoStream;
    ElementSeq nextSeq = 1;
    std::vector<Element> buffered;  ///< Retained (un-acked) elements.
  };
  std::vector<PortState> ports;

  /// Input-queue contents; only populated by conventional checkpointing.
  std::vector<Element> inputBacklog;

  /// Per-input-stream highest *received* sequence number at checkpoint time;
  /// only populated by conventional checkpointing (its acks may cover the
  /// persisted backlog, not just processed data).
  std::map<StreamId, ElementSeq> receivedWatermark;

  /// Wire/storage size of this state. Elements count their wire size; the
  /// scalar bookkeeping adds a small fixed header.
  std::uint64_t sizeBytes() const;

  /// The element-denominated size the paper's overhead figures use: internal
  /// state expressed in elements plus every queued element included.
  std::uint64_t sizeElements() const;
};

/// Checkpointed state of a whole subjob (all its PEs).
struct SubjobState {
  SubjobId subjob = -1;
  std::uint64_t version = 0;
  std::map<LogicalPeId, PeState> pes;

  std::uint64_t sizeBytes() const;
  std::uint64_t sizeElements() const;
  bool empty() const { return pes.empty(); }
};

}  // namespace streamha
