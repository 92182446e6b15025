// Stream data elements.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace streamha {

/// One stream data element.
///
/// `stream` identifies the *logical* stream (output port of a logical PE or
/// source); primary and secondary copies of a PE emit onto the same logical
/// stream with identical sequence numbers, which makes duplicate elimination
/// and retransmission-safe recovery possible.
struct Element {
  StreamId stream = kNoStream;
  ElementSeq seq = 0;
  SimTime sourceTs = 0;          ///< Creation time at the source (for E2E delay).
  std::uint32_t payloadBytes = 100;
  std::uint64_t value = 0;       ///< Synthetic payload; drives deterministic PE state.
};

/// Wire size of an element (payload plus a fixed header).
inline constexpr std::uint32_t kElementHeaderBytes = 32;

inline std::uint64_t wireBytes(const Element& e) {
  return e.payloadBytes + kElementHeaderBytes;
}

std::uint64_t wireBytes(const std::vector<Element>& batch);

/// The consumer end of a data message. The network hands it the elements a
/// data message carries when the message lands (stream/queues.hpp's
/// InputQueue is the one production receiver). Nothing is deleted through
/// this interface.
class ElementReceiver {
 public:
  virtual void receive(std::span<const Element> batch) = 0;
};

}  // namespace streamha
