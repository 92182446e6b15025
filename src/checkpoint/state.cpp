#include "checkpoint/state.hpp"

namespace streamha {

namespace {
constexpr std::uint64_t kStateHeaderBytes = 64;
}

std::uint64_t PeState::sizeBytes() const {
  std::uint64_t total = kStateHeaderBytes + internal.size();
  total += processedWatermark.size() * 12;
  for (const auto& port : ports) {
    total += 16;
    total += wireBytes(port.buffered);
  }
  total += wireBytes(inputBacklog);
  return total;
}

std::uint64_t PeState::sizeElements() const {
  std::uint64_t total =
      (internal.size() + kBytesPerElement - 1) / kBytesPerElement;
  for (const auto& port : ports) total += port.buffered.size();
  total += inputBacklog.size();
  return total;
}

std::uint64_t SubjobState::sizeBytes() const {
  std::uint64_t total = kStateHeaderBytes;
  for (const auto& [id, pe] : pes) total += pe.sizeBytes();
  return total;
}

std::uint64_t SubjobState::sizeElements() const {
  std::uint64_t total = 0;
  for (const auto& [id, pe] : pes) total += pe.sizeElements();
  return total;
}

}  // namespace streamha
