#include "state/delta.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <iterator>

namespace streamha {

namespace {
// Mirrors the PeState header: version/base/chunk bookkeeping plus the
// watermark maps' fixed footprint.
constexpr std::uint64_t kDeltaHeaderBytes = 64;
constexpr std::uint64_t kChunkHeaderBytes = 8;  // index + length on the wire.
// encodeDelta compares this many chunks at once before diffing them singly.
constexpr std::size_t kDiffBlockChunks = 16;

// Merges `newer` into `older`, both sorted by chunk index: at an index both
// hold, the newer chunk wins. Chunks are moved, never copied; `newer` is left
// with moved-from chunks. Returns how many older chunks were superseded.
std::uint64_t mergeNewestWins(std::vector<DeltaChunk>& older,
                              std::vector<DeltaChunk>& newer) {
  const auto byIndex = [](const DeltaChunk& chunk, std::uint32_t index) {
    return chunk.index < index;
  };
  // Common case: `older` already holds every index `newer` touches (a
  // full-coverage run), so the merge overwrites in place instead of building
  // a second chunk array as long as the whole state.
  bool covered = true;
  auto pos = older.begin();
  for (const DeltaChunk& chunk : newer) {
    pos = std::lower_bound(pos, older.end(), chunk.index, byIndex);
    if (pos == older.end() || pos->index != chunk.index) {
      covered = false;
      break;
    }
  }
  if (covered) {
    pos = older.begin();
    for (DeltaChunk& chunk : newer) {
      pos = std::lower_bound(pos, older.end(), chunk.index, byIndex);
      pos->bytes = std::move(chunk.bytes);
    }
    return newer.size();
  }
  std::vector<DeltaChunk> merged;
  merged.reserve(older.size() + newer.size());
  std::uint64_t superseded = 0;
  auto o = older.begin();
  auto n = newer.begin();
  while (o != older.end() && n != newer.end()) {
    if (o->index < n->index) {
      merged.push_back(std::move(*o++));
    } else {
      if (o->index == n->index) {
        ++o;
        ++superseded;
      }
      merged.push_back(std::move(*n++));
    }
  }
  std::move(o, older.end(), std::back_inserter(merged));
  std::move(n, newer.end(), std::back_inserter(merged));
  older = std::move(merged);
  return superseded;
}
}  // namespace

std::uint64_t PeStateDelta::sizeBytes() const {
  std::uint64_t total = kDeltaHeaderBytes;
  for (const auto& chunk : chunks) total += kChunkHeaderBytes + chunk.bytes.size();
  total += processedWatermark.size() * 12;
  for (const auto& port : ports) {
    total += 16;
    total += wireBytes(port.buffered);
  }
  total += wireBytes(inputBacklog);
  return total;
}

std::uint64_t PeStateDelta::sizeElements() const {
  std::uint64_t chunkBytesTotal = 0;
  for (const auto& chunk : chunks) chunkBytesTotal += chunk.bytes.size();
  std::uint64_t total =
      (chunkBytesTotal + kBytesPerElement - 1) / kBytesPerElement;
  for (const auto& port : ports) total += port.buffered.size();
  total += inputBacklog.size();
  return total;
}

PeStateDelta encodeDelta(const PeState* base, const PeState& next,
                         std::uint32_t chunkBytes) {
  assert(chunkBytes > 0);
  PeStateDelta delta;
  delta.pe = next.pe;
  delta.version = next.version;
  delta.baseVersion = base != nullptr ? base->version : 0;
  delta.chunkBytes = chunkBytes;
  delta.internalSize = next.internal.size();
  delta.processedWatermark = next.processedWatermark;
  delta.ports = next.ports;
  delta.inputBacklog = next.inputBacklog;
  delta.receivedWatermark = next.receivedWatermark;

  const std::size_t size = next.internal.size();
  const std::size_t chunkCount = (size + chunkBytes - 1) / chunkBytes;
  for (std::size_t i = 0; i < chunkCount; ++i) {
    const std::size_t begin = i * chunkBytes;
    if (base != nullptr && i % kDiffBlockChunks == 0) {
      // Most of a state is unchanged between checkpoints: one compare clears
      // a whole block of chunks that matches the base.
      const std::size_t blockEnd =
          std::min(size, begin + kDiffBlockChunks * chunkBytes);
      if (base->internal.size() >= blockEnd &&
          std::memcmp(next.internal.data() + begin,
                      base->internal.data() + begin, blockEnd - begin) == 0) {
        i += kDiffBlockChunks - 1;
        continue;
      }
    }
    const std::size_t end =
        std::min(size, begin + static_cast<std::size_t>(chunkBytes));
    bool changed = true;
    if (base != nullptr) {
      // A chunk is unchanged when the base covers the same byte range with
      // identical contents.
      if (base->internal.size() >= end) {
        changed = !std::equal(next.internal.begin() + begin,
                              next.internal.begin() + end,
                              base->internal.begin() + begin);
      }
    }
    if (!changed) continue;
    DeltaChunk chunk;
    chunk.index = static_cast<std::uint32_t>(i);
    chunk.bytes.assign(next.internal.begin() + begin,
                       next.internal.begin() + end);
    delta.chunks.push_back(std::move(chunk));
  }
  return delta;
}

void applyDeltaChunks(std::vector<std::uint8_t>& internal,
                      const PeStateDelta& delta) {
  internal.resize(delta.internalSize);
  for (const auto& chunk : delta.chunks) {
    const std::size_t begin =
        static_cast<std::size_t>(chunk.index) * delta.chunkBytes;
    assert(begin + chunk.bytes.size() <= internal.size());
    std::copy(chunk.bytes.begin(), chunk.bytes.end(),
              internal.begin() + static_cast<std::ptrdiff_t>(begin));
  }
}

void applyDeltaInPlace(PeState& state, const PeStateDelta& delta) {
  state.pe = delta.pe;
  state.version = delta.version;
  applyDeltaChunks(state.internal, delta);
  state.processedWatermark = delta.processedWatermark;
  state.ports = delta.ports;
  state.inputBacklog = delta.inputBacklog;
  state.receivedWatermark = delta.receivedWatermark;
}

PeState applyDelta(const PeState& base, const PeStateDelta& delta) {
  PeState next = base;
  applyDeltaInPlace(next, delta);
  return next;
}

// ---------------------------------------------------------------------------
// DeltaLog
// ---------------------------------------------------------------------------

std::uint64_t DeltaLog::Run::bytes() const {
  std::uint64_t total = kDeltaHeaderBytes;
  for (const auto& chunk : chunks) total += kChunkHeaderBytes + chunk.bytes.size();
  return total;
}

std::uint64_t DeltaLog::append(const PeStateDelta& delta) {
  Run run;
  run.id = next_run_id_++;
  run.baseVersion = delta.baseVersion;
  run.version = delta.version;
  run.chunkBytes = delta.chunkBytes;
  run.internalSize = delta.internalSize;
  run.chunks = delta.chunks;
  std::sort(run.chunks.begin(), run.chunks.end(),
            [](const DeltaChunk& a, const DeltaChunk& b) {
              return a.index < b.index;
            });
  runs_.push_back(std::move(run));
  return runs_.back().id;
}

CompactionResult DeltaLog::compact(std::vector<std::uint64_t>* freed) {
  CompactionResult result;
  if (runs_.size() < 2) return result;
  result.runsMerged = runs_.size();
  for (const auto& run : runs_) result.bytesIn += run.bytes();

  // Newest version wins per chunk index. Runs are kept in ascending version
  // order and each is index-sorted, so linear merges suffice: fold the newer
  // runs (a few chunks each) together first, then fold them once into the
  // oldest run, which after the first compaction covers the whole state.
  std::vector<DeltaChunk> newer = std::move(runs_[1].chunks);
  for (std::size_t i = 2; i < runs_.size(); ++i) {
    result.chunksDropped += mergeNewestWins(newer, runs_[i].chunks);
  }
  Run& merged = runs_.front();  // Oldest id survives; the rest are freed.
  result.chunksDropped += mergeNewestWins(merged.chunks, newer);
  merged.version = runs_.back().version;
  merged.chunkBytes = runs_.back().chunkBytes;
  merged.internalSize = runs_.back().internalSize;

  if (freed != nullptr) {
    for (std::size_t i = 1; i < runs_.size(); ++i) freed->push_back(runs_[i].id);
  }
  runs_.erase(runs_.begin() + 1, runs_.end());
  result.bytesOut = merged.bytes();
  return result;
}

std::uint64_t DeltaLog::totalBytes() const {
  std::uint64_t total = 0;
  for (const auto& run : runs_) total += run.bytes();
  return total;
}

std::uint64_t DeltaLog::fingerprint() const {
  std::uint64_t hash = 14695981039346656037ull;
  auto mix = [&hash](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (i * 8)) & 0xff;
      hash *= 1099511628211ull;
    }
  };
  mix(runs_.size());
  for (const auto& run : runs_) {
    mix(run.baseVersion);
    mix(run.version);
    mix(run.internalSize);
    mix(run.chunks.size());
    for (const auto& chunk : run.chunks) {
      mix(chunk.index);
      mix(chunk.bytes.size());
      for (const std::uint8_t b : chunk.bytes) {
        hash ^= b;
        hash *= 1099511628211ull;
      }
    }
  }
  return hash;
}

}  // namespace streamha
