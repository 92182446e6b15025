#include "state/delta.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

namespace streamha {
namespace {

PeState makeState(std::uint64_t version, std::size_t bytes,
                  std::uint8_t fill) {
  PeState state;
  state.pe = 0;
  state.version = version;
  state.internal.assign(bytes, fill);
  state.processedWatermark[10] = version * 10;
  return state;
}

TEST(DeltaEncode, NullBaseEmitsEveryChunk) {
  const PeState next = makeState(1, 256, 0xAB);
  const PeStateDelta delta = encodeDelta(nullptr, next, 64);
  EXPECT_EQ(delta.baseVersion, 0u);
  EXPECT_EQ(delta.version, 1u);
  EXPECT_EQ(delta.chunks.size(), 4u);  // 256 / 64.
  EXPECT_EQ(delta.internalSize, 256u);
}

TEST(DeltaEncode, OnlyChangedChunksShip) {
  PeState base = makeState(1, 256, 0xAB);
  PeState next = base;
  next.version = 2;
  next.internal[70] ^= 0xFF;   // Chunk 1.
  next.internal[200] ^= 0xFF;  // Chunk 3.
  const PeStateDelta delta = encodeDelta(&base, next, 64);
  ASSERT_EQ(delta.chunks.size(), 2u);
  EXPECT_EQ(delta.chunks[0].index, 1u);  // Ascending index order.
  EXPECT_EQ(delta.chunks[1].index, 3u);
  EXPECT_EQ(delta.baseVersion, 1u);
  EXPECT_LT(delta.sizeBytes(), base.sizeBytes());
}

TEST(DeltaEncode, ApplyReconstructsNextExactly) {
  PeState base = makeState(3, 300, 0x11);  // 300: last chunk is partial.
  PeState next = base;
  next.version = 4;
  next.internal[0] = 0x22;
  next.internal[299] = 0x33;
  next.internal.resize(340, 0x44);  // State may also grow.
  next.processedWatermark[10] = 999;
  const PeStateDelta delta = encodeDelta(&base, next, 64);
  const PeState rebuilt = applyDelta(base, delta);
  EXPECT_EQ(rebuilt.version, next.version);
  EXPECT_EQ(rebuilt.internal, next.internal);
  EXPECT_EQ(rebuilt.processedWatermark, next.processedWatermark);
}

TEST(DeltaEncode, ShrinkingStateRoundtrips) {
  PeState base = makeState(1, 256, 0x55);
  PeState next = base;
  next.version = 2;
  next.internal.resize(100);
  next.internal[5] = 0x66;
  const PeState rebuilt = applyDelta(base, encodeDelta(&base, next, 64));
  EXPECT_EQ(rebuilt.internal, next.internal);
}

TEST(DeltaEncode, MatchesPerChunkReferenceDiff) {
  // States of many chunks with a few random edits, usually a partial last
  // chunk, and bases shorter or longer than `next`: exactly the chunks that
  // differ from the base, or that the base does not fully cover, ship.
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    const std::size_t size = 1000 + rng() % 5000;
    PeState base = makeState(1, size - 200 + rng() % 400, 0x3C);
    PeState next = makeState(2, size, 0x3C);
    for (std::size_t edits = rng() % 20; edits > 0; --edits) {
      next.internal[rng() % size] ^= static_cast<std::uint8_t>(1 + rng() % 255);
    }
    const PeStateDelta delta = encodeDelta(&base, next, 64);
    std::vector<std::uint32_t> expected;
    for (std::size_t begin = 0; begin < size; begin += 64) {
      const std::size_t end = std::min(size, begin + 64);
      if (base.internal.size() < end ||
          !std::equal(next.internal.begin() + begin,
                      next.internal.begin() + end,
                      base.internal.begin() + begin)) {
        expected.push_back(static_cast<std::uint32_t>(begin / 64));
      }
    }
    std::vector<std::uint32_t> shipped;
    for (const auto& chunk : delta.chunks) {
      shipped.push_back(chunk.index);
      const std::size_t begin = chunk.index * std::size_t{64};
      EXPECT_EQ(chunk.bytes.size(), std::min<std::size_t>(64, size - begin));
      EXPECT_TRUE(std::equal(chunk.bytes.begin(), chunk.bytes.end(),
                             next.internal.begin() + begin));
    }
    EXPECT_EQ(shipped, expected);
    EXPECT_EQ(applyDelta(base, delta).internal, next.internal);
  }
}

TEST(DeltaEncode, ApplyInPlaceMatchesCopyingApply) {
  // Grow, shrink, and a partial last chunk (300 = 4 * 64 + 44).
  const PeState base = makeState(5, 300, 0x21);
  for (const std::size_t size : {std::size_t{420}, std::size_t{100},
                                 std::size_t{300}}) {
    PeState next = base;
    next.version = 6;
    next.internal.resize(size, 0x5A);
    next.internal[0] ^= 0xFF;
    next.internal[size - 1] ^= 0xFF;
    next.processedWatermark[10] = 77;
    next.inputBacklog.resize(2);
    const PeStateDelta delta = encodeDelta(&base, next, 64);
    const PeState copied = applyDelta(base, delta);
    PeState inPlace = base;
    applyDeltaInPlace(inPlace, delta);
    SCOPED_TRACE(size);
    EXPECT_EQ(inPlace.pe, copied.pe);
    EXPECT_EQ(inPlace.version, copied.version);
    EXPECT_EQ(inPlace.internal, copied.internal);
    EXPECT_EQ(inPlace.internal, next.internal);
    EXPECT_EQ(inPlace.processedWatermark, copied.processedWatermark);
    EXPECT_EQ(inPlace.inputBacklog.size(), copied.inputBacklog.size());
    EXPECT_EQ(inPlace.receivedWatermark, copied.receivedWatermark);
  }
}

struct DeltaLogFixture : ::testing::Test {
  // Three versions, each dirtying chunk 0 plus one unique chunk; the merge
  // must keep the *newest* chunk-0 contents and all unique chunks.
  PeStateDelta deltaAt(std::uint64_t version) {
    PeState base = makeState(version - 1, 256, 0x00);
    PeState next = base;
    next.version = version;
    next.internal[0] = static_cast<std::uint8_t>(version);          // Chunk 0.
    next.internal[64 * (version % 3) + 1] =
        static_cast<std::uint8_t>(0x80 + version);                  // Unique-ish.
    if (version > 1) {
      base.internal[0] = static_cast<std::uint8_t>(version - 1);
    }
    return encodeDelta(version == 1 ? nullptr : &base, next, 64);
  }
};

TEST_F(DeltaLogFixture, AppendRetainsRunsInVersionOrder) {
  DeltaLog log(0);
  const std::uint64_t id1 = log.append(deltaAt(1));
  const std::uint64_t id2 = log.append(deltaAt(2));
  EXPECT_NE(id1, id2);
  ASSERT_EQ(log.runs().size(), 2u);
  EXPECT_EQ(log.runs()[0].version, 1u);
  EXPECT_EQ(log.runs()[1].version, 2u);
  EXPECT_EQ(log.newestVersion(), 2u);
}

TEST_F(DeltaLogFixture, CompactMergesNewestWinsAndKeepsOldestId) {
  DeltaLog log(0);
  const std::uint64_t oldest = log.append(deltaAt(1));
  const std::uint64_t mid = log.append(deltaAt(2));
  const std::uint64_t newest = log.append(deltaAt(3));
  std::vector<std::uint64_t> freed;
  const CompactionResult res = log.compact(&freed);
  EXPECT_EQ(res.runsMerged, 3u);
  EXPECT_GT(res.bytesIn, res.bytesOut);
  ASSERT_EQ(log.runs().size(), 1u);
  const DeltaLog::Run& merged = log.runs()[0];
  EXPECT_EQ(merged.id, oldest);
  EXPECT_EQ(merged.version, 3u);
  EXPECT_EQ((std::vector<std::uint64_t>{mid, newest}), freed);
  // Chunk 0 was written by all three deltas: the newest version's byte wins.
  ASSERT_FALSE(merged.chunks.empty());
  EXPECT_EQ(merged.chunks[0].index, 0u);
  EXPECT_EQ(merged.chunks[0].bytes[0], 3u);
}

TEST_F(DeltaLogFixture, CompactionIsDeterministic) {
  DeltaLog a(0);
  DeltaLog b(0);
  for (std::uint64_t v = 1; v <= 6; ++v) {
    a.append(deltaAt(v));
    b.append(deltaAt(v));
  }
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  a.compact(nullptr);
  b.compact(nullptr);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.totalBytes(), b.totalBytes());
}

TEST_F(DeltaLogFixture, ShouldCompactHonorsBudget) {
  DeltaLog log(2);
  EXPECT_FALSE(log.shouldCompact());
  log.append(deltaAt(1));
  EXPECT_FALSE(log.shouldCompact());
  log.append(deltaAt(2));
  EXPECT_TRUE(log.shouldCompact());
  DeltaLog never(0);
  never.append(deltaAt(1));
  never.append(deltaAt(2));
  EXPECT_FALSE(never.shouldCompact());
}

// ---- compact() against a reference merge ----------------------------------

// One random run list: a full-coverage run 0 over a 300-byte state (the last
// chunk is partial), then 1-8 sparse runs with overlapping indices. In a
// quarter of the lists the state grows, so newer runs also write chunks that
// run 0 does not have.
std::vector<PeStateDelta> randomRunList(std::mt19937_64& rng) {
  constexpr std::uint32_t kChunk = 64;
  std::vector<PeStateDelta> runs;
  std::uint64_t size = 300;
  const bool grows = rng() % 4 == 0;
  const std::size_t count = 2 + rng() % 8;
  for (std::uint64_t v = 1; v <= count; ++v) {
    if (v > 1 && grows) size += rng() % 80;
    PeStateDelta delta;
    delta.pe = 0;
    delta.version = v;
    delta.baseVersion = v - 1;
    delta.chunkBytes = kChunk;
    delta.internalSize = size;
    const std::uint32_t chunks =
        static_cast<std::uint32_t>((size + kChunk - 1) / kChunk);
    for (std::uint32_t i = 0; i < chunks; ++i) {
      if (v > 1 && rng() % 2 == 0) continue;  // Sparse after run 0.
      DeltaChunk chunk;
      chunk.index = i;
      const std::uint64_t len = std::min<std::uint64_t>(kChunk, size - i * kChunk);
      for (std::uint64_t b = 0; b < len; ++b) {
        chunk.bytes.push_back(static_cast<std::uint8_t>(rng()));
      }
      delta.chunks.push_back(std::move(chunk));
    }
    runs.push_back(std::move(delta));
  }
  return runs;
}

TEST(DeltaLogCompaction, MatchesReferenceNewestWinsMerge) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    const std::vector<PeStateDelta> deltas = randomRunList(rng);
    DeltaLog log(0);
    std::vector<std::uint64_t> ids;
    for (const auto& delta : deltas) ids.push_back(log.append(delta));

    // Reference: every chunk into a map by index, later runs overwriting.
    std::uint64_t refBytesIn = 0;
    for (const auto& run : log.runs()) refBytesIn += run.bytes();
    std::map<std::uint32_t, DeltaChunk> newest;
    std::uint64_t refDropped = 0;
    for (const auto& delta : deltas) {
      for (const auto& chunk : delta.chunks) {
        if (!newest.insert_or_assign(chunk.index, chunk).second) ++refDropped;
      }
    }
    PeStateDelta refDelta;
    refDelta.version = deltas.back().version;
    refDelta.baseVersion = deltas.front().baseVersion;
    refDelta.chunkBytes = deltas.back().chunkBytes;
    refDelta.internalSize = deltas.back().internalSize;
    for (auto& [index, chunk] : newest) refDelta.chunks.push_back(chunk);
    DeltaLog reference(0);
    reference.append(refDelta);

    std::vector<std::uint64_t> freed;
    const CompactionResult result = log.compact(&freed);
    EXPECT_EQ(result.runsMerged, deltas.size());
    EXPECT_EQ(result.chunksDropped, refDropped);
    EXPECT_EQ(result.bytesIn, refBytesIn);
    EXPECT_EQ(result.bytesOut, reference.runs()[0].bytes());
    ASSERT_EQ(log.runs().size(), 1u);
    const DeltaLog::Run& merged = log.runs()[0];
    EXPECT_EQ(merged.id, ids.front());
    EXPECT_EQ(freed, std::vector<std::uint64_t>(ids.begin() + 1, ids.end()));
    EXPECT_EQ(merged.version, refDelta.version);
    EXPECT_EQ(merged.internalSize, refDelta.internalSize);
    ASSERT_EQ(merged.chunks.size(), refDelta.chunks.size());
    for (std::size_t i = 0; i < merged.chunks.size(); ++i) {
      EXPECT_EQ(merged.chunks[i].index, refDelta.chunks[i].index);
      EXPECT_EQ(merged.chunks[i].bytes, refDelta.chunks[i].bytes);
    }
    EXPECT_EQ(log.fingerprint(), reference.fingerprint());
  }
}

}  // namespace
}  // namespace streamha
