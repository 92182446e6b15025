#include "state/tier.hpp"

#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "trace/recorder.hpp"

namespace streamha {
namespace {

TieredBackendParams tinyTiers() {
  // Small capacities so tests can fill tiers without megabytes of writes.
  TieredBackendParams params;
  params.tiers[0] = TierSpec{0.1, 10000.0, 1000};       // "dram"
  params.tiers[1] = TierSpec{100.0, 250.0, 2000};       // "ssd"
  params.tiers[2] = TierSpec{10000.0, 5.0, ~0ull};      // "hdd"
  return params;
}

struct TieredBackendFixture : ::testing::Test {
  Simulator sim;
};

TEST_F(TieredBackendFixture, WritesLandInFastestTierWithRoom) {
  TieredBackend backend(sim, tinyTiers(), 0, nullptr);
  const TierWriteResult r = backend.write(1, 600);
  EXPECT_EQ(r.tier, StorageTier::kDram);
  EXPECT_FALSE(r.spilled);
  EXPECT_EQ(backend.usedBytes(StorageTier::kDram), 600u);
  EXPECT_EQ(backend.spillCount(), 0u);
}

TEST_F(TieredBackendFixture, FullTierSpillsToNextSlower) {
  TieredBackend backend(sim, tinyTiers(), 0, nullptr);
  backend.write(1, 900);
  const TierWriteResult r = backend.write(2, 500);  // 900+500 > 1000.
  EXPECT_EQ(r.tier, StorageTier::kSsd);
  EXPECT_TRUE(r.spilled);
  EXPECT_EQ(backend.spillCount(), 1u);
  // SSD full too -> HDD takes it (the last tier absorbs any overflow).
  const TierWriteResult r2 = backend.write(3, 5000);
  EXPECT_EQ(r2.tier, StorageTier::kHdd);
  EXPECT_TRUE(r2.spilled);
}

TEST_F(TieredBackendFixture, FreeReturnsCapacityToTheTier) {
  TieredBackend backend(sim, tinyTiers(), 0, nullptr);
  backend.write(1, 900);
  EXPECT_EQ(backend.write(2, 500).tier, StorageTier::kSsd);
  backend.free(1);
  EXPECT_EQ(backend.usedBytes(StorageTier::kDram), 0u);
  EXPECT_EQ(backend.write(3, 500).tier, StorageTier::kDram);
}

TEST_F(TieredBackendFixture, RewriteFreesTheOldAllocationFirst) {
  TieredBackend backend(sim, tinyTiers(), 0, nullptr);
  backend.write(1, 900);
  // Re-writing the same allocation replaces its 900 bytes, so 950 still fits.
  const TierWriteResult r = backend.write(1, 950);
  EXPECT_EQ(r.tier, StorageTier::kDram);
  EXPECT_EQ(backend.usedBytes(StorageTier::kDram), 950u);
}

TEST_F(TieredBackendFixture, CostModelsLatencyPlusBandwidth) {
  TieredBackend backend(sim, tinyTiers(), 0, nullptr);
  // HDD: 10000 us latency + 5000 bytes / 5 B-per-us = 11000 us.
  backend.write(1, 900);
  backend.write(2, 1900);
  const TierWriteResult r = backend.write(3, 5000);
  EXPECT_EQ(r.tier, StorageTier::kHdd);
  EXPECT_EQ(r.cost, 11000);
  EXPECT_EQ(backend.readCost(StorageTier::kHdd, 5000), 11000);
  // DRAM cost is tiny but never zero (the event must advance time).
  EXPECT_GE(backend.readCost(StorageTier::kDram, 1), 1);
}

TEST_F(TieredBackendFixture, SpillEmitsTraceEvent) {
  TraceRecorder trace;
  TieredBackend backend(sim, tinyTiers(), 7, &trace);
  backend.write(1, 900);
  backend.write(2, 500);
  ASSERT_EQ(trace.events().size(), 1u);
  const TraceEvent& ev = trace.events()[0];
  EXPECT_EQ(ev.type, TraceEventType::kTierSpill);
  EXPECT_EQ(ev.machine, 7);
  EXPECT_EQ(ev.value, static_cast<std::uint64_t>(StorageTier::kSsd));
  EXPECT_EQ(ev.aux, 500u);
}

}  // namespace
}  // namespace streamha
