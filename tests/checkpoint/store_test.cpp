#include "checkpoint/store.hpp"

#include <gtest/gtest.h>

namespace streamha {
namespace {

struct StoreFixture : ::testing::Test {
  Simulator sim;
  Rng rng{13};
  std::unique_ptr<Machine> machine = std::make_unique<Machine>(sim, 0, rng);

  PeState makeState(LogicalPeId pe, ElementSeq watermark) {
    PeState state;
    state.pe = pe;
    // Real producers stamp a monotonic per-PE version (PeInstance::checkpoint);
    // the store rejects anything at or below the version it already holds.
    state.version = watermark;
    state.internal = SyntheticLogic(1.0, 64).serialize();
    state.processedWatermark[10] = watermark;
    return state;
  }
};

TEST_F(StoreFixture, StoresAndMergesPerPeStates) {
  StateStore store(sim, *machine);
  bool durable = false;
  store.storePeState(3, makeState(0, 5), [&] { durable = true; });
  EXPECT_TRUE(durable);  // Memory store: immediate.
  store.storePeState(3, makeState(1, 7), nullptr);
  const SubjobState latest = store.latest(3);
  EXPECT_EQ(latest.pes.size(), 2u);
  EXPECT_EQ(latest.pes.at(1).processedWatermark.at(10), 7u);
  EXPECT_EQ(store.writeCount(), 2u);
}

TEST_F(StoreFixture, NewerStateReplacesOlderForSamePe) {
  StateStore store(sim, *machine);
  store.storePeState(3, makeState(0, 5), nullptr);
  store.storePeState(3, makeState(0, 9), nullptr);
  EXPECT_EQ(store.latest(3).pes.at(0).processedWatermark.at(10), 9u);
}

TEST_F(StoreFixture, StaleVersionNeverOverwritesNewerState) {
  // An ARQ retry can deliver an old checkpoint ship after a newer one; the
  // version guard must drop it while still completing the write (the sender's
  // confirm flow has to resolve either way).
  StateStore store(sim, *machine);
  store.storePeState(3, makeState(0, 9), nullptr);
  bool durable = false;
  store.storePeState(3, makeState(0, 5), [&] { durable = true; });
  EXPECT_TRUE(durable);
  EXPECT_EQ(store.latest(3).pes.at(0).processedWatermark.at(10), 9u);
  EXPECT_EQ(store.staleWrites(), 1u);
}

TEST_F(StoreFixture, LatestForUnknownSubjobIsEmpty) {
  StateStore store(sim, *machine);
  EXPECT_TRUE(store.latest(42).empty());
  EXPECT_EQ(store.latest(42).subjob, 42);
}

TEST_F(StoreFixture, SubjobStateStoredWholesale) {
  StateStore store(sim, *machine);
  SubjobState state;
  state.subjob = 1;
  state.pes[0] = makeState(0, 2);
  state.pes[1] = makeState(1, 3);
  bool durable = false;
  store.storeSubjobState(state, [&] { durable = true; });
  EXPECT_TRUE(durable);
  EXPECT_EQ(store.latest(1).pes.size(), 2u);
}

TEST_F(StoreFixture, DiskPenaltyDelaysDurability) {
  StateStore::Params params;
  params.persistToDisk = true;
  params.diskBytesPerMicro = 1.0;  // Very slow disk.
  StateStore store(sim, *machine, params);
  SimTime durable_at = -1;
  store.storePeState(1, makeState(0, 1), [&] { durable_at = sim.now(); });
  EXPECT_EQ(durable_at, -1);
  sim.runAll();
  EXPECT_GT(durable_at, 100);  // Bytes / 1 B-per-us.
}

TEST_F(StoreFixture, CrashedStoreMachineDropsWrites) {
  StateStore store(sim, *machine);
  machine->crash();
  bool durable = false;
  store.storePeState(1, makeState(0, 1), [&] { durable = true; });
  sim.runAll();
  EXPECT_FALSE(durable);
  EXPECT_TRUE(store.latest(1).empty());
}

TEST_F(StoreFixture, AttachedReplicaIsRefreshedWhileSuspended) {
  StateStore store(sim, *machine);
  Network net{sim, Network::Params{}, [](MachineId) { return true; }};
  Subjob replica(sim, *machine, 1, Replica::kSecondary);
  PeParams params;
  params.logicalId = 0;
  params.outputStreams = {20};
  auto& pe = replica.addPe(std::make_unique<PeInstance>(
      *machine, net, params, std::make_unique<SyntheticLogic>(1.0, 64)));
  pe.input().subscribe(10);
  replica.suspendAll();
  store.attachReplica(1, &replica);

  store.storePeState(1, makeState(0, 6), nullptr);
  EXPECT_EQ(pe.watermarks().at(10), 6u);  // Memory refreshed directly.

  // An activated replica (switchover) is never clobbered.
  replica.unsuspendAll();
  store.storePeState(1, makeState(0, 9), nullptr);
  EXPECT_EQ(pe.watermarks().at(10), 6u);

  // Detached replicas are left alone even when suspended again.
  replica.suspendAll();
  store.detachReplica(1);
  store.storePeState(1, makeState(0, 12), nullptr);
  EXPECT_EQ(pe.watermarks().at(10), 6u);
}

// ---- Delta-mode store (state/delta.hpp) ------------------------------------

struct DeltaStoreFixture : StoreFixture {
  StateStore::Params deltaParams(std::uint32_t compactEveryRuns) {
    StateStore::Params params;
    params.delta.enabled = true;
    params.delta.chunkBytes = 64;
    params.delta.compactEveryRuns = compactEveryRuns;
    return params;
  }

  // Consecutive versions differ in at most two 64-byte chunks, so deltas are
  // genuinely smaller than the 1 KB full state.
  PeState keyedState(std::uint64_t version) {
    PeState state;
    state.pe = 0;
    state.version = version;
    state.internal.assign(1024, 0x7);
    state.internal[(version * 64) % 1024] =
        static_cast<std::uint8_t>(version);
    state.processedWatermark[10] = version * 10;
    return state;
  }

  // Ship versions 1..upTo as the manager would: v1 against the empty base,
  // each later one against its predecessor.
  void shipChain(StateStore& store, SubjobId subjob, std::uint64_t upTo) {
    PeState prev;
    for (std::uint64_t v = 1; v <= upTo; ++v) {
      const PeState next = keyedState(v);
      store.storePeDelta(
          subjob, encodeDelta(v == 1 ? nullptr : &prev, next, 64), nullptr);
      prev = next;
    }
  }
};

TEST_F(DeltaStoreFixture, StaleDeltaAfterCompactionIsConfirmedNotApplied) {
  // Regression: an ARQ retry can deliver an old delta ship after a
  // compaction cycle has already folded newer versions into one run. The
  // stale version must bump staleWrites(), leave the stored state alone, and
  // still confirm so the sender's ack flow resolves.
  StateStore store(sim, *machine, deltaParams(/*compactEveryRuns=*/2));
  shipChain(store, 3, 3);  // Versions 1..3; compaction fired at 2 runs.
  ASSERT_NE(store.deltaLog(3, 0), nullptr);
  EXPECT_GE(store.telemetry().compactions, 1u);
  const std::vector<std::uint8_t> before = store.latest(3).pes.at(0).internal;

  const PeState base1 = keyedState(1);
  const PeState v2 = keyedState(2);
  bool confirmed = false;
  store.storePeDelta(3, encodeDelta(&base1, v2, 64),
                     [&] { confirmed = true; });
  EXPECT_TRUE(confirmed);
  EXPECT_EQ(store.staleWrites(), 1u);
  EXPECT_EQ(store.telemetry().staleDeltaDrops, 1u);
  EXPECT_EQ(store.latest(3).pes.at(0).version, 3u);
  EXPECT_EQ(store.latest(3).pes.at(0).internal, before);
}

TEST_F(DeltaStoreFixture, BaseMissDropsWithoutConfirming) {
  // A delta whose base the store never materialized cannot be applied, and
  // confirming it would let the sender trim upstream queues past state the
  // store cannot reconstruct. No confirm may flow; the sender's
  // confirm-timeout handles liveness.
  StateStore store(sim, *machine, deltaParams(0));
  shipChain(store, 3, 1);
  const PeState base2 = keyedState(2);  // Never shipped.
  const PeState v3 = keyedState(3);
  bool confirmed = false;
  store.storePeDelta(3, encodeDelta(&base2, v3, 64),
                     [&] { confirmed = true; });
  EXPECT_FALSE(confirmed);
  EXPECT_EQ(store.telemetry().baseMisses, 1u);
  EXPECT_EQ(store.latest(3).pes.at(0).version, 1u);
  // The chain repairs once the missing base arrives in order.
  const PeState base1 = keyedState(1);
  store.storePeDelta(3, encodeDelta(&base1, base2, 64), nullptr);
  store.storePeDelta(3, encodeDelta(&base2, v3, 64), nullptr);
  EXPECT_EQ(store.latest(3).pes.at(0).version, 3u);
  EXPECT_EQ(store.latest(3).pes.at(0).internal, v3.internal);
}

TEST_F(DeltaStoreFixture, DeltaShipsRefreshAttachedReplica) {
  StateStore store(sim, *machine, deltaParams(0));
  Network net{sim, Network::Params{}, [](MachineId) { return true; }};
  Subjob replica(sim, *machine, 1, Replica::kSecondary);
  PeParams params;
  params.logicalId = 0;
  params.outputStreams = {20};
  auto& pe = replica.addPe(std::make_unique<PeInstance>(
      *machine, net, params, std::make_unique<SyntheticLogic>(1.0, 64)));
  pe.input().subscribe(10);
  replica.suspendAll();
  store.attachReplica(1, &replica);

  shipChain(store, 1, 2);
  EXPECT_EQ(pe.watermarks().at(10), 20u);  // keyedState(2)'s watermark.
  EXPECT_EQ(store.telemetry().deltaApplies, 2u);
}

TEST_F(DeltaStoreFixture, FullDeltaOverLargerStateLeavesNoStaleTail) {
  // A delta against the empty base (baseVersion 0) replaces whatever the slot
  // held, even a larger older state: the stored state and the refreshed
  // replica hold exactly the delta's bytes.
  StateStore store(sim, *machine, deltaParams(0));
  Network net{sim, Network::Params{}, [](MachineId) { return true; }};
  Subjob replica(sim, *machine, 1, Replica::kSecondary);
  PeParams params;
  params.logicalId = 0;
  params.outputStreams = {20};
  auto& pe = replica.addPe(std::make_unique<PeInstance>(
      *machine, net, params, std::make_unique<KeyedStateLogic>(1.0, 256, 64)));
  pe.input().subscribe(10);
  replica.suspendAll();
  store.attachReplica(1, &replica);

  PeState large = keyedState(1);  // 1 KB of 0x07.
  large.internal.back() = 0xEE;
  store.storePeDelta(1, encodeDelta(nullptr, large, 64), nullptr);
  ASSERT_EQ(store.latest(1).pes.at(0).internal.size(), 1024u);

  // The state of a 256-byte keyed PE: 24 header bytes plus the keys.
  KeyedStateLogic logic(1.0, 256, 64);
  std::vector<PeLogic::Emit> out;
  for (ElementSeq seq = 1; seq <= 5; ++seq) {
    Element e;
    e.seq = seq;
    e.value = seq * 3;
    logic.process(e, out);
  }
  PeState small;
  small.pe = 0;
  small.version = 2;
  small.internal = logic.serialize();
  small.processedWatermark[10] = 20;
  ASSERT_LT(small.internal.size(), large.internal.size());
  bool confirmed = false;
  store.storePeDelta(1, encodeDelta(nullptr, small, 64),
                     [&] { confirmed = true; });
  EXPECT_TRUE(confirmed);

  const SubjobState latest = store.latest(1);
  const PeState& stored = latest.pes.at(0);
  EXPECT_EQ(stored.version, 2u);
  EXPECT_EQ(stored.internal, small.internal);
  EXPECT_EQ(stored.processedWatermark, small.processedWatermark);
  EXPECT_EQ(pe.peekState(false, false).internal, small.internal);
  EXPECT_EQ(pe.watermarks().at(10), 20u);
}

TEST_F(DeltaStoreFixture, RestoreBytesPlansDeltaWhenTheLogChainsFromHave) {
  StateStore store(sim, *machine, deltaParams(0));
  shipChain(store, 3, 3);
  const SubjobState state = store.latest(3);

  // The primary already holds v1: only the v2 and v3 runs need to move, and
  // together they are far smaller than the 1 KB full state.
  std::map<LogicalPeId, std::uint64_t> have{{0, 1}};
  const std::uint64_t viaDelta = store.restoreBytes(3, have, state);
  EXPECT_LT(viaDelta, state.pes.at(0).sizeBytes());
  EXPECT_EQ(store.telemetry().deltaRestores, 1u);

  // A primary with nothing would need every run including the full-coverage
  // v1 run -- costlier than shipping the state wholesale, so the planner
  // falls back to the full copy.
  const std::uint64_t viaFull = store.restoreBytes(3, {}, state);
  EXPECT_EQ(viaFull, state.pes.at(0).sizeBytes());
  EXPECT_EQ(store.telemetry().fullRestores, 1u);

  // Already up to date: nothing to move.
  std::map<LogicalPeId, std::uint64_t> current{{0, 3}};
  EXPECT_EQ(store.restoreBytes(3, current, state), 0u);
}

TEST_F(DeltaStoreFixture, FullCopyShipKeepsTheLogRestorable) {
  // Grouped/synchronous checkpoints ship full states even in delta mode; the
  // store must fold them into the log as full-coverage runs so a later
  // restore can still plan from it.
  StateStore store(sim, *machine, deltaParams(0));
  store.storePeState(3, keyedState(1), nullptr);
  const PeState base1 = keyedState(1);
  const PeState v2 = keyedState(2);
  store.storePeDelta(3, encodeDelta(&base1, v2, 64), nullptr);
  const DeltaLog* log = store.deltaLog(3, 0);
  ASSERT_NE(log, nullptr);
  ASSERT_EQ(log->runs().size(), 2u);
  EXPECT_EQ(log->runs()[0].baseVersion, 0u);  // Full coverage.
  EXPECT_EQ(log->runs()[1].version, 2u);
  EXPECT_EQ(store.latest(3).pes.at(0).internal, v2.internal);
}

}  // namespace
}  // namespace streamha
