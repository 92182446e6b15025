// Write-tracked delta checkpoints.
//
// In delta mode the checkpoint manager reads a PE's state through its logic's
// write tracking instead of serializing it, keeps its confirmed base as a
// shared copy-on-write blob, and the store patches a replica that still holds
// a delta's base instead of reloading it. Each shortcut must give exactly what
// the whole-state path gives: encodeDelta on the serialized states is the
// reference for the shipped chunks, deserialize() of the patched blob the one
// for a patch.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "checkpoint/manager.hpp"
#include "checkpoint/store.hpp"
#include "common/rng.hpp"

namespace streamha {
namespace {

using Chunks = std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>>;

Chunks chunksOf(const std::vector<DeltaChunk>& chunks) {
  Chunks out;
  for (const DeltaChunk& chunk : chunks) {
    out.emplace_back(chunk.index, chunk.bytes);
  }
  return out;
}

void expectSameDelta(const PeStateDelta& actual, const PeStateDelta& expected) {
  EXPECT_EQ(actual.pe, expected.pe);
  EXPECT_EQ(actual.version, expected.version);
  EXPECT_EQ(actual.baseVersion, expected.baseVersion);
  EXPECT_EQ(actual.chunkBytes, expected.chunkBytes);
  EXPECT_EQ(actual.internalSize, expected.internalSize);
  EXPECT_EQ(chunksOf(actual.chunks), chunksOf(expected.chunks));
  EXPECT_EQ(actual.processedWatermark, expected.processedWatermark);
}

PeState stateOf(std::uint64_t version, std::vector<std::uint8_t> internal) {
  PeState state;
  state.pe = 0;
  state.version = version;
  state.internal = std::move(internal);
  return state;
}

// ---- The logic's tracking against encodeDelta ------------------------------

/// Drives a 32-key KeyedStateLogic through random steps: processing, captures
/// (some confirmed as the next base, some abandoned), loads of older blobs,
/// chunk patches toward them, resets and forgotten bases. Every capture's
/// tracked delta must equal encodeDelta on the serialized states, and a copy
/// holding the base must take it as a patch.
void checkRandomSteps(std::uint32_t chunkBytes) {
  constexpr std::size_t kStateBytes = 2048;
  constexpr std::size_t kKeyBytes = 64;
  KeyedStateLogic logic(1.0, kStateBytes, kKeyBytes);
  Rng rng(chunkBytes);
  std::vector<std::vector<std::uint8_t>> history{logic.serialize()};
  std::shared_ptr<DeltaBase> base;  // The confirmed base; null: none.
  std::uint64_t version = 0;
  std::uint64_t value = 0;
  std::vector<PeLogic::Emit> out;
  int captures = 0;
  for (int step = 0; step < 400; ++step) {
    const std::int64_t action = rng.uniformInt(0, 9);
    if (action <= 4) {
      for (std::int64_t n = rng.uniformInt(1, 4); n > 0; --n) {
        Element e;
        e.seq = static_cast<ElementSeq>(rng.uniformInt(1, 1000));
        e.value = ++value;
        logic.process(e, out);
      }
    } else if (action <= 7) {
      // A capture, as the manager makes it: mark, then encode on the base.
      ++captures;
      const std::uint64_t mark = logic.markWrites();
      PeState captured = stateOf(++version, {});
      captured.processedWatermark[10] = value;
      PeState next = captured;
      next.internal = logic.serialize();
      const PeState baseState =
          base != nullptr ? stateOf(base->version, base->internal) : PeState{};
      const PeStateDelta tracked =
          encodeWrittenDelta(base.get(), logic, captured, chunkBytes);
      const PeState* reference = base != nullptr ? &baseState : nullptr;
      expectSameDelta(tracked, encodeDelta(reference, next, chunkBytes));
      KeyedStateLogic patched(1.0, kStateBytes, kKeyBytes);
      if (base != nullptr) patched.deserialize(base->internal);
      ASSERT_TRUE(patched.patchSerialized(tracked));
      KeyedStateLogic reloaded(1.0, kStateBytes, kKeyBytes);
      reloaded.deserialize(applyDelta(baseState, tracked).internal);
      EXPECT_EQ(patched.serialize(), reloaded.serialize());
      EXPECT_EQ(patched.serialize(), next.internal);
      // An abandoned capture leaves the base older, so the next one reads
      // the writes since several marks.
      if (rng.chance(0.7)) {
        base = std::make_shared<DeltaBase>(
            DeltaBase{version, mark, std::move(next.internal)});
      }
    } else if (action == 8) {
      // Load an older state: whole, or as a chunk patch toward it.
      const std::vector<std::uint8_t>& older = history[static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(history.size()) - 1))];
      if (rng.chance(0.5)) {
        logic.deserialize(older);
      } else {
        const PeState from = stateOf(0, logic.serialize());
        ASSERT_TRUE(logic.patchSerialized(
            encodeDelta(&from, stateOf(0, older), chunkBytes)));
        ASSERT_EQ(logic.serialize(), older);
      }
    } else if (rng.chance(0.5)) {
      logic.reset();
    } else {
      base.reset();  // resetDeltaBase: the next capture ships in full.
    }
    history.push_back(logic.serialize());
  }
  EXPECT_GT(captures, 60);
}

TEST(WriteTracking, TrackedDeltaMatchesEncodeDeltaWith64ByteChunks) {
  // The 24-byte header shifts every 64-byte key region across two chunks.
  checkRandomSteps(64);
}

TEST(WriteTracking, TrackedDeltaMatchesEncodeDeltaWithChunksStraddlingKeys) {
  // 100-byte chunks cut key regions at varying offsets.
  checkRandomSteps(100);
}

TEST(WriteTracking, UntrackedLogicReadsEveryChunkAndDeclinesPatches) {
  // SyntheticLogic keeps PeLogic's defaults: every chunk counts as written,
  // so the tracked delta is the full diff, and a patch is declined.
  SyntheticLogic logic(1.0, 300);
  std::vector<PeLogic::Emit> out;
  Element e;
  for (e.seq = 1; e.seq <= 5; ++e.seq) logic.process(e, out);
  const DeltaBase base{1, logic.markWrites(), logic.serialize()};
  for (; e.seq <= 9; ++e.seq) logic.process(e, out);
  std::vector<std::uint32_t> chunks;
  EXPECT_EQ(logic.writtenChunks(base.mark, 64, chunks), 324u);
  EXPECT_EQ(chunks, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5}));
  const PeState baseState = stateOf(1, base.internal);
  const PeStateDelta delta =
      encodeWrittenDelta(&base, logic, stateOf(2, {}), 64);
  expectSameDelta(delta,
                  encodeDelta(&baseState, stateOf(2, logic.serialize()), 64));
  SyntheticLogic copy(1.0, 300);
  copy.deserialize(base.internal);
  EXPECT_FALSE(copy.patchSerialized(delta));
  EXPECT_EQ(copy.serialize(), base.internal);
}

// ---- The manager's copy-on-write base ---------------------------------------

/// A primary PE with 1 KB of keyed state (16 keys) on machine 0 whose delta
/// checkpoints ship to a store on machine 1 that keeps every run. `delay`
/// holds back the next message of one kind.
struct DeltaRig {
  Simulator sim;
  Network net{sim, Network::Params{}, [](MachineId) { return true; }};
  Rng rng{5};
  Machine machine{sim, 0, rng.fork(0)};
  Machine storeMachine{sim, 1, rng.fork(1)};
  Subjob subjob{sim, machine, 0, Replica::kPrimary};
  StateStore store{sim, storeMachine, storeParams()};
  PeInstance* pe = nullptr;
  ElementSeq fed = 0;
  MsgKind delayKind = MsgKind::kData;
  SimDuration delayBy = 0;

  static StateStore::Params storeParams() {
    StateStore::Params params;
    params.delta.enabled = true;
    params.delta.chunkBytes = 64;
    params.delta.compactEveryRuns = 0;
    return params;
  }

  DeltaRig() {
    PeParams params;
    params.logicalId = 0;
    params.outputStreams = {10};
    pe = &subjob.addPe(std::make_unique<PeInstance>(
        machine, net, std::move(params),
        std::make_unique<KeyedStateLogic>(1.0, 1024, 64)));
    pe->input().subscribe(9);
    pe->input().addUpstream(9, [](StreamId, ElementSeq) {});
    net.setFault([this](MachineId, MachineId, MsgKind kind, std::size_t) {
      Network::FaultDecision decision;
      if (delayBy > 0 && kind == delayKind) {
        decision.extraDelay = delayBy;
        delayBy = 0;
      }
      return decision;
    });
  }

  void delay(MsgKind kind, SimDuration by) {
    delayKind = kind;
    delayBy = by;
  }

  /// Feeds the next `n` elements and runs until they are processed.
  void feed(ElementSeq n) {
    std::vector<Element> batch;
    for (ElementSeq i = 0; i < n; ++i) {
      Element e;
      e.stream = 9;
      e.seq = ++fed;
      e.value = fed * 7;
      batch.push_back(e);
    }
    pe->input().receive(batch);
    sim.runUntil(sim.now() + 50 * kMillisecond);
  }

  std::vector<std::uint8_t> serialized() const {
    return pe->logic().serialize();
  }
};

TEST(WriteTracking, LateConfirmPatchesACopyOfASharedBase) {
  // Attempt 2's confirm-timeout fires, attempt 3 encodes on the same base
  // (version 1), attempt 2's confirm lands late, then attempt 3's. The late
  // confirm must advance the base on a copy: patching the shared blob in
  // place would leave attempt 3's confirm a base of version 1 plus both
  // deltas. Restores of older blobs between the attempts make that
  // observable: the chunks attempt 2 changed are back at their version-1
  // bytes in version 3, and back at attempt 2's bytes in version 4.
  DeltaRig rig;
  CheckpointManager::Params params;
  params.interval = 10 * kSecond;  // Only checkpointAllNow() checkpoints.
  params.confirmTimeout = kSecond;
  SweepingCheckpointManager cm(rig.sim, rig.net, rig.subjob, rig.store,
                               params);

  rig.feed(10);
  const std::vector<std::uint8_t> v1 = rig.serialized();
  cm.checkpointAllNow(nullptr);
  rig.sim.runUntil(rig.sim.now() + 100 * kMillisecond);
  ASSERT_EQ(cm.stats().checkpoints, 1u);

  rig.feed(5);
  const std::vector<std::uint8_t> v2 = rig.serialized();
  rig.delay(MsgKind::kCheckpoint, 1500 * kMillisecond);
  cm.checkpointAllNow(nullptr);
  rig.sim.runUntil(rig.sim.now() + 1100 * kMillisecond);
  ASSERT_FALSE(cm.checkpointInFlight(*rig.pe));  // Timed out.

  rig.pe->logic().deserialize(v1);
  rig.feed(5);
  const std::vector<std::uint8_t> v3 = rig.serialized();
  rig.delay(MsgKind::kControl, 600 * kMillisecond);  // Attempt 3's confirm.
  cm.checkpointAllNow(nullptr);
  rig.sim.runUntil(rig.sim.now() + kSecond);
  ASSERT_EQ(cm.stats().checkpoints, 3u);
  ASSERT_EQ(cm.stats().staleConfirms, 1u);  // Attempt 2's, before 3's.
  ASSERT_EQ(rig.store.latest(0).pes.at(0).version, 3u);

  rig.pe->logic().deserialize(v2);
  rig.feed(5);
  const std::vector<std::uint8_t> v4 = rig.serialized();
  cm.checkpointAllNow(nullptr);
  rig.sim.runUntil(rig.sim.now() + 100 * kMillisecond);
  ASSERT_EQ(cm.stats().checkpoints, 4u);

  const DeltaLog* log = rig.store.deltaLog(0, 0);
  ASSERT_NE(log, nullptr);
  const DeltaLog::Run& last = log->runs().back();
  EXPECT_EQ(last.baseVersion, 3u);
  EXPECT_EQ(last.version, 4u);
  const PeState base = stateOf(3, v3);
  EXPECT_EQ(chunksOf(last.chunks),
            chunksOf(encodeDelta(&base, stateOf(4, v4), 64).chunks));
  EXPECT_EQ(rig.store.latest(0).pes.at(0).internal, v4);
}

// ---- The store's replica patch ---------------------------------------------

/// KeyedStateLogic that counts how its state gets loaded.
class CountingKeyedLogic : public KeyedStateLogic {
 public:
  using KeyedStateLogic::KeyedStateLogic;
  void deserialize(const std::vector<std::uint8_t>& bytes) override {
    ++reloads;
    KeyedStateLogic::deserialize(bytes);
  }
  bool patchSerialized(const PeStateDelta& delta) override {
    const bool patched = KeyedStateLogic::patchSerialized(delta);
    if (patched) ++patches;
    return patched;
  }
  int reloads = 0;
  int patches = 0;
};

/// A suspended keyed replica attached to a delta-mode store, and the
/// primary's logic whose states the store receives as deltas.
struct ReplicaRig {
  Simulator sim;
  Rng rng{13};
  Machine machine{sim, 0, rng};
  Network net{sim, Network::Params{}, [](MachineId) { return true; }};
  StateStore store{sim, machine, DeltaRig::storeParams()};
  Subjob replica{sim, machine, 1, Replica::kSecondary};
  PeInstance* replicaPe = nullptr;
  CountingKeyedLogic* replicaLogic = nullptr;
  KeyedStateLogic primary{1.0, 1024, 64};
  PeState shipped;  ///< The store's latest state of the PE.
  ElementSeq seq = 0;

  ReplicaRig() {
    PeParams params;
    params.logicalId = 0;
    params.outputStreams = {20};
    auto logic = std::make_unique<CountingKeyedLogic>(1.0, 1024, 64);
    replicaLogic = logic.get();
    replicaPe = &replica.addPe(std::make_unique<PeInstance>(
        machine, net, std::move(params), std::move(logic)));
    replicaPe->input().subscribe(10);
    replicaPe->input().addUpstream(10, [](StreamId, ElementSeq) {});
    replica.suspendAll();
    store.attachReplica(1, &replica);
  }

  /// The primary processes `n` more elements, and the store receives its
  /// state as a delta on the last one shipped.
  void ship(ElementSeq n) {
    std::vector<PeLogic::Emit> out;
    for (ElementSeq i = 0; i < n; ++i) {
      Element e;
      e.stream = 10;
      e.seq = ++seq;
      e.value = seq * 7;
      primary.process(e, out);
    }
    PeState next = stateOf(shipped.version + 1, primary.serialize());
    next.processedWatermark[10] = seq;
    store.storePeDelta(
        1, encodeDelta(shipped.version == 0 ? nullptr : &shipped, next, 64),
        nullptr);
    shipped = std::move(next);
  }

  bool replicaHoldsShipped() const {
    return replicaLogic->serialize() == shipped.internal;
  }
};

TEST(WriteTracking, UntouchedReplicaTakesEachDeltaAsAPatch) {
  ReplicaRig rig;
  rig.ship(10);  // Against the empty base: a full reload.
  EXPECT_EQ(rig.replicaLogic->reloads, 1);
  rig.ship(3);
  rig.ship(3);
  EXPECT_EQ(rig.replicaLogic->reloads, 1);
  EXPECT_EQ(rig.replicaLogic->patches, 2);
  EXPECT_TRUE(rig.replicaHoldsShipped());
  EXPECT_EQ(rig.replicaPe->watermarks().at(10), 16u);
}

TEST(WriteTracking, ReplicaThatProcessedAnElementReloadsInFull) {
  ReplicaRig rig;
  rig.ship(10);
  rig.ship(3);
  ASSERT_EQ(rig.replicaLogic->patches, 1);
  // A switchover window: the replica runs and processes element 14 itself.
  rig.replica.unsuspendAll();
  Element e;
  e.stream = 10;
  e.seq = 14;
  e.value = 999;
  rig.replicaPe->input().receive(std::vector<Element>{e});
  rig.sim.runUntil(rig.sim.now() + 10 * kMillisecond);
  rig.replica.suspendAll();
  ASSERT_EQ(rig.replicaPe->processedCount(), 1u);

  rig.ship(3);
  EXPECT_EQ(rig.replicaLogic->reloads, 2);
  EXPECT_EQ(rig.replicaLogic->patches, 1);
  EXPECT_TRUE(rig.replicaHoldsShipped());
  rig.ship(3);  // Untouched since that reload: a patch again.
  EXPECT_EQ(rig.replicaLogic->patches, 2);
  EXPECT_TRUE(rig.replicaHoldsShipped());
}

TEST(WriteTracking, ReplicaLoadedElsewhereReloadsInFull) {
  ReplicaRig rig;
  rig.ship(10);
  rig.ship(3);
  ASSERT_EQ(rig.replicaLogic->patches, 1);
  // Another state loaded behind the store's back (a switchover adoption):
  // the empty keyed state at the shipped watermarks.
  PeState other = rig.shipped;
  other.internal = KeyedStateLogic(1.0, 1024, 64).serialize();
  rig.replicaPe->storeJobState(other);
  ASSERT_EQ(rig.replicaLogic->reloads, 2);

  rig.ship(3);  // A patch would leave the replica the empty state's keys.
  EXPECT_EQ(rig.replicaLogic->reloads, 3);
  EXPECT_EQ(rig.replicaLogic->patches, 1);
  EXPECT_TRUE(rig.replicaHoldsShipped());
}

}  // namespace
}  // namespace streamha
