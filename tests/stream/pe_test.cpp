#include "stream/pe.hpp"

#include <gtest/gtest.h>

namespace streamha {
namespace {

struct PeFixture : ::testing::Test {
  Simulator sim;
  Network net{sim, Network::Params{}, [](MachineId) { return true; }};
  Rng rng{5};

  std::unique_ptr<Machine> machine = std::make_unique<Machine>(sim, 0, rng);

  std::unique_ptr<PeInstance> makePe(double selectivity = 1.0,
                                     double workUs = 100.0) {
    PeParams params;
    params.logicalId = 1;
    params.name = "pe";
    params.workPerElementUs = workUs;
    params.outputStreams = {20};
    auto pe = std::make_unique<PeInstance>(
        *machine, net, params,
        std::make_unique<SyntheticLogic>(selectivity, 64));
    pe->input().subscribe(10);
    return pe;
  }

  void feed(PeInstance& pe, ElementSeq from, ElementSeq to) {
    std::vector<Element> batch;
    for (ElementSeq s = from; s <= to; ++s) {
      Element e;
      e.stream = 10;
      e.seq = s;
      e.value = s;
      e.sourceTs = sim.now();
      batch.push_back(e);
    }
    pe.input().receive(batch);
  }
};

TEST_F(PeFixture, ProcessesElementsWithCpuCost) {
  auto pe = makePe(1.0, 100.0);
  feed(*pe, 1, 3);
  sim.runUntil(250);
  EXPECT_EQ(pe->processedCount(), 2u);  // 100us each.
  sim.runUntil(1000);
  EXPECT_EQ(pe->processedCount(), 3u);
  EXPECT_EQ(pe->output().nextSeq(), 4u);  // Selectivity 1.
}

TEST_F(PeFixture, WatermarksTrackProcessedSeq) {
  auto pe = makePe();
  feed(*pe, 1, 5);
  sim.runAll();
  ASSERT_EQ(pe->watermarks().count(10), 1u);
  EXPECT_EQ(pe->watermarks().at(10), 5u);
}

TEST_F(PeFixture, SelectivityHalfEmitsEveryOther) {
  auto pe = makePe(0.5);
  feed(*pe, 1, 10);
  sim.runAll();
  EXPECT_EQ(pe->processedCount(), 10u);
  EXPECT_EQ(pe->output().nextSeq(), 6u);  // 5 outputs.
}

TEST_F(PeFixture, SelectivityTwoEmitsDouble) {
  auto pe = makePe(2.0);
  feed(*pe, 1, 4);
  sim.runAll();
  EXPECT_EQ(pe->output().nextSeq(), 9u);  // 8 outputs.
}

TEST_F(PeFixture, PauseWaitsForInFlightElement) {
  auto pe = makePe(1.0, 1000.0);
  feed(*pe, 1, 2);
  sim.runUntil(100);  // Element 1 is mid-processing.

  struct Controller : CheckpointController {
    SimTime acked_at = -1;
    Simulator* sim;
    void ackPePause(PeInstance&) override { acked_at = sim->now(); }
  } controller;
  controller.sim = &sim;

  pe->pause(controller);
  EXPECT_EQ(controller.acked_at, -1);  // Still in flight.
  sim.runUntil(5000);
  EXPECT_EQ(controller.acked_at, 1000);  // Quiesced at the element boundary.
  EXPECT_TRUE(pe->paused());
  EXPECT_EQ(pe->processedCount(), 1u);  // Element 2 not started.
  pe->resume();
  sim.runAll();
  EXPECT_EQ(pe->processedCount(), 2u);
}

TEST_F(PeFixture, PauseWhenIdleAcksImmediately) {
  auto pe = makePe();
  struct Controller : CheckpointController {
    int acks = 0;
    void ackPePause(PeInstance&) override { ++acks; }
  } controller;
  pe->pause(controller);
  EXPECT_EQ(controller.acks, 1);
  EXPECT_TRUE(pe->paused());
}

TEST_F(PeFixture, SuspensionStopsProcessingLoop) {
  auto pe = makePe();
  pe->suspend();
  feed(*pe, 1, 3);
  sim.runAll();
  EXPECT_EQ(pe->processedCount(), 0u);
  EXPECT_EQ(pe->input().size(), 3u);
  pe->unsuspend();
  sim.runAll();
  EXPECT_EQ(pe->processedCount(), 3u);
}

TEST_F(PeFixture, CheckpointCapturesStateAndQueues) {
  auto pe = makePe();
  feed(*pe, 1, 4);
  sim.runAll();
  const PeState state = pe->checkpoint(true, false);
  EXPECT_EQ(state.pe, 1);
  EXPECT_EQ(state.processedWatermark.at(10), 4u);
  ASSERT_EQ(state.ports.size(), 1u);
  EXPECT_EQ(state.ports[0].stream, 20);
  EXPECT_EQ(state.ports[0].nextSeq, 5u);
  EXPECT_EQ(state.ports[0].buffered.size(), 4u);  // Nothing acked yet.
  EXPECT_TRUE(state.inputBacklog.empty());
  EXPECT_GT(state.internal.size(), 24u);
}

TEST_F(PeFixture, ConventionalCheckpointIncludesInputBacklog) {
  auto pe = makePe(1.0, 1000.0);
  feed(*pe, 1, 5);
  sim.runUntil(1500);  // 1 processed, 1 in flight, 3 pending.
  const PeState state = pe->checkpoint(true, true);
  EXPECT_GE(state.inputBacklog.size(), 3u);
  EXPECT_EQ(state.receivedWatermark.at(10), 5u);
}

TEST_F(PeFixture, StoreJobStateRestoresLogicAndWatermarks) {
  auto peA = makePe();
  feed(*peA, 1, 6);
  sim.runAll();
  const PeState state = peA->checkpoint(true, false);

  auto peB = makePe();
  peB->storeJobState(state);
  EXPECT_EQ(peB->watermarks().at(10), 6u);
  EXPECT_EQ(peB->output().nextSeq(), 7u);
  EXPECT_EQ(peB->input().expected(10), 7u);
  // The restored logic continues the checksum chain identically.
  feed(*peB, 7, 8);
  feed(*peA, 7, 8);
  sim.runAll();
  auto& logicA = dynamic_cast<SyntheticLogic&>(peA->logic());
  auto& logicB = dynamic_cast<SyntheticLogic&>(peB->logic());
  EXPECT_EQ(logicA.checksum(), logicB.checksum());
}

TEST_F(PeFixture, StoreJobStateDropsStalePendingInput) {
  auto pe = makePe();
  pe->suspend();
  feed(*pe, 1, 6);
  PeState state;
  state.pe = 1;
  state.internal = SyntheticLogic(1.0, 64).serialize();
  state.processedWatermark[10] = 4;
  pe->storeJobState(state);
  EXPECT_EQ(pe->input().size(), 2u);  // Seqs 5, 6 remain.
  EXPECT_EQ(pe->input().expected(10), 7u);
}

TEST_F(PeFixture, RestoreInvalidatesInFlightProcessing) {
  auto pe = makePe(1.0, 1000.0);
  feed(*pe, 1, 3);
  sim.runUntil(100);  // Element 1 in flight.
  PeState state;
  state.pe = 1;
  state.internal = SyntheticLogic(1.0, 64).serialize();
  state.processedWatermark[10] = 2;  // Jump past elements 1-2.
  pe->storeJobState(state);
  sim.runAll();
  // Element 1's stale completion was discarded; only element 3 processed.
  EXPECT_EQ(pe->processedCount(), 1u);
  EXPECT_EQ(pe->watermarks().at(10), 3u);
}

TEST_F(PeFixture, TerminateStopsEverything) {
  auto pe = makePe();
  feed(*pe, 1, 3);
  pe->terminate();
  sim.runAll();
  EXPECT_EQ(pe->processedCount(), 0u);
  EXPECT_TRUE(pe->terminated());
}

TEST_F(PeFixture, FlushAcksSendsOnlyAdvancedWatermarks) {
  auto pe = makePe();
  std::vector<ElementSeq> acks;
  pe->input().addUpstream(10, [&](StreamId, ElementSeq q) { acks.push_back(q); });
  pe->input().flushAcks({{10, 5}});
  pe->input().flushAcks({{10, 5}});  // Unchanged: suppressed.
  pe->input().flushAcks({{10, 7}});
  ASSERT_EQ(acks.size(), 2u);
  EXPECT_EQ(acks[0], 5u);
  EXPECT_EQ(acks[1], 7u);
}

TEST_F(PeFixture, TerminateDisarmsAckResend) {
  auto pe = makePe();
  std::vector<ElementSeq> acks;
  pe->input().addUpstream(10,
                          [&](StreamId, ElementSeq q) { acks.push_back(q); });
  pe->input().armAckResend(sim);
  feed(*pe, 1, 2);
  sim.runUntil(kSecond);
  pe->input().flushAcks(pe->watermarks());
  ASSERT_EQ(acks.size(), 1u);
  feed(*pe, 1, 1);  // Duplicate: resent.
  EXPECT_EQ(acks.size(), 2u);
  pe->terminate();
  sim.runUntil(2 * kSecond);
  feed(*pe, 1, 1);  // A terminated copy's duplicates resend nothing.
  EXPECT_EQ(acks.size(), 2u);
}

TEST_F(PeFixture, SyntheticLogicSerializeRoundTrip) {
  SyntheticLogic a(1.0, 128);
  std::vector<PeLogic::Emit> out;
  Element e;
  e.stream = 1;
  e.seq = 1;
  e.value = 42;
  a.process(e, out);
  SyntheticLogic b(1.0, 128);
  b.deserialize(a.serialize());
  EXPECT_EQ(b.checksum(), a.checksum());
  EXPECT_EQ(b.processedCount(), 1u);
  EXPECT_EQ(a.serialize().size(), 24u + 128u);
}

TEST_F(PeFixture, SyntheticLogicBodyRepeatsTheChecksumBytes) {
  // The reference: body byte i is byte (i mod 8) of the checksum, lowest
  // first. Body sizes on and off a multiple of 8, several checksums.
  for (const std::size_t stateBytes : {0u, 1u, 7u, 8u, 9u, 64u, 2640u, 2643u}) {
    SyntheticLogic logic(1.0, stateBytes);
    std::vector<PeLogic::Emit> out;
    for (ElementSeq seq = 1; seq <= 4; ++seq) {
      const std::vector<std::uint8_t> bytes = logic.serialize();
      ASSERT_EQ(bytes.size(), 24u + stateBytes);
      const std::uint64_t checksum = logic.checksum();
      for (std::size_t i = 0; i < stateBytes; ++i) {
        ASSERT_EQ(bytes[24 + i],
                  static_cast<std::uint8_t>((checksum >> (8 * (i % 8))) & 0xFF))
            << "state " << stateBytes << " byte " << i << " seq " << seq;
      }
      Element e;
      e.stream = 1;
      e.seq = seq;
      e.value = 0x0123456789abcdefULL * seq;
      logic.process(e, out);
    }
  }
}

TEST_F(PeFixture, CrashedMachineHaltsProcessing) {
  auto pe = makePe();
  feed(*pe, 1, 2);
  sim.runUntil(150);
  machine->crash();
  sim.runAll();
  EXPECT_LE(pe->processedCount(), 1u);
}

TEST_F(PeFixture, ProcessingResumesAfterCrashRestart) {
  // Regression: a crash drops the machine's queued work, including the
  // processing completion the PE was waiting on. Without the crash hook the
  // instance came back from restart() with in_flight_ stuck true and never
  // processed again -- its input queue kept accepting while the watermark
  // froze forever.
  auto pe = makePe(1.0, 100.0);
  feed(*pe, 1, 3);
  sim.runUntil(150);  // Element 1 done, element 2 mid-flight.
  machine->crash();
  sim.runUntil(200);
  machine->restart();
  feed(*pe, 4, 6);  // More arrivals after the restart.
  sim.runAll();
  // Everything pending at the crash plus everything fed after it drains.
  EXPECT_EQ(pe->processedCount(), 6u);
  EXPECT_EQ(pe->watermarks().at(10), 6u);
}

TEST_F(PeFixture, RestartAlonePokesStalledBacklog) {
  // The restart hook itself must re-poke the loop: if no new element arrives
  // after the restart, the backlog from before the crash still drains.
  auto pe = makePe(1.0, 100.0);
  feed(*pe, 1, 4);
  sim.runUntil(150);
  machine->crash();
  sim.runUntil(200);
  machine->restart();
  sim.runAll();
  EXPECT_EQ(pe->processedCount(), 4u);
  EXPECT_EQ(pe->watermarks().at(10), 4u);
}

}  // namespace
}  // namespace streamha
