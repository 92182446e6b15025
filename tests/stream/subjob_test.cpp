#include "stream/subjob.hpp"

#include <gtest/gtest.h>

namespace streamha {
namespace {

struct SubjobFixture : ::testing::Test {
  Simulator sim;
  Network net{sim, Network::Params{}, [](MachineId) { return true; }};
  Rng rng{23};
  std::unique_ptr<Machine> machine = std::make_unique<Machine>(sim, 0, rng);

  std::unique_ptr<Subjob> makeSubjob(int pes = 2) {
    auto subjob = std::make_unique<Subjob>(sim, *machine, 5, Replica::kPrimary);
    for (int i = 0; i < pes; ++i) {
      PeParams params;
      params.logicalId = i;
      params.name = "pe" + std::to_string(i);
      params.workPerElementUs = 100.0;
      params.outputStreams = {static_cast<StreamId>(100 + i)};
      auto& pe = subjob->addPe(std::make_unique<PeInstance>(
          *machine, net, std::move(params),
          std::make_unique<SyntheticLogic>(1.0, 64)));
      pe.input().subscribe(static_cast<StreamId>(99 + i));
    }
    return subjob;
  }

  static void feed(PeInstance& pe, StreamId stream, ElementSeq from,
                   ElementSeq to) {
    std::vector<Element> batch;
    for (ElementSeq s = from; s <= to; ++s) {
      Element e;
      e.stream = stream;
      e.seq = s;
      batch.push_back(e);
    }
    pe.input().receive(batch);
  }
};

TEST_F(SubjobFixture, IdentityAndLookup) {
  auto subjob = makeSubjob(3);
  EXPECT_EQ(subjob->logicalId(), 5);
  EXPECT_EQ(subjob->replica(), Replica::kPrimary);
  EXPECT_EQ(subjob->peCount(), 3u);
  EXPECT_EQ(subjob->peByLogicalId(1), &subjob->pe(1));
  EXPECT_EQ(subjob->peByLogicalId(9), nullptr);
  EXPECT_EQ(&subjob->firstPe(), &subjob->pe(0));
  EXPECT_EQ(&subjob->lastPe(), &subjob->pe(2));
  EXPECT_TRUE(subjob->alive());
}

TEST_F(SubjobFixture, SuspendAllStopsAndResumes) {
  auto subjob = makeSubjob();
  subjob->suspendAll();
  EXPECT_TRUE(subjob->suspended());
  feed(subjob->pe(0), 99, 1, 5);
  sim.runAll();
  EXPECT_EQ(subjob->processedCount(), 0u);
  subjob->unsuspendAll();
  sim.runAll();
  EXPECT_EQ(subjob->processedCount(), 5u);
}

TEST_F(SubjobFixture, PesAddedToSuspendedSubjobStartSuspended) {
  auto subjob = makeSubjob(1);
  subjob->suspendAll();
  PeParams params;
  params.logicalId = 7;
  params.outputStreams = {200};
  auto& pe = subjob->addPe(std::make_unique<PeInstance>(
      *machine, net, std::move(params),
      std::make_unique<SyntheticLogic>(1.0, 64)));
  EXPECT_TRUE(pe.suspended());
}

TEST_F(SubjobFixture, TerminateIsFinal) {
  auto subjob = makeSubjob();
  subjob->terminateAll();
  EXPECT_TRUE(subjob->terminated());
  EXPECT_FALSE(subjob->alive());
  feed(subjob->pe(0), 99, 1, 3);
  sim.runAll();
  EXPECT_EQ(subjob->processedCount(), 0u);
}

TEST_F(SubjobFixture, AliveTracksMachine) {
  auto subjob = makeSubjob();
  machine->crash();
  EXPECT_FALSE(subjob->alive());
  machine->restart();
  EXPECT_TRUE(subjob->alive());
}

TEST_F(SubjobFixture, CaptureAndApplyStateRoundTrip) {
  auto a = makeSubjob();
  feed(a->pe(0), 99, 1, 4);
  feed(a->pe(1), 100, 1, 2);
  sim.runAll();
  const SubjobState state = a->captureState(true, false);
  EXPECT_EQ(state.subjob, 5);
  EXPECT_EQ(state.pes.size(), 2u);

  auto b = makeSubjob();
  b->applyState(state);
  EXPECT_EQ(b->pe(0).watermarks().at(99), 4u);
  EXPECT_EQ(b->pe(1).watermarks().at(100), 2u);
  EXPECT_EQ(b->pe(0).output(0).nextSeq(), a->pe(0).output(0).nextSeq());
}

TEST_F(SubjobFixture, StateVersionsIncrease) {
  auto subjob = makeSubjob();
  const auto v1 = subjob->captureState(false, false).version;
  const auto v2 = subjob->captureState(false, false).version;
  EXPECT_GT(v2, v1);
}

TEST_F(SubjobFixture, AckPolicyAppliesToAllPes) {
  auto subjob = makeSubjob();
  subjob->setAckPolicy(AckPolicy::kOnCheckpoint);
  EXPECT_EQ(subjob->pe(0).ackPolicy(), AckPolicy::kOnCheckpoint);
  EXPECT_EQ(subjob->pe(1).ackPolicy(), AckPolicy::kOnCheckpoint);
}

TEST_F(SubjobFixture, AckTimerFlushesProcessedAcks) {
  auto subjob = makeSubjob(1);
  std::vector<ElementSeq> acks;
  subjob->pe(0).input().addUpstream(
      99, [&](StreamId, ElementSeq q) { acks.push_back(q); });
  subjob->setAckPolicy(AckPolicy::kOnProcess);
  subjob->startAckTimer();
  feed(subjob->pe(0), 99, 1, 3);
  sim.runUntil(200 * kMillisecond);
  ASSERT_FALSE(acks.empty());
  EXPECT_EQ(acks.back(), 3u);
  subjob->stopAckTimer();
  feed(subjob->pe(0), 99, 4, 4);
  const auto count = acks.size();
  sim.runUntil(500 * kMillisecond);
  EXPECT_EQ(acks.size(), count);
}

}  // namespace
}  // namespace streamha
