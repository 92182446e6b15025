#include "checkpoint/manager.hpp"

#include <gtest/gtest.h>

#include "exp/scenario.hpp"

namespace streamha {
namespace {

ScenarioParams baseParams(CheckpointKind kind) {
  ScenarioParams p;
  p.mode = HaMode::kPassiveStandby;
  p.checkpointKind = kind;
  p.checkpointInterval = 50 * kMillisecond;
  p.duration = 5 * kSecond;
  p.seed = 21;
  return p;
}

TEST(CheckpointManager, SweepingCheckpointsAndReleasesAcks) {
  Scenario s(baseParams(CheckpointKind::kSweeping));
  s.build();
  s.warmup();
  s.run(5 * kSecond);
  auto* cm = s.coordinatorFor(2)->checkpointManager();
  ASSERT_NE(cm, nullptr);
  EXPECT_STREQ(cm->name(), "sweeping");
  EXPECT_GT(cm->stats().checkpoints, 50u);
  EXPECT_GT(cm->stats().bytes, 0u);
  // Acks flowed after checkpoints: the upstream subjob's boundary queue has
  // been trimmed close to its head.
  Subjob* upstream = s.runtime().instanceOf(1, Replica::kPrimary);
  OutputQueue& boundary = upstream->lastPe().output(0);
  EXPECT_GT(boundary.trimmedUpTo(), 1000u);
  EXPECT_LT(boundary.bufferedCount(), 500u);
}

TEST(CheckpointManager, SweepingRespectsIntervalCooldown) {
  Scenario s(baseParams(CheckpointKind::kSweeping));
  s.build();
  s.warmup();
  s.run(5 * kSecond);
  auto* cm = s.coordinatorFor(2)->checkpointManager();
  // 2 PEs, 50 ms interval, 7 s total (2 s warmup + 5 s): at most
  // 2 * 7s/50ms = 280 plus a little slack.
  EXPECT_LE(cm->stats().checkpoints, 300u);
  EXPECT_GE(cm->stats().checkpoints, 200u);
}

TEST(CheckpointManager, SynchronousCheckpointsWholeSubjob) {
  Scenario s(baseParams(CheckpointKind::kSynchronous));
  s.build();
  s.warmup();
  s.run(5 * kSecond);
  auto* cm = s.coordinatorFor(2)->checkpointManager();
  EXPECT_STREQ(cm->name(), "synchronous");
  EXPECT_TRUE(cm->includesInputQueues());
  // One grouped checkpoint per 50 ms interval over ~7 s (warmup + run),
  // not one per PE.
  EXPECT_GT(cm->stats().checkpoints, 100u);
  EXPECT_LT(cm->stats().checkpoints, 160u);
  EXPECT_GT(cm->stats().latencyMs.mean(), 0.0);
}

TEST(CheckpointManager, IndividualCheckpointsPerPe) {
  Scenario s(baseParams(CheckpointKind::kIndividual));
  s.build();
  s.warmup();
  s.run(5 * kSecond);
  auto* cm = s.coordinatorFor(2)->checkpointManager();
  EXPECT_STREQ(cm->name(), "individual");
  // Two PEs, each on its own 50 ms timer, over ~7 s.
  EXPECT_GT(cm->stats().checkpoints, 220u);
  EXPECT_LT(cm->stats().checkpoints, 300u);
}

TEST(CheckpointManager, SweepingShipsFewerElementsThanConventional) {
  std::uint64_t sweeping_elements = 0, individual_elements = 0;
  {
    Scenario s(baseParams(CheckpointKind::kSweeping));
    s.build();
    s.warmup();
    s.run(5 * kSecond);
    const auto& st = s.coordinatorFor(2)->checkpointManager()->stats();
    sweeping_elements = st.elements * 100 / std::max<std::uint64_t>(1, st.checkpoints);
  }
  {
    Scenario s(baseParams(CheckpointKind::kIndividual));
    s.build();
    s.warmup();
    s.run(5 * kSecond);
    const auto& st = s.coordinatorFor(2)->checkpointManager()->stats();
    individual_elements = st.elements * 100 / std::max<std::uint64_t>(1, st.checkpoints);
  }
  // Sweeping checkpoints right after trims and never ships input queues, so
  // its per-checkpoint element count is smaller.
  EXPECT_LT(sweeping_elements, individual_elements);
}

TEST(CheckpointManager, SweepingPausesAreShorterThanSynchronous) {
  double sweeping_pause = 0, synchronous_pause = 0;
  {
    Scenario s(baseParams(CheckpointKind::kSweeping));
    s.build();
    s.warmup();
    s.run(5 * kSecond);
    sweeping_pause =
        s.coordinatorFor(2)->checkpointManager()->stats().pauseMs.mean();
  }
  {
    Scenario s(baseParams(CheckpointKind::kSynchronous));
    s.build();
    s.warmup();
    s.run(5 * kSecond);
    synchronous_pause =
        s.coordinatorFor(2)->checkpointManager()->stats().pauseMs.mean();
  }
  EXPECT_LE(sweeping_pause, synchronous_pause);
}

TEST(CheckpointManager, StopFencesFurtherAcks) {
  Scenario s(baseParams(CheckpointKind::kSweeping));
  s.build();
  s.warmup();
  s.run(kSecond);
  auto* cm = s.coordinatorFor(2)->checkpointManager();
  Subjob* upstream = s.runtime().instanceOf(1, Replica::kPrimary);
  OutputQueue& boundary = upstream->lastPe().output(0);
  cm->stop();
  EXPECT_TRUE(cm->stopped());
  const ElementSeq trimmed = boundary.trimmedUpTo();
  s.run(2 * kSecond);
  // No ack may advance the upstream trim point after the fence (a short
  // grace for in-flight acks issued before the fence).
  EXPECT_LE(boundary.trimmedUpTo(), trimmed + 50);
}

TEST(CheckpointManager, CheckpointAllNowCompletesAndBumpsVersions) {
  Scenario s(baseParams(CheckpointKind::kSweeping));
  s.build();
  s.warmup();
  auto* cm = s.coordinatorFor(2)->checkpointManager();
  const auto before = cm->stats().checkpoints;
  bool done = false;
  cm->checkpointAllNow([&] { done = true; });
  s.run(kSecond);
  EXPECT_TRUE(done);
  EXPECT_GE(cm->stats().checkpoints, before + 2);
}

TEST(CheckpointManager, SweepingFallbackTimerKeepsCheckpointingWithoutTrims) {
  // A subjob that receives no data sees no acks and no trims; the fallback
  // timer must still drive periodic checkpoints so a restore point exists.
  Simulator sim;
  Network net{sim, Network::Params{}, [](MachineId) { return true; }};
  Rng rng(3);
  Machine machine(sim, 0, rng.fork(0));
  Machine storeMachine(sim, 1, rng.fork(1));
  Subjob subjob(sim, machine, 0, Replica::kPrimary);
  PeParams params;
  params.logicalId = 0;
  params.outputStreams = {10};
  auto& pe = subjob.addPe(std::make_unique<PeInstance>(
      machine, net, std::move(params),
      std::make_unique<SyntheticLogic>(1.0, 64)));
  pe.input().subscribe(9);
  StateStore store(sim, storeMachine);
  CheckpointManager::Params cmParams;
  cmParams.interval = 50 * kMillisecond;
  SweepingCheckpointManager cm(sim, net, subjob, store, cmParams);
  cm.start();
  sim.runUntil(kSecond);
  EXPECT_GT(cm.stats().checkpoints, 5u);
  EXPECT_FALSE(store.latest(0).empty());
  cm.stop();
}

TEST(CheckpointManager, StopWithdrawsAPendingPause) {
  // Regression: retiring a manager (standby redeploys under churn) between
  // pause() and the PE's ack left the request to complete into enterPaused()
  // after the waiters were cleared -- nothing ever resumed the processing
  // loop and the subjob wedged with a full input queue. stop() must withdraw
  // the pending pause along with the waiter.
  Simulator sim;
  Network net{sim, Network::Params{}, [](MachineId) { return true; }};
  Rng rng(3);
  Machine machine(sim, 0, rng.fork(0));
  Machine storeMachine(sim, 1, rng.fork(1));
  Subjob subjob(sim, machine, 0, Replica::kPrimary);
  PeParams params;
  params.logicalId = 0;
  params.outputStreams = {10};
  auto& pe = subjob.addPe(std::make_unique<PeInstance>(
      machine, net, std::move(params),
      std::make_unique<SyntheticLogic>(1.0, 64)));
  pe.input().subscribe(9);
  StateStore store(sim, storeMachine);
  CheckpointManager::Params cmParams;
  cmParams.interval = 10 * kSecond;  // No interval checkpoint interferes.
  SweepingCheckpointManager cm(sim, net, subjob, store, cmParams);

  std::vector<Element> batch;
  for (ElementSeq seq = 1; seq <= 10; ++seq) {
    Element e;
    e.stream = 9;
    e.seq = seq;
    batch.push_back(e);
  }
  pe.input().receive(batch);     // Arrival listener starts the first element.
  ASSERT_TRUE(pe.inFlight());
  cm.checkpointAllNow(nullptr, /*atomic=*/true);  // Pause goes pending.
  cm.stop();                     // The retire fence, mid-handshake.
  sim.runUntil(kSecond);
  EXPECT_FALSE(pe.paused());
  EXPECT_EQ(pe.output(0).nextSeq(), 11u);  // All ten elements processed.
}

TEST(CheckpointManager, DiskStoreDelaysAckRelease) {
  // With a slow disk store the ack (which trims upstream) must lag the
  // in-memory configuration.
  auto measure = [](bool disk) {
    ScenarioParams p;
    p.mode = HaMode::kPassiveStandby;
    p.store.persistToDisk = disk;
    p.store.diskBytesPerMicro = 0.5;  // Extremely slow disk.
    p.duration = 5 * kSecond;
    p.seed = 21;
    Scenario s(p);
    s.build();
    s.warmup();
    s.run(5 * kSecond);
    return s.coordinatorFor(2)->checkpointManager()->stats().latencyMs.mean();
  };
  EXPECT_GT(measure(true), 2.0 * measure(false));
}

TEST(CheckpointManager, LateConfirmCannotRetireANewerAttempt) {
  // Regression for the lossy-control latent bug: with confirms riding a
  // delaying network, a confirm can land after its confirm-timeout already
  // abandoned the attempt and a NEWER attempt is in flight. The pre-token
  // code erased the in-flight entry unconditionally, so the late confirm
  // retired the newer attempt's guard and the manager double-tracked the PE.
  // With per-attempt tokens the late confirm is counted as stale and the
  // newer attempt keeps its slot.
  ScenarioParams p;
  p.mode = HaMode::kHybrid;
  p.protectedSubjobs = {1, 2, 3};
  p.duration = 10 * kSecond;
  p.seed = 33;
  // Every control message is held back by 1..2s; the confirm-timeout that a
  // non-empty fault schedule arms is 1s, so a large share of confirms arrive
  // after their attempt has been abandoned. Data, checkpoint ships and
  // heartbeats are untouched: no failovers, only late confirms.
  LinkFaultRule rule;
  rule.kinds = maskOf(MsgKind::kControl);
  rule.delayProb = 1.0;
  rule.maxExtraDelay = 2 * kSecond;
  p.faults.links.push_back(rule);
  Scenario s(p);
  s.build();
  s.start();
  s.run(p.duration);
  s.drain(10 * kSecond);
  const ScenarioResult r = s.collect();
  auto* cm = s.coordinatorFor(1)->checkpointManager();
  ASSERT_NE(cm, nullptr);
  EXPECT_GT(cm->stats().staleConfirms, 0u);   // The race actually occurred.
  EXPECT_GT(cm->stats().checkpoints, 10u);    // Progress was never wedged.
  // One slot per PE, ever: stale confirms must not free a busy slot (the
  // old bug) and abandoned attempts must not leak slots. Attempts started
  // just before the run ends may legitimately still be in flight.
  EXPECT_LE(cm->inFlightCheckpoints(), s.runtime().spec().subjob(1).pes.size());
  // Late confirms release their acks late, never wrongly: exactly-once holds.
  EXPECT_EQ(r.gapsObserved, 0u);
  const StreamId sinkStream = s.runtime().spec().sinkStreams[0];
  EXPECT_EQ(s.sink().highestSeq(sinkStream), s.source().generatedCount());
}

// ---------------------------------------------------------------------------
// Ack-release fences: a checkpoint whose confirm lands durable but must still
// release nothing upstream (docs/PROTOCOL.md, "The ack rule").
// ---------------------------------------------------------------------------

/// A hand-built primary subjob whose PEs each consume their own input stream
/// (9, 11, ...) and record every ack they send upstream, plus a standby store
/// on a second machine.
struct FenceRig {
  Simulator sim;
  Network net{sim, Network::Params{}, [](MachineId) { return true; }};
  Rng rng{3};
  Machine machine{sim, 0, rng.fork(0)};
  Machine storeMachine{sim, 1, rng.fork(1)};
  Subjob subjob{sim, machine, 0, Replica::kPrimary};
  StateStore store{sim, storeMachine};
  std::vector<std::pair<StreamId, ElementSeq>> acks;

  /// One PE per entry of `stateBytes`, each fed `elements` elements and run
  /// until it has processed them.
  explicit FenceRig(std::vector<std::size_t> stateBytes,
                    ElementSeq elements = 10) {
    for (std::size_t i = 0; i < stateBytes.size(); ++i) {
      const auto in = static_cast<StreamId>(9 + 2 * i);
      PeParams params;
      params.logicalId = static_cast<LogicalPeId>(i);
      params.outputStreams = {in + 1};
      auto& pe = subjob.addPe(std::make_unique<PeInstance>(
          machine, net, std::move(params),
          std::make_unique<SyntheticLogic>(1.0, stateBytes[i])));
      pe.input().subscribe(in);
      pe.input().addUpstream(in, [this](StreamId stream, ElementSeq seq) {
        acks.emplace_back(stream, seq);
      });
      std::vector<Element> batch;
      for (ElementSeq seq = 1; seq <= elements; ++seq) {
        Element e;
        e.stream = in;
        e.seq = seq;
        batch.push_back(e);
      }
      pe.input().receive(batch);
    }
    sim.runUntil(100 * kMillisecond);
  }

  CheckpointManager::Params cmParams(SimDuration confirmTimeout = 0) const {
    CheckpointManager::Params p;
    p.interval = 10 * kSecond;  // No interval checkpoint interferes.
    p.confirmTimeout = confirmTimeout;
    return p;
  }
};

TEST(CheckpointManagerFence, PerPeConfirmAfterAtomicEpochBumpReleasesNothing) {
  // Control: the same per-PE checkpoint, unfenced, releases its acks.
  {
    FenceRig rig({64});
    SweepingCheckpointManager cm(rig.sim, rig.net, rig.subjob, rig.store,
                                 rig.cmParams());
    cm.checkpointAllNow(nullptr);
    rig.sim.runUntil(kSecond);
    ASSERT_EQ(cm.stats().checkpoints, 1u);
    EXPECT_EQ(rig.acks,
              (std::vector<std::pair<StreamId, ElementSeq>>{{9, 10}}));
  }
  FenceRig rig({64});
  SweepingCheckpointManager cm(rig.sim, rig.net, rig.subjob, rig.store,
                               rig.cmParams());
  cm.checkpointAllNow(nullptr);  // Per-PE pipeline now in flight.
  ASSERT_TRUE(cm.checkpointInFlight(rig.subjob.pe(0)));
  bool atomicDone = false;
  // The rollback re-persist bumps the ack epoch. Its own pipeline cannot
  // start (the PE is busy), so its barrier tears as well.
  cm.checkpointAllNow([&] { atomicDone = true; }, /*atomic=*/true);
  EXPECT_TRUE(atomicDone);
  rig.sim.runUntil(kSecond);
  EXPECT_EQ(cm.stats().checkpoints, 1u);  // The old confirm did land...
  EXPECT_FALSE(rig.store.latest(0).empty());
  EXPECT_TRUE(rig.acks.empty());          // ...but released nothing.
}

TEST(CheckpointManagerFence, GroupedConfirmAfterAtomicEpochBumpReleasesNothing) {
  // Steps the run until the synchronous (grouped) checkpoint's confirm lands
  // and returns the acks sent by then. With `fence`, an atomic re-persist
  // starts while the grouped checkpoint is in flight.
  auto acksAtGroupedConfirm = [](bool fence) {
    FenceRig rig({64, 64});
    TraceRecorder trace;
    rig.net.setTrace(&trace);
    CheckpointManager::Params params = rig.cmParams();
    params.interval = 200 * kMillisecond;
    SynchronousCheckpointManager cm(rig.sim, rig.net, rig.subjob, rig.store,
                                    params);
    cm.start();
    rig.sim.runUntil(300 * kMillisecond + 1);  // Grouped checkpoint begun.
    EXPECT_EQ(cm.stats().checkpoints, 0u);
    if (fence) cm.checkpointAllNow(nullptr, /*atomic=*/true);
    while (cm.stats().checkpoints == 0 && rig.sim.step()) {
    }
    // The first confirm to land is the grouped one (value 0), not one of the
    // re-persist's per-PE pipelines.
    const TraceEvent* end = nullptr;
    for (const TraceEvent& ev : trace.events()) {
      if (ev.type == TraceEventType::kCheckpointEnd) end = &ev;
    }
    EXPECT_NE(end, nullptr);
    EXPECT_EQ(end != nullptr ? end->value : 1u, 0u);
    cm.stop();
    return rig.acks.size();
  };
  EXPECT_EQ(acksAtGroupedConfirm(false), 2u);  // Control: one per PE.
  EXPECT_EQ(acksAtGroupedConfirm(true), 0u);
}

TEST(CheckpointManagerFence, AtomicBarrierWithATimedOutRePersistReleasesNothing) {
  // PE 0's small state confirms well inside the timeout; PE 1's 1 MB state
  // takes ~13 ms to serialize and ship, so its attempt times out at 2 ms.
  auto run = [](SimDuration confirmTimeout) {
    FenceRig rig({64, 1 << 20});
    SweepingCheckpointManager cm(rig.sim, rig.net, rig.subjob, rig.store,
                                 rig.cmParams(confirmTimeout));
    bool done = false;
    cm.checkpointAllNow([&] { done = true; }, /*atomic=*/true);
    rig.sim.runUntil(kSecond);
    EXPECT_TRUE(done);
    EXPECT_EQ(cm.stats().checkpoints, 2u);  // Both confirms landed durable.
    EXPECT_EQ(cm.inFlightCheckpoints(), 0u);
    return std::make_pair(rig.acks.size(), cm.stats().staleConfirms);
  };
  // Control: without the timeout both re-persists confirm and the barrier
  // flushes every PE's acks at once.
  EXPECT_EQ(run(0), std::make_pair(std::size_t{2}, std::uint64_t{0}));
  // With it, PE 1's late confirm is stale and the torn barrier withholds PE
  // 0's parked acks as well.
  EXPECT_EQ(run(2 * kMillisecond), std::make_pair(std::size_t{0},
                                                  std::uint64_t{1}));
}

TEST(SubjobQuiescer, PausesAllAndReleases) {
  Scenario s(baseParams(CheckpointKind::kSweeping));
  s.build();
  s.warmup();
  Subjob* subjob = s.runtime().instanceOf(1, Replica::kPrimary);
  SubjobQuiescer quiescer;
  bool quiesced = false;
  quiescer.quiesce(*subjob, [&] { quiesced = true; });
  s.run(kSecond);
  EXPECT_TRUE(quiesced);
  EXPECT_TRUE(subjob->pe(0).paused());
  EXPECT_TRUE(subjob->pe(1).paused());
  const auto processed = subjob->processedCount();
  s.run(kSecond);
  EXPECT_EQ(subjob->processedCount(), processed);  // Fully quiesced.
  quiescer.release();
  s.run(kSecond);
  EXPECT_GT(subjob->processedCount(), processed);
}

}  // namespace
}  // namespace streamha
