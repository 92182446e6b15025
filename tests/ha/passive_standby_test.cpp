#include "ha/passive_standby.hpp"

#include <gtest/gtest.h>

#include "exp/scenario.hpp"

namespace streamha {
namespace {

ScenarioParams psParams() {
  ScenarioParams p;
  p.mode = HaMode::kPassiveStandby;
  p.duration = 15 * kSecond;
  p.seed = 61;
  return p;
}

struct PsRun {
  explicit PsRun(ScenarioParams p, SimDuration spikeLen = 3 * kSecond)
      : scenario(p) {
    scenario.build();
    scenario.warmup();
    SpikeSpec spec;
    spec.magnitude = 0.97;
    gen = std::make_unique<LoadGenerator>(
        scenario.cluster().sim(),
        scenario.cluster().machine(scenario.primaryMachineOf(2)), spec,
        scenario.cluster().forkRng(99));
    gen->injectSpike(spikeLen);
    scenario.run(p.duration);
    coordinator =
        dynamic_cast<PassiveStandbyCoordinator*>(scenario.coordinatorFor(2));
    for (auto& t : coordinator->mutableRecoveries()) {
      t.failureStart = gen->spikes()[0].first;
    }
  }

  Scenario scenario;
  std::unique_ptr<LoadGenerator> gen;
  PassiveStandbyCoordinator* coordinator = nullptr;
};

TEST(PassiveStandby, NoSecondaryInstanceBeforeFailure) {
  Scenario s(psParams());
  s.build();
  auto* c = s.coordinatorFor(2);
  EXPECT_EQ(c->secondary(), nullptr);
  EXPECT_EQ(s.runtime().instancesOf(2).size(), 1u);
}

TEST(PassiveStandby, MigratesOnDetectedFailure) {
  PsRun run(psParams());
  ASSERT_EQ(run.coordinator->recoveries().size(), 1u);
  const auto& t = run.coordinator->recoveries()[0];
  EXPECT_TRUE(t.complete());
  // Three-miss detection: about 3-4 heartbeat intervals.
  EXPECT_GE(t.detectionMs(), 300.0);
  EXPECT_LE(t.detectionMs(), 600.0);
  // Full on-demand deployment.
  EXPECT_NEAR(t.redeployMs(), 480.0, 100.0);
  // Connection establishment + retransmission/reprocessing.
  EXPECT_GT(t.retransmitMs(), 80.0);
  // The subjob now runs on the standby machine.
  EXPECT_EQ(run.coordinator->primary()->machine().id(),
            run.scenario.standbyMachineOf(2));
  // Role swap: the old primary machine is the new standby.
  EXPECT_EQ(run.coordinator->currentStandbyMachine(),
            run.scenario.primaryMachineOf(2));
}

TEST(PassiveStandby, OldCopyIsTerminatedEventually) {
  PsRun run(psParams());
  // Only the migrated copy remains live for subjob 2.
  const auto instances = run.scenario.runtime().instancesOf(2);
  ASSERT_EQ(instances.size(), 1u);
  EXPECT_EQ(instances[0], run.coordinator->primary());
}

TEST(PassiveStandby, NoDataLossAcrossMigration) {
  PsRun run(psParams());
  run.scenario.drain();
  const auto r = run.scenario.collect();
  EXPECT_EQ(r.gapsObserved, 0u);
  const StreamId sinkStream = run.scenario.runtime().spec().sinkStreams[0];
  EXPECT_EQ(run.scenario.sink().highestSeq(sinkStream),
            run.scenario.source().generatedCount());
}

TEST(PassiveStandby, CheckpointingContinuesOnNewPrimary) {
  PsRun run(psParams());
  auto* cm = run.coordinator->checkpointManager();
  ASSERT_NE(cm, nullptr);
  EXPECT_FALSE(cm->stopped());
  EXPECT_EQ(&cm->subjob(), run.coordinator->primary());
  const auto count = cm->stats().checkpoints;
  run.scenario.run(2 * kSecond);
  EXPECT_GT(cm->stats().checkpoints, count);
}

TEST(PassiveStandby, SecondFailureMigratesBack) {
  PsRun run(psParams());
  const MachineId firstHome = run.scenario.primaryMachineOf(2);
  const MachineId standbyHome = run.scenario.standbyMachineOf(2);
  ASSERT_EQ(run.coordinator->primary()->machine().id(), standbyHome);
  // Now stall the standby machine, where the subjob lives.
  SpikeSpec spec;
  spec.magnitude = 0.97;
  LoadGenerator gen2(run.scenario.cluster().sim(),
                     run.scenario.cluster().machine(standbyHome), spec,
                     run.scenario.cluster().forkRng(123));
  gen2.injectSpike(3 * kSecond);
  run.scenario.run(10 * kSecond);
  EXPECT_EQ(run.coordinator->recoveries().size(), 2u);
  EXPECT_EQ(run.coordinator->primary()->machine().id(), firstHome);
  run.scenario.drain();
  const StreamId sinkStream = run.scenario.runtime().spec().sinkStreams[0];
  EXPECT_EQ(run.scenario.sink().highestSeq(sinkStream),
            run.scenario.source().generatedCount());
}

TEST(PassiveStandby, MigrationOffACrashedPrimaryStopsAckingTheDeadCopy) {
  // The reliable terminate message never reaches a crashed machine, so the
  // migration itself must terminate the dead copy and remove its wires --
  // otherwise the downstream consumer keeps sending it acks.
  ScenarioParams p = psParams();
  p.seed = 81;
  Scenario s(p);
  s.build();
  const MachineId home = s.primaryMachineOf(2);
  s.cluster().sim().schedule(2 * kSecond,
                             [&s, home] { s.cluster().machine(home).crash(); });
  s.start();
  s.run(4 * kSecond);
  auto* coordinator = s.coordinatorFor(2);
  ASSERT_EQ(coordinator->recoveries().size(), 1u);
  ASSERT_TRUE(coordinator->recoveries()[0].complete());
  ASSERT_NE(coordinator->primary()->machine().id(), home);
  EXPECT_EQ(s.runtime().instancesOf(2).size(), 1u);

  // Installed after the Runtime was built, so loss recovery stays off.
  int acksToDeadCopy = 0;
  s.cluster().network().setFault(
      [&](MachineId, MachineId dst, MsgKind kind, std::size_t) {
        if (kind == MsgKind::kAck && dst == home) ++acksToDeadCopy;
        return Network::FaultDecision{};
      });
  s.run(5 * kSecond);
  EXPECT_EQ(acksToDeadCopy, 0);
  s.drain();
  const StreamId sinkStream = s.runtime().spec().sinkStreams[0];
  EXPECT_EQ(s.sink().highestSeq(sinkStream), s.source().generatedCount());
}

TEST(PassiveStandby, LargerCheckpointIntervalIncreasesRetransmission) {
  ScenarioParams small = psParams();
  small.checkpointInterval = 50 * kMillisecond;
  ScenarioParams large = psParams();
  large.checkpointInterval = 900 * kMillisecond;
  PsRun a(small), b(large);
  const auto& ta = a.coordinator->recoveries().at(0);
  const auto& tb = b.coordinator->recoveries().at(0);
  // More un-checkpointed data to retransmit and reprocess.
  EXPECT_GE(tb.retransmitMs(), ta.retransmitMs());
}

}  // namespace
}  // namespace streamha
