// End-to-end flow control (flow/): credit-based source pausing, interaction
// with HA switchover/rollback, backpressure-vs-shedding under a healed
// partition, accounted-shedding audit against the trace, and the quiescence
// predicate's clean/residual verdicts.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cluster/load_generator.hpp"
#include "harness/chaos_harness.hpp"
#include "stream/subjob.hpp"
#include "trace/timeline.hpp"

namespace streamha {
namespace {

/// 2-subjob chain deliberately overloaded (each machine's two PEs cost 3 ms
/// per element against a 1 ms arrival gap) so input queues grow without any
/// injected fault.
ScenarioParams overloadedParams() {
  ScenarioParams p;
  p.mode = HaMode::kNone;
  p.protectedSubjobs = {};
  p.numPes = 4;
  p.pesPerSubjob = 2;
  p.peWorkUs = 1500.0;
  p.dataRatePerSec = 1000.0;
  p.duration = 5 * kSecond;
  p.seed = 11;
  return p;
}

TEST(FlowControlTest, BackpressurePausesAndResumesSource) {
  ScenarioParams p = overloadedParams();
  p.flow.sendWindow = 32;
  p.flow.pauseThreshold = 40;

  Scenario s(p);
  s.build();
  s.start();
  s.run(p.duration);
  const QuiescenceReport q = s.drainQuiescent();
  const ScenarioResult r = s.collect();

  // The overload must have throttled the feed, repeatedly: pause credits
  // went out, the source honored at least one, and resumes followed as the
  // queues drained under the paused feed.
  EXPECT_GE(r.flow.pauses, 2u);
  EXPECT_GE(r.flow.resumes, 1u);
  EXPECT_GE(s.source().flowPauses(), 1u);

  // Backpressure bounds the queues instead of shedding from them...
  EXPECT_EQ(r.elementsShed, 0u);
  // ... so the run is still exactly-once end to end.
  const harness::OracleReport oracle = harness::checkExactlyOnceInOrder(s, r);
  EXPECT_TRUE(oracle.ok) << oracle.summary();

  // And the wind-down is a *clean* quiescence: resume credit applied, no
  // tracked ARQ messages, no residual traffic.
  EXPECT_FALSE(s.source().flowPaused());
  EXPECT_FALSE(r.flow.sourcePausedAtEnd);
  EXPECT_TRUE(q.quiescent);
  EXPECT_TRUE(q.clean);
  EXPECT_EQ(q.residualArq, 0u);
  EXPECT_EQ(q.residualBacklog, 0u);
}

TEST(FlowControlTest, CreditInheritanceAcrossSwitchoverAndRollback) {
  ScenarioParams p;
  p.mode = HaMode::kHybrid;
  p.duration = 15 * kSecond;
  p.seed = 51;
  p.flow.sendWindow = 32;
  // Low enough that the stalled primary's input queue crosses it within the
  // detection window (~100-200 elements pile up before switchover).
  p.flow.pauseThreshold = 60;

  Scenario s(p);
  s.build();
  s.start();
  s.run(2 * kSecond);  // Settle first (the oracle needs an un-reset window).
  SpikeSpec spec;
  spec.magnitude = 0.97;
  LoadGenerator gen(s.cluster().sim(),
                    s.cluster().machine(s.primaryMachineOf(2)), spec,
                    s.cluster().forkRng(1234));
  gen.injectSpike(2 * kSecond);
  s.run(p.duration);

  auto* c = s.coordinatorFor(2);
  EXPECT_EQ(c->switchovers(), 1u);
  EXPECT_EQ(c->rollbacks(), 1u);

  const QuiescenceReport q = s.drainQuiescent();
  const ScenarioResult r = s.collect();

  // The stall raised pressure and paused the source at least once.
  EXPECT_GE(r.flow.pauses, 1u);
  EXPECT_GE(s.source().flowPauses(), 1u);

  // The inheritance contract: neither the suspended primary's stale backlog
  // (across switchover) nor the re-suspended secondary's (across rollback)
  // may pin the source paused once the pipeline has drained.
  EXPECT_FALSE(s.source().flowPaused());
  EXPECT_EQ(s.flowControl()->overloadedQueues(), 0u);
  EXPECT_TRUE(q.quiescent);
  EXPECT_TRUE(q.clean);

  // And no element was lost or duplicated across the whole episode.
  const harness::OracleReport oracle = harness::checkExactlyOnceInOrder(s, r);
  EXPECT_TRUE(oracle.ok) << oracle.summary();
}

/// Shared topology for the partition A/B comparison below: default 4-subjob
/// chain, bidirectional partition between subjobs 1 and 2 at t in [4s, 7s).
ScenarioParams healedPartitionParams() {
  ScenarioParams p;
  p.mode = HaMode::kNone;
  p.protectedSubjobs = {};
  p.duration = 12 * kSecond;
  p.seed = 23;
  PartitionSpec part;
  part.islandA = {0, 1};
  part.islandB = {2, 3, Scenario::layoutFor(p).sinkMachine};
  part.beginAt = 4 * kSecond;
  part.healAt = 7 * kSecond;
  p.faults.partitions.push_back(part);
  return p;
}

TEST(FlowControlTest, BackpressureHoldsExactlyOnceAcrossHealedPartition) {
  // Variant A: backpressure configured, shedding off. The blocked producer's
  // unacked backlog closes its output gate, the stall propagates hop by hop
  // to the source, and nothing is ever dropped: after the heal the run is
  // exactly-once, at the price of a paused feed during the outage.
  ScenarioParams p = healedPartitionParams();
  p.flow.sendWindow = 64;
  p.flow.outputPauseBacklog = 32;
  p.flow.pauseThreshold = 50;

  harness::ChaosRunOpts opts;
  opts.oracle = harness::OracleMode::kExactlyOnce;
  const harness::ChaosOutcome out = harness::runChaosScenario(p, opts);

  EXPECT_TRUE(out.oracle.ok) << out.oracle.summary();
  EXPECT_GE(out.result.flow.pauses, 1u);
  EXPECT_EQ(out.result.elementsShed, 0u);
  EXPECT_FALSE(out.result.flow.sourcePausedAtEnd);
  EXPECT_TRUE(out.quiescence.quiescent);
  EXPECT_TRUE(out.quiescence.clean);
}

TEST(FlowControlTest, SheddingBoundsLossAcrossHealedPartition) {
  // Variant B: same outage, shedding instead of backpressure. The feed never
  // pauses; the post-heal retransmission flood overruns the downstream input
  // queue, which sheds the excess -- bounded, accounted loss instead of
  // unbounded queues or a stalled source.
  ScenarioParams p = healedPartitionParams();
  p.flow.sendWindow = 64;
  p.flow.shedThreshold = 150;

  harness::ChaosRunOpts opts;
  opts.oracle = harness::OracleMode::kBoundedLoss;
  opts.loss.maxLossFraction = 0.5;
  opts.loss.requireAccountedLoss = true;
  const harness::ChaosOutcome out = harness::runChaosScenario(p, opts);

  EXPECT_TRUE(out.oracle.ok) << out.oracle.summary();
  // Loss actually happened (the contrast with variant A) and every lost
  // element is accounted by the shed counters (checked by the oracle too).
  EXPECT_GT(out.result.elementsShed, 0u);
  EXPECT_EQ(out.result.flow.pauses, 0u);
  EXPECT_TRUE(out.quiescence.quiescent);
  EXPECT_TRUE(out.quiescence.clean);
}

TEST(FlowControlTest, AccountedSheddingTraceMatchesCounters) {
  ScenarioParams p = overloadedParams();
  p.flow.shedThreshold = 50;
  p.trace.enabled = true;

  Scenario s(p);
  s.build();
  s.start();
  s.run(p.duration);
  s.drainQuiescent();
  const ScenarioResult r = s.collect();  // Flushes open shed intervals.

  ASSERT_GT(r.elementsShed, 0u);
  EXPECT_EQ(r.flow.elementsShedAccounted, r.elementsShed);

  // The trace is the audit trail: reassembled spans cover exactly the shed
  // counters, every span is closed and internally consistent.
  ASSERT_NE(s.trace(), nullptr);
  const std::vector<ShedSpan> spans = extractShedSpans(s.trace()->events());
  ASSERT_GT(spans.size(), 0u);
  EXPECT_EQ(totalShed(spans), r.elementsShed);
  for (const ShedSpan& span : spans) {
    EXPECT_NE(span.endAt, kTimeNever);
    EXPECT_EQ(span.count, span.last - span.first + 1);
    EXPECT_GE(span.endAt, span.beginAt);
  }

  // Shedding keeps the sink prefix-in-order with fully accounted loss.
  harness::BoundedLossParams loss;
  loss.maxLossFraction = 1.0;
  const harness::OracleReport oracle =
      harness::checkPrefixInOrderBoundedLoss(s, r, loss);
  EXPECT_TRUE(oracle.ok) << oracle.summary();
}

TEST(FlowControlTest, ShedThresholdAloneArmsShedding) {
  // A shed threshold is the whole request: with no other flow field set the
  // overloaded chain still sheds, and every shed element is accounted.
  ScenarioParams p = overloadedParams();
  p.flow.shedThreshold = 50;

  Scenario s(p);
  s.build();
  s.start();
  s.run(p.duration);
  s.drainQuiescent();
  const ScenarioResult r = s.collect();

  ASSERT_NE(s.flowControl(), nullptr);
  EXPECT_GT(r.elementsShed, 0u);
  EXPECT_EQ(r.flow.elementsShedAccounted, r.elementsShed);
  // Shedding needs no send window, so a fault-free run arms no ARQ.
  EXPECT_EQ(s.cluster().network().reliable(), nullptr);
}

TEST(FlowControlTest, SheddingCoversCopiesInstantiatedMidRun) {
  // Without pre-deployment the secondary is instantiated at switchover, long
  // after build(); the runtime's instance listener must hand it the shed
  // threshold and the accounting listener like every build-time copy.
  ScenarioParams p;
  p.mode = HaMode::kHybrid;
  p.protectedSubjobs = {2};
  p.predeploySecondary = false;
  p.duration = 8 * kSecond;
  p.seed = 91;
  p.flow.shedThreshold = 20;

  Scenario s(p);
  s.build();
  const std::vector<Subjob*> atBuild = s.runtime().instancesOf(2);
  SpikeSpec spec;
  spec.magnitude = 0.97;
  LoadGenerator gen(s.cluster().sim(), s.cluster().machine(2), spec,
                    s.cluster().forkRng(1234));
  gen.replayWindows({{2 * kSecond, 4 * kSecond}});
  s.start();
  s.run(p.duration);
  s.drain(2 * kSecond);
  const ScenarioResult r = s.collect();

  ASSERT_GE(r.switchovers, 1u);
  std::uint64_t shedMidRun = 0;
  for (Subjob* copy : s.runtime().instancesOf(2)) {
    if (std::find(atBuild.begin(), atBuild.end(), copy) != atBuild.end()) {
      continue;
    }
    for (std::size_t i = 0; i < copy->peCount(); ++i) {
      shedMidRun += copy->pe(i).input().elementsShed();
    }
  }
  EXPECT_GT(shedMidRun, 0u);
  EXPECT_EQ(r.flow.elementsShedAccounted, r.elementsShed);
}

TEST(FlowControlTest, NeverHealingPartitionEndsResiduallyQuiescent) {
  // The sink's island never heals: the run can never finish cleanly (stall
  // retransmissions toward the unreachable island continue forever), but the
  // quiescence predicate still terminates with the honest residual verdict
  // instead of hoping a fixed drain headroom was enough.
  ScenarioParams p;
  p.mode = HaMode::kNone;
  p.protectedSubjobs = {};
  p.duration = 10 * kSecond;
  p.seed = 31;
  PartitionSpec part;
  part.islandA = {0, 1, 2, 3};
  part.islandB = {Scenario::layoutFor(p).sinkMachine};
  part.beginAt = 6 * kSecond;
  part.healAt = kTimeNever;
  p.faults.partitions.push_back(part);

  harness::ChaosRunOpts opts;
  opts.oracle = harness::OracleMode::kBoundedLoss;
  opts.loss.maxLossFraction = 1.0;
  opts.loss.requireAccountedLoss = false;  // Loss is the partition's doing.
  const harness::ChaosOutcome out = harness::runChaosScenario(p, opts);

  EXPECT_TRUE(out.quiescence.quiescent);
  EXPECT_FALSE(out.quiescence.clean);
  // The last producer's backlog toward the unreachable sink never drains.
  EXPECT_GT(out.quiescence.residualBacklog, 0u);

  // What did arrive is still a duplicate-free in-order prefix.
  EXPECT_TRUE(out.oracle.ok) << out.oracle.summary();
  EXPECT_LT(out.result.sinkReceived, out.result.sourceGenerated);
}

}  // namespace
}  // namespace streamha
