// Golden fingerprints of the HA paths no benchmark workload or figure
// reaches: flap damping, fail-stop promotion with and without a spare,
// consecutive fail-stops, standby redeploy and membership drain, PS
// migration, AS replacement, the no-pre-deploy ablation, domain-loss
// re-provisioning, one chaos seed under loss, duplicates, jitter and a
// partition, the checkpoint pipelines no workload runs (the synchronous
// and individual managers through a switchover and rollback, PS onto a disk
// store, and a delta/tiered chaos seed with stale deltas, base misses and
// stale confirms), and the data plane of a non-chain job: fan-out, fan-in,
// two sink streams and a local wire inside the protected subjob, through
// switchover and rollback, promotion, AS replacement and lossy links -- and
// the detectors no workload runs: accrual under heartbeat jitter and a
// spike, the predictive detector on ramped spikes, and the heartbeat and
// benchmarking detectors of the Figs 12-13 detection study.
//
// Each scenario test runs one short scripted scenario (at most 12 simulated
// seconds, drain included) with tracing on, and pins two digests: stableHash
// of the lossless result fingerprint (exp/sweep.hpp fingerprintResult, the
// string ChaosOutcome::resultFingerprint holds) and stableHash of the JSONL
// trace. Event order, incident ids and every counter feed one or the other,
// so any behavior change -- intended or not -- flips a pin. The detection
// study runs no coordinator and records no trace; its pin is stableHash of
// both detectors' scores with every double in hexfloat.
//
// Re-pinning after an intentional behavior change: run the failing test, copy
// the "actual" digests it prints into its expectPins() call, and record the
// change and its reason in CHANGES.md (docs/TESTING.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <ios>
#include <memory>
#include <utility>
#include <vector>

#include <sstream>
#include <string>

#include "cluster/load_generator.hpp"
#include "common/rng.hpp"
#include "detect/predictive.hpp"
#include "exp/detection_study.hpp"
#include "exp/sweep.hpp"
#include "ha/active_standby.hpp"
#include "ha/hybrid.hpp"
#include "harness/chaos_harness.hpp"
#include "stream/job.hpp"
#include "stream/runtime.hpp"
#include "trace/export.hpp"
#include "trace/recorder.hpp"

namespace streamha {
namespace {

/// Absolute simulated times of the scripted actions below.
using Windows = std::vector<std::pair<SimTime, SimTime>>;

/// Scripted run: build, start, replay CPU spikes on `spikeMachine` (if any;
/// each ramps up over `spikeRamp`, 0 = step), let `script` schedule crashes
/// and churn, run `duration`, drain for `drainGrace`, collect, then let
/// `inspect` read the finished scenario. Returns the same digests a
/// ChaosOutcome carries.
harness::ChaosOutcome runScripted(
    ScenarioParams p, SimDuration drainGrace,
    const std::function<void(Scenario&)>& script = nullptr,
    MachineId spikeMachine = kNoMachine, const Windows& spikes = {},
    SimDuration spikeRamp = 0,
    const std::function<void(Scenario&)>& inspect = nullptr) {
  p.trace.enabled = true;
  Scenario s(std::move(p));
  s.build();
  std::unique_ptr<LoadGenerator> gen;
  if (spikeMachine != kNoMachine) {
    SpikeSpec spec;
    spec.magnitude = 0.97;
    spec.rampDuration = spikeRamp;
    gen = std::make_unique<LoadGenerator>(
        s.cluster().sim(), s.cluster().machine(spikeMachine), spec,
        s.cluster().forkRng(1234));
    gen->replayWindows(spikes);
  }
  if (script) script(s);
  s.start();
  s.run(s.params().duration);
  s.drain(drainGrace);
  harness::ChaosOutcome out;
  out.result = s.collect();
  out.oracle = harness::checkExactlyOnceInOrder(s, out.result);
  out.resultFingerprint = fingerprintResult(out.result);
  out.trace = harness::traceJsonl(s);
  if (inspect) inspect(s);
  return out;
}

/// Crash `machine` at absolute time `at` (permanently).
void crashAt(Scenario& s, MachineId machine, SimTime at) {
  s.cluster().sim().schedule(at - s.cluster().sim().now(), [&s, machine] {
    s.cluster().machine(machine).crash();
  });
}

/// Compare both digests; on a mismatch print the actual value so an
/// intentional change re-pins in one edit.
void expectPins(const harness::ChaosOutcome& out, std::uint64_t result,
                std::uint64_t trace) {
  const std::uint64_t actualResult = stableHash(out.resultFingerprint);
  const std::uint64_t actualTrace = stableHash(out.trace);
  EXPECT_FALSE(out.trace.empty());
  EXPECT_EQ(actualResult, result)
      << "actual result digest: 0x" << std::hex << actualResult;
  EXPECT_EQ(actualTrace, trace)
      << "actual trace digest: 0x" << std::hex << actualTrace;
}

ScenarioParams hybridParams(std::uint64_t seed) {
  ScenarioParams p;
  p.mode = HaMode::kHybrid;
  p.protectedSubjobs = {2};
  p.seed = seed;
  return p;
}

/// One completed cycle (spike 1), a blip the holdoff absorbs, then a second
/// oscillation whose recovery verdict quarantines the primary; the short
/// quarantine then lapses and three healthy probes re-admit it.
ScenarioParams dampedParams() {
  ScenarioParams p = hybridParams(51);
  p.duration = 10 * kSecond;
  p.damping.enabled = true;
  p.damping.maxCycles = 1;
  p.damping.cycleWindow = 20 * kSecond;
  p.damping.quarantineFor = 2 * kSecond;
  p.damping.readmitStreak = 3;
  p.damping.switchoverHoldoff = 600 * kMillisecond;
  return p;
}

const Windows kFlapSpikes = {{1 * kSecond, 3 * kSecond},
                             {4 * kSecond, 4250 * kMillisecond},
                             {5 * kSecond, 7 * kSecond}};

TEST(GoldenFingerprint, FlapDampingHoldoffQuarantineAndReadmission) {
  ScenarioParams p = dampedParams();
  p.provisionSpares = true;
  const harness::ChaosOutcome out =
      runScripted(p, 2 * kSecond, nullptr, 2, kFlapSpikes);
  EXPECT_EQ(out.result.switchovers, 2u);
  EXPECT_EQ(out.result.rollbacks, 1u);
  EXPECT_EQ(out.result.promotions, 1u);
  EXPECT_EQ(out.result.gray.quarantines, 1u);
  EXPECT_EQ(out.result.gray.readmissions, 1u);
  EXPECT_TRUE(out.oracle.ok) << out.oracle.summary();
  expectPins(out, 0x4c08d8b4d213e7c1ULL, 0x1c09d1b80c06ebb8ULL);
}

TEST(GoldenFingerprint, FlapDampingQuarantinesThroughThePlanner) {
  ScenarioParams p = dampedParams();
  p.placement.enabled = true;
  p.placement.topology.racks = 3;
  p.placement.poolMachines = 4;
  const harness::ChaosOutcome out =
      runScripted(p, 2 * kSecond, nullptr, 2, kFlapSpikes);
  EXPECT_EQ(out.result.gray.quarantines, 1u);
  EXPECT_EQ(out.result.gray.readmissions, 1u);
  EXPECT_EQ(out.result.promotions, 1u);
  EXPECT_TRUE(out.oracle.ok) << out.oracle.summary();
  expectPins(out, 0x914f0007efd7fad4ULL, 0xebf6fb21ace67568ULL);
}

ScenarioParams failstopParams(HaMode mode, bool spares) {
  ScenarioParams p = hybridParams(81);
  p.mode = mode;
  p.provisionSpares = spares;
  p.failStopAfter = 2 * kSecond;
  p.duration = 9 * kSecond;
  return p;
}

TEST(GoldenFingerprint, FailStopPromotionOntoSpare) {
  const harness::ChaosOutcome out =
      runScripted(failstopParams(HaMode::kHybrid, true), 3 * kSecond,
                  [](Scenario& s) { crashAt(s, 2, 1 * kSecond); });
  EXPECT_EQ(out.result.promotions, 1u);
  EXPECT_TRUE(out.oracle.ok) << out.oracle.summary();
  expectPins(out, 0x7656c6def3103029ULL, 0x24757cd4f27419d6ULL);
}

TEST(GoldenFingerprint, FailStopPromotionWithoutSpareRunsDegraded) {
  const harness::ChaosOutcome out =
      runScripted(failstopParams(HaMode::kHybrid, false), 3 * kSecond,
                  [](Scenario& s) { crashAt(s, 2, 1 * kSecond); });
  EXPECT_EQ(out.result.promotions, 1u);
  EXPECT_TRUE(out.oracle.ok) << out.oracle.summary();
  expectPins(out, 0xbe351ec17338c0ffULL, 0x9d8fcdb48d39d545ULL);
}

TEST(GoldenFingerprint, ConsecutiveFailStops) {
  ScenarioParams p = failstopParams(HaMode::kHybrid, true);
  p.duration = 10 * kSecond;
  // The first promotion moves the primary onto the standby machine; the
  // second crash takes that machine too, so the copy pre-deployed on the
  // spare takes over and the job finishes degraded.
  const harness::ChaosOutcome out =
      runScripted(p, 2 * kSecond, [](Scenario& s) {
        crashAt(s, 2, 1 * kSecond);
        crashAt(s, s.standbyMachineOf(2), 6 * kSecond);
      });
  EXPECT_EQ(out.result.promotions, 2u);
  EXPECT_TRUE(out.oracle.ok) << out.oracle.summary();
  expectPins(out, 0xd0a95c0740e4db4fULL, 0x6f8e0adaa23f9c3fULL);
}

TEST(GoldenFingerprint, NoPredeploySwitchoverThenPromotion) {
  ScenarioParams p = failstopParams(HaMode::kHybrid, true);
  p.predeploySecondary = false;
  const harness::ChaosOutcome out =
      runScripted(p, 3 * kSecond,
                  [](Scenario& s) { crashAt(s, 2, 1 * kSecond); });
  EXPECT_EQ(out.result.promotions, 1u);
  EXPECT_TRUE(out.oracle.ok) << out.oracle.summary();
  expectPins(out, 0xb31f31bcf0477543ULL, 0x70e08c0d07582a17ULL);
}

/// 3 racks, subjob 2 protected, standbys drawn from a 4-machine pool.
ScenarioParams placedParams(std::uint64_t seed) {
  ScenarioParams p = hybridParams(seed);
  p.failStopAfter = 2 * kSecond;
  p.duration = 9 * kSecond;
  p.placement.enabled = true;
  p.placement.topology.racks = 3;
  p.placement.poolMachines = 4;
  return p;
}

TEST(GoldenFingerprint, PlannerChoosesSpareForPromotion) {
  const harness::ChaosOutcome out =
      runScripted(placedParams(11), 3 * kSecond,
                  [](Scenario& s) { crashAt(s, 2, 1 * kSecond); });
  EXPECT_EQ(out.result.promotions, 1u);
  EXPECT_TRUE(out.oracle.ok) << out.oracle.summary();
  expectPins(out, 0x69a72df586ef4e71ULL, 0x76c2464abe6725b1ULL);
}

TEST(GoldenFingerprint, StandbyOnlyLossRedeploysStandby) {
  const harness::ChaosOutcome out =
      runScripted(placedParams(12), 3 * kSecond, [](Scenario& s) {
        crashAt(s, s.standbyMachineOf(2), 2 * kSecond);
      });
  EXPECT_EQ(out.result.placement.standbyRedeploys, 1u);
  EXPECT_EQ(out.result.placement.domainLosses, 0u);
  EXPECT_TRUE(out.oracle.ok) << out.oracle.summary();
  expectPins(out, 0xa813c3fe6f02be29ULL, 0xb79c39c22d96ed00ULL);
}

TEST(GoldenFingerprint, DomainLossReprovisionsFromCheckpoint) {
  ScenarioParams p = placedParams(13);
  p.placement.domainAware = false;
  const harness::ChaosOutcome out =
      runScripted(p, 3 * kSecond, [](Scenario& s) {
        crashAt(s, 2, 2 * kSecond);
        crashAt(s, s.standbyMachineOf(2), 2 * kSecond);
      });
  EXPECT_EQ(out.result.placement.domainLosses, 1u);
  EXPECT_EQ(out.result.placement.reprovisions, 1u);
  EXPECT_TRUE(out.oracle.ok) << out.oracle.summary();
  expectPins(out, 0x6d5fbf047eb9da68ULL, 0x99fc0dbdbc579c78ULL);
}

TEST(GoldenFingerprint, MembershipRetireDrainsStandbyHost) {
  ScenarioParams p = placedParams(14);
  p.membership.enabled = true;
  const harness::ChaosOutcome out =
      runScripted(p, 3 * kSecond, [](Scenario& s) {
        const MachineId host = s.standbyMachineOf(2);
        s.cluster().sim().schedule(3 * kSecond, [&s, host] {
          s.membership()->retire(host);
        });
      });
  EXPECT_EQ(out.result.membership.retirements, 1u);
  EXPECT_EQ(out.result.placement.standbyRedeploys, 1u);
  EXPECT_TRUE(out.oracle.ok) << out.oracle.summary();
  expectPins(out, 0x9a4e2a18a0b11e3dULL, 0x95e57217cc5516b5ULL);
}

TEST(GoldenFingerprint, PassiveStandbyMigratesOnCrash) {
  const harness::ChaosOutcome out =
      runScripted(failstopParams(HaMode::kPassiveStandby, false), 3 * kSecond,
                  [](Scenario& s) { crashAt(s, 2, 2 * kSecond); });
  EXPECT_EQ(out.result.recovery.count, 1u);
  EXPECT_TRUE(out.oracle.ok) << out.oracle.summary();
  expectPins(out, 0x91d51db100b37ccdULL, 0x1e50f7e2c4ae6329ULL);
}

TEST(GoldenFingerprint, ActiveStandbyReplacesCrashedCopy) {
  const harness::ChaosOutcome out =
      runScripted(failstopParams(HaMode::kActiveStandby, true), 3 * kSecond,
                  [](Scenario& s) { crashAt(s, 2, 1 * kSecond); });
  EXPECT_EQ(out.result.recovery.count, 1u);
  EXPECT_TRUE(out.oracle.ok) << out.oracle.summary();
  expectPins(out, 0xdfec1f472e61f376ULL, 0x3cbd7a4124753057ULL);
}

TEST(GoldenFingerprint, ChaosSeedUnderLossDuplicatesJitterAndPartition) {
  ScenarioParams p;
  p.mode = HaMode::kHybrid;
  p.protectedSubjobs = {1, 2};
  p.provisionSpares = true;
  p.failStopAfter = 3 * kSecond;
  p.duration = 8 * kSecond;
  p.seed = 7;
  p.trace.enabled = true;
  harness::ChaosProfile profile;
  profile.maxDuplicateProb = 0.05;
  profile.maxDelayProb = 0.1;
  profile.withCrash = false;
  profile.faultsFrom = 2 * kSecond;
  profile.faultsUntil = 7 * kSecond;
  const harness::ChaosPlan plan = harness::makeChaosPlan(p, profile, p.seed);
  ASSERT_FALSE(plan.schedule.links.empty());
  ASSERT_FALSE(plan.schedule.partitions.empty());
  p.faults = plan.schedule;
  p.faultSeedSalt = p.seed;
  harness::ChaosRunOpts opts;
  opts.quiescentDrain = false;
  opts.maxDrain = 4 * kSecond;
  opts.captureTrace = true;
  const harness::ChaosOutcome out = harness::runChaosScenario(p, opts);
  EXPECT_GT(out.faults.randomDrops, 0u);
  EXPECT_GT(out.faults.partitionDrops, 0u);
  EXPECT_GT(out.faults.duplicates, 0u);
  EXPECT_TRUE(out.oracle.ok) << out.oracle.summary();
  expectPins(out, 0x10b994b598860910ULL, 0x7068f76ae545d85fULL);
}

// -- Checkpoint pipeline paths no workload runs -------------------------------

/// Hybrid with a conventional checkpoint manager, one spike window on the
/// protected primary: switchover, then rollback with Read State.
harness::ChaosOutcome runConventionalHybrid(CheckpointKind kind) {
  ScenarioParams p = hybridParams(91);
  p.checkpointKind = kind;
  p.duration = 8 * kSecond;
  return runScripted(p, 2 * kSecond, nullptr, 2,
                     {{2 * kSecond, 4 * kSecond}});
}

TEST(GoldenFingerprint, SynchronousCheckpointsThroughSwitchoverAndRollback) {
  const harness::ChaosOutcome out =
      runConventionalHybrid(CheckpointKind::kSynchronous);
  EXPECT_GE(out.result.switchovers, 1u);
  EXPECT_GE(out.result.rollbacks, 1u);
  EXPECT_TRUE(out.oracle.ok) << out.oracle.summary();
  expectPins(out, 0x9c69b4b3905c1da6ULL, 0x8ae436fa29912308ULL);
}

TEST(GoldenFingerprint, IndividualCheckpointsThroughSwitchoverAndRollback) {
  const harness::ChaosOutcome out =
      runConventionalHybrid(CheckpointKind::kIndividual);
  EXPECT_GE(out.result.switchovers, 1u);
  EXPECT_GE(out.result.rollbacks, 1u);
  EXPECT_TRUE(out.oracle.ok) << out.oracle.summary();
  expectPins(out, 0x9c01c4e94059b938ULL, 0x66805f6ee8b6d889ULL);
}

TEST(GoldenFingerprint, PassiveStandbyDiskStoreMigratesOnCrash) {
  ScenarioParams p = failstopParams(HaMode::kPassiveStandby, false);
  p.store.persistToDisk = true;
  const harness::ChaosOutcome out = runScripted(
      p, 3 * kSecond, [](Scenario& s) { crashAt(s, 2, 2 * kSecond); });
  EXPECT_EQ(out.result.recovery.count, 1u);
  EXPECT_TRUE(out.oracle.ok) << out.oracle.summary();
  expectPins(out, 0xf990735099e827ffULL, 0xe3287e682cb31779ULL);
}

TEST(GoldenFingerprint, DeltaTieredChaosSeedWithStaleAndMissedDeltas) {
  ScenarioParams p;
  p.mode = HaMode::kHybrid;
  p.protectedSubjobs = {1, 2, 3};
  p.provisionSpares = true;
  p.failStopAfter = 3 * kSecond;
  p.duration = 10 * kSecond;
  p.seed = 63;
  p.stateBytes = 2048;
  p.stateKeyBytes = 64;
  p.store.delta.enabled = true;
  p.store.delta.compactEveryRuns = 4;
  p.store.tiered = true;
  harness::ChaosProfile profile;
  profile.restartCrashed = true;
  profile.maxDuplicateProb = 0.05;
  p.faults = harness::makeChaosPlan(p, profile, p.seed).schedule;
  p.faultSeedSalt = p.seed;
  std::uint64_t staleConfirms = 0;
  const harness::ChaosOutcome out =
      runScripted(p, 2 * kSecond, nullptr, kNoMachine, {}, 0, [&](Scenario& s) {
        for (HaCoordinator* c : s.coordinators()) {
          if (CheckpointManager* cm = c->checkpointManager()) {
            staleConfirms += cm->stats().staleConfirms;
          }
        }
      });
  // The pin provably covers the delta store's stale and base-miss outcomes
  // and the manager's stale-confirm path.
  EXPECT_GT(out.result.state.staleDeltaDrops, 0u);
  EXPECT_GT(out.result.state.baseMisses, 0u);
  EXPECT_GT(staleConfirms, 0u);
  EXPECT_TRUE(out.oracle.ok) << out.oracle.summary();
  expectPins(out, 0x73b23e57af9e8c89ULL, 0x7eb11dfe00df5bb0ULL);
}

// -- Detectors no workload runs ----------------------------------------------

TEST(GoldenFingerprint, AccrualHybridUnderJitterAndSpike) {
  ScenarioParams p = hybridParams(61);
  p.duration = 9 * kSecond;
  p.accrual.enabled = true;
  p.accrual.failPhi = 2.0;
  SlowdownSpec jitter;
  jitter.kind = SlowdownKind::kHeartbeatJitter;
  jitter.machine = 2;
  jitter.delayProb = 0.3;
  jitter.maxExtraDelay = 150 * kMillisecond;
  jitter.beginAt = 1 * kSecond;
  jitter.endAt = 8 * kSecond;
  p.faults.slowdowns.push_back(jitter);
  const harness::ChaosOutcome out =
      runScripted(p, 3 * kSecond, nullptr, 2, {{4 * kSecond, 6 * kSecond}});
  EXPECT_EQ(out.result.switchovers, 1u);
  EXPECT_EQ(out.result.rollbacks, 1u);
  EXPECT_EQ(out.result.gray.suspicionCrossings, 1u);
  EXPECT_TRUE(out.oracle.ok) << out.oracle.summary();
  expectPins(out, 0x01df59239783907fULL, 0xba98ac4644cab84cULL);
}

TEST(GoldenFingerprint, PredictiveHybridOnRampedSpikes) {
  ScenarioParams p = hybridParams(44);
  p.duration = 9 * kSecond;
  p.detectorFactory = [](Simulator& sim, Network& net, Machine& monitor,
                         Machine& target, FailureDetector::Callbacks cb) {
    return std::make_unique<PredictiveDetector>(sim, net, monitor, target,
                                                std::move(cb));
  };
  const harness::ChaosOutcome out = runScripted(
      p, 3 * kSecond, nullptr, 2,
      {{2 * kSecond, 3500 * kMillisecond}, {5 * kSecond, 6500 * kMillisecond}},
      600 * kMillisecond);
  EXPECT_EQ(out.result.switchovers, 3u);
  EXPECT_EQ(out.result.rollbacks, 3u);
  EXPECT_TRUE(out.oracle.ok) << out.oracle.summary();
  expectPins(out, 0x69db71801a0403a7ULL, 0xdc5332368bfcd053ULL);
}

/// Every field of a DetectionScore, doubles in hexfloat (lossless).
std::string renderScore(const DetectionScore& score) {
  std::ostringstream out;
  out << std::hexfloat << "spikes=" << score.spikesTotal
      << " detected=" << score.spikesDetected
      << " declarations=" << score.declarations
      << " falseAlarms=" << score.falseAlarms
      << " detectionRatio=" << score.detectionRatio
      << " falseAlarmRatio=" << score.falseAlarmRatio
      << " delayMs=" << score.avgDetectionDelayMs;
  return out.str();
}

TEST(GoldenFingerprint, DetectionStudyHeartbeatAndBenchmark) {
  DetectionStudyParams params;
  params.spikeCount = 30;
  params.spikeLoad = 0.9;
  params.heartbeatLossProb = 0.02;
  const DetectionStudyResult r = runDetectionStudy(params);
  EXPECT_EQ(r.heartbeat.declarations, 29u);
  EXPECT_EQ(r.heartbeat.falseAlarms, 0u);
  EXPECT_EQ(r.benchmark.declarations, 228u);
  const std::string rendered = "heartbeat " + renderScore(r.heartbeat) +
                               "\nbenchmark " + renderScore(r.benchmark);
  const std::uint64_t actual = stableHash(rendered);
  EXPECT_EQ(actual, 0x01021509f0a61094ULL)
      << "actual digest: 0x" << std::hex << actual << "\n" << rendered;
}

// -- Data plane of a non-chain job --------------------------------------------

/// ingest -> {left, right} -> merge -> tail; `right` also feeds the sink.
/// Subjobs {ingest}, {left}, {right} and the protected {merge, tail}, whose
/// merge -> tail channel is a local wire. The sink receives both of merge's
/// inputs through tail plus right's stream: 3 elements per source element.
JobSpec dagJob() {
  JobBuilder b;
  const LogicalPeId ingest = b.addPe("ingest", 150.0);
  const LogicalPeId left = b.addPe("left", 250.0);
  const LogicalPeId right = b.addPe("right", 300.0);
  const LogicalPeId merge = b.addPe("merge", 100.0);
  const LogicalPeId tail = b.addPe("tail", 100.0);
  b.connectSource(ingest);
  b.connect(ingest, left);
  b.connect(ingest, right);
  b.connect(left, merge);
  b.connect(right, merge);
  b.connect(merge, tail);
  b.connectSink(right);
  b.connectSink(tail);
  b.addSubjob({ingest});
  b.addSubjob({left});
  b.addSubjob({right});
  b.addSubjob({merge, tail});
  return b.build();
}

/// What protects the DAG's {merge, tail} subjob and what happens to it.
struct DagRun {
  HaMode mode = HaMode::kHybrid;
  Windows spikes;                ///< CPU spikes on the protected primary.
  SimTime crashAt = kTimeNever;  ///< Permanent crash of the protected primary.
  double lossProb = 0.0;  ///< Drop and duplicate probability on every link.
};

struct DagOutcome {
  std::string result;  ///< Traffic, counts and HA counters, one string.
  std::string trace;   ///< JSONL trace.
  std::uint64_t generated = 0;
  std::uint64_t sinkReceived = 0;
  std::uint64_t gaps = 0;
  std::uint64_t switchovers = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t promotions = 0;
  std::uint64_t recoveries = 0;
};

/// Scenario builds only chains, so this deploys the DAG by hand: machines
/// 0-3 host the four subjobs (the source sits on 0), the sink is on 4, the
/// standby on 5 and the spare on 6. A Poisson source at 800/s runs 6 s,
/// then the job drains for 4 s with tracing on.
DagOutcome runDag(const DagRun& run) {
  TraceRecorder recorder;
  recorder.setEnabled(TraceEventType::kMessageSent, false);
  recorder.setEnabled(TraceEventType::kMessageDelivered, false);
  Cluster::Params cp;
  cp.machineCount = 9;
  cp.seed = 17;
  Cluster cluster(cp);
  cluster.attachTrace(&recorder);
  const bool lossy = run.lossProb > 0.0;
  std::unique_ptr<FaultInjector> injector;
  if (lossy) {
    FaultSchedule faults;
    LinkFaultRule rule;
    rule.dropProb = run.lossProb;
    rule.duplicateProb = run.lossProb;
    faults.links.push_back(rule);
    injector = std::make_unique<FaultInjector>(cluster, faults);
    cluster.network().enableReliable(ReliableParams{});
  }
  // Built after the fault hook is installed: that arms loss recovery.
  Runtime rt(cluster, dagJob());
  Source::Params sp;
  sp.ratePerSec = 800;
  sp.pattern = Source::Pattern::kPoisson;
  rt.addSource(0, sp);
  rt.addSink(4);
  rt.deployPrimaries({0, 1, 2, 3});

  HaParams ha;
  ha.standbyMachine = 5;
  ha.spareMachine = 6;
  if (run.crashAt != kTimeNever) ha.failStopAfter = 2 * kSecond;
  if (lossy) ha.checkpoint.confirmTimeout = 1 * kSecond;
  std::unique_ptr<HaCoordinator> coordinator;
  if (run.mode == HaMode::kActiveStandby) {
    coordinator = std::make_unique<ActiveStandbyCoordinator>(rt, 3, ha);
  } else {
    ha.heartbeat.missThreshold = 1;
    coordinator = std::make_unique<HybridCoordinator>(rt, 3, ha);
  }
  coordinator->setup();

  Simulator& sim = cluster.sim();
  std::unique_ptr<LoadGenerator> gen;
  if (!run.spikes.empty()) {
    SpikeSpec spike;
    spike.magnitude = 0.97;
    gen = std::make_unique<LoadGenerator>(sim, cluster.machine(3), spike,
                                          cluster.forkRng(1234));
    gen->replayWindows(run.spikes);
  }
  if (run.crashAt != kTimeNever) {
    sim.schedule(run.crashAt, [&cluster] { cluster.machine(3).crash(); });
  }
  rt.start();
  sim.runUntil(6 * kSecond);
  rt.source()->stop();
  sim.runUntil(10 * kSecond);

  DagOutcome out;
  out.generated = rt.source()->generatedCount();
  out.sinkReceived = rt.sink()->receivedCount();
  out.gaps = rt.sink()->input().gapsObserved();
  out.switchovers = coordinator->switchovers();
  out.rollbacks = coordinator->rollbacks();
  out.promotions = coordinator->promotions();
  out.recoveries = coordinator->recoveries().size();
  std::ostringstream result;
  const Network::Counters& traffic = cluster.network().counters();
  for (std::size_t k = 0; k < kMsgKindCount; ++k) {
    result << toString(static_cast<MsgKind>(k)) << '=' << traffic.messages[k]
           << '/' << traffic.bytes[k] << '/' << traffic.elements[k] << ' ';
  }
  result << "generated=" << out.generated << " sink=" << out.sinkReceived
         << " checksum=" << rt.sink()->valueChecksum()
         << " switchovers=" << out.switchovers
         << " rollbacks=" << out.rollbacks
         << " promotions=" << out.promotions
         << " recoveries=" << out.recoveries
         << " events=" << sim.firedEvents();
  out.result = result.str();
  std::ostringstream trace;
  writeJsonl(recorder.events(), trace);
  out.trace = trace.str();
  return out;
}

/// Exactly-once at the sink, then both digests (as expectPins).
void expectDagPins(const DagOutcome& out, std::uint64_t result,
                   std::uint64_t trace) {
  EXPECT_GT(out.generated, 0u);
  EXPECT_EQ(out.sinkReceived, 3 * out.generated);
  EXPECT_EQ(out.gaps, 0u);
  EXPECT_FALSE(out.trace.empty());
  const std::uint64_t actualResult = stableHash(out.result);
  const std::uint64_t actualTrace = stableHash(out.trace);
  EXPECT_EQ(actualResult, result)
      << "actual result digest: 0x" << std::hex << actualResult << "\n"
      << out.result;
  EXPECT_EQ(actualTrace, trace)
      << "actual trace digest: 0x" << std::hex << actualTrace;
}

TEST(GoldenFingerprint, DagHybridSwitchoverAndRollback) {
  DagRun run;
  run.spikes = {{1 * kSecond, 2 * kSecond},
                {3500 * kMillisecond, 4500 * kMillisecond}};
  const DagOutcome out = runDag(run);
  EXPECT_EQ(out.switchovers, 2u);
  EXPECT_EQ(out.rollbacks, 2u);
  expectDagPins(out, 0x535a64b91c9aa5c2ULL, 0xd90afe6ac7f03066ULL);
}

TEST(GoldenFingerprint, DagHybridPromotionOntoSpare) {
  DagRun run;
  run.crashAt = 1500 * kMillisecond;
  const DagOutcome out = runDag(run);
  EXPECT_EQ(out.promotions, 1u);
  expectDagPins(out, 0x216b46cfdd1671b6ULL, 0xc52a52be496c6ba8ULL);
}

TEST(GoldenFingerprint, DagActiveStandbyReplacesCrashedCopy) {
  DagRun run;
  run.mode = HaMode::kActiveStandby;
  run.crashAt = 1500 * kMillisecond;
  const DagOutcome out = runDag(run);
  EXPECT_EQ(out.recoveries, 1u);
  expectDagPins(out, 0x774f665fc8d50471ULL, 0xf05935ab770587daULL);
}

TEST(GoldenFingerprint, DagHybridUnderLossAndDuplicates) {
  DagRun run;
  run.lossProb = 0.03;
  const DagOutcome out = runDag(run);
  EXPECT_EQ(out.switchovers, 5u);
  EXPECT_EQ(out.rollbacks, 5u);
  expectDagPins(out, 0x72d0b8455654d1d5ULL, 0xa61dbc5845643136ULL);
}

}  // namespace
}  // namespace streamha
