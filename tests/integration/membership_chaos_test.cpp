// Churn-storm chaos sweeps for the elastic-membership subsystem
// (src/membership/): lease-based roster transitions -- mid-run joins of
// latent machines, graceful retirements and silenced beacons (lease-expiry
// evictions) -- racing the established chaos dimensions (loss, partitions,
// crash/restart switchover-rollback cycles, domain kills).
//
//  * The 25-seed storm sweep holds the exactly-once oracle on every seed and
//    replays bit-identically (parallel-vs-serial cross-check).
//  * A focused scenario loses a protected primary AND its standby to a
//    whole-rack kill with the replacement pool exhausted; recovery must wait
//    for -- and then draft -- a machine that joined mid-run, proving the
//    roster is genuinely dynamic end to end.
//
// The CI job `chaos-membership` runs exactly these via `ctest -R Membership`.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ha/hybrid.hpp"
#include "harness/chaos_harness.hpp"
#include "harness/sweep_runner.hpp"

namespace streamha {
namespace {

// ---------------------------------------------------------------------------
// The storm sweep: 15 machines (4 primaries + sink + 8-machine pool + 2
// latent), protected subjobs 1..3, background loss + a healed partition + one
// crash-with-restart (switchover/rollback cycles), and a churn storm of 2
// joins, 1 retirement and 1 silenced beacon landing inside the fault window.
// ---------------------------------------------------------------------------

ScenarioParams stormParams(std::uint64_t seed) {
  ScenarioParams p;
  p.mode = HaMode::kHybrid;
  p.protectedSubjobs = {1, 2, 3};
  p.failStopAfter = 3 * kSecond;
  p.duration = 30 * kSecond;
  p.seed = seed;
  p.placement.enabled = true;
  p.placement.domainAware = true;
  p.placement.topology.racks = 4;
  p.placement.poolMachines = 8;
  p.membership.enabled = true;
  p.membership.latentMachines = 2;
  return p;
}

harness::ChaosProfile stormProfile() {
  harness::ChaosProfile profile;
  // Crash with restart: every seed exercises a switchover and (usually) a
  // rollback while roster transitions are in flight.
  profile.withCrash = true;
  profile.restartCrashed = true;
  profile.withChurn = true;
  // Leave recovery headroom inside the run.
  profile.faultsUntil = 20 * kSecond;
  return profile;
}

harness::ChaosRunOpts stormOpts(bool captureTrace = false) {
  harness::ChaosRunOpts opts;
  opts.quiescentDrain = true;
  opts.captureTrace = captureTrace;
  return opts;
}

harness::ParamsFn stormParamsFn() {
  return [](std::uint64_t seed) {
    ScenarioParams p = stormParams(seed);
    p.faults = harness::makeChaosPlan(p, stormProfile(), seed).schedule;
    p.faultSeedSalt = seed;
    return p;
  };
}

TEST(MembershipChaosSweep, ChurnStormHoldsExactlyOnce25Seeds) {
  const std::vector<std::uint64_t> seeds = harness::seedRange(1, 25);
  const harness::ParamsFn makeParams = stormParamsFn();
  const std::vector<harness::ChaosOutcome> outcomes =
      harness::runChaosSweep(seeds, makeParams, stormOpts());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const std::uint64_t seed = seeds[i];
    const harness::ChaosOutcome& out = outcomes[i];
    const harness::ChaosPlan plan =
        harness::makeChaosPlan(stormParams(seed), stormProfile(), seed);
    // The storm really materialized: latent joins plus pool-machine leaves.
    ASSERT_EQ(plan.churnJoined.size(), 2u) << "seed " << seed;
    ASSERT_EQ(plan.churnRetired.size(), 1u) << "seed " << seed;
    ASSERT_EQ(plan.churnSilenced.size(), 1u) << "seed " << seed;
    EXPECT_TRUE(out.oracle.ok)
        << "seed " << seed << ": " << out.oracle.summary() << "\nschedule:\n"
        << plan.schedule.describe();
    // Joins: both latent machines were admitted (beacons are lossy but
    // repeat every interval; crash restarts may re-join founding members on
    // top of these, hence GE).
    EXPECT_GE(out.result.membership.joins, 2u) << "seed " << seed;
    EXPECT_GE(out.result.membership.warmUps, 2u) << "seed " << seed;
    // The graceful leave rides the reliable path: always delivered.
    EXPECT_GE(out.result.membership.retirements, 1u) << "seed " << seed;
    // The silenced member's lease lapsed (crashed members may add more).
    EXPECT_GE(out.result.membership.leaseExpiries, 1u) << "seed " << seed;
    EXPECT_TRUE(out.quiescence.quiescent) << "seed " << seed;
  }

  // Bit-identical replay: re-run every seed serially and compare result
  // fingerprints against the parallel sweep's.
  const std::vector<std::string> mismatches =
      harness::serialCrossCheck(seeds, outcomes, makeParams, stormOpts(),
                                seeds);
  EXPECT_TRUE(mismatches.empty())
      << "serial replay diverged:\n"
      << [&] {
           std::string all;
           for (const auto& m : mismatches) all += m + "\n";
           return all;
         }();
}

// ---------------------------------------------------------------------------
// Determinism: one storm seed -- joins, retirement, lease expiry, switchover
// and rollback all racing -- replays with a bit-identical trace.
// ---------------------------------------------------------------------------

TEST(MembershipChaosDeterminism, ChurnStormRunsAreBitIdentical) {
  auto runOnce = [] {
    ScenarioParams p = stormParams(7);
    p.trace.enabled = true;
    p.faults = harness::makeChaosPlan(p, stormProfile(), 7).schedule;
    p.faultSeedSalt = 7;
    return harness::runChaosScenario(p, stormOpts(/*captureTrace=*/true));
  };
  const harness::ChaosOutcome first = runOnce();
  const harness::ChaosOutcome second = runOnce();
  ASSERT_FALSE(first.trace.empty());
  EXPECT_GE(first.result.membership.joins, 2u);
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.resultFingerprint, second.resultFingerprint);
}

// ---------------------------------------------------------------------------
// Recovery onto a mid-run-joined node: a whole-rack kill takes the only
// protected primary AND its standby with the replacement pool exhausted; the
// coordinator's deployReplacement retry loop spins on the empty pool until a
// latent machine joins, warms up and gets drafted as the replacement host.
// ---------------------------------------------------------------------------

/// 3 racks, primaries 0..3, sink on 4, pool {5}, latent {6}; only subjob 2
/// protected. Oblivious placement puts the standby on pool[0] = 5, which
/// shares primary 2's rack (5 % 3 == 2 % 3 == 2). Racks 0 (source) and 1
/// (sink) are excluded, so the domain kill always flattens rack 2 = {2, 5}:
/// primary and standby gone together, pool empty.
ScenarioParams joinedNodeParams() {
  ScenarioParams p;
  p.mode = HaMode::kHybrid;
  p.protectedSubjobs = {2};
  p.failStopAfter = 3 * kSecond;
  p.duration = 30 * kSecond;
  p.seed = 5;
  p.placement.enabled = true;
  p.placement.domainAware = false;
  p.placement.topology.racks = 3;
  p.placement.poolMachines = 1;
  p.membership.enabled = true;
  p.membership.latentMachines = 1;
  return p;
}

TEST(MembershipRecovery, ReplacementDraftsMidRunJoinedNode) {
  ScenarioParams p = joinedNodeParams();
  p.trace.enabled = true;
  harness::ChaosProfile profile;
  // Fault-free except the kill itself: every trace line is attributable.
  profile.maxLossProb = 0.0;
  profile.maxDuplicateProb = 0.0;
  profile.maxDelayProb = 0.0;
  profile.partitionCount = 0;
  profile.withCrash = false;
  profile.withDomainKill = true;
  profile.domainKillDownFor = kTimeNever;
  // Narrow kill window so the join at 14s is strictly after the loss.
  profile.faultsFrom = 8 * kSecond;
  profile.faultsUntil = 9 * kSecond;
  const harness::ChaosPlan plan = harness::makeChaosPlan(p, profile, 5);
  ASSERT_EQ(plan.killedRack, 2);
  ASSERT_EQ(plan.domainKillMachines, (std::vector<MachineId>{2, 5}));
  p.faults = plan.schedule;
  p.faultSeedSalt = 5;
  // The churn storm dimension is off; schedule the join by hand so its
  // ordering against the kill is explicit.
  ChurnSpec join;
  join.kind = ChurnKind::kJoin;
  join.machine = 6;
  join.at = 14 * kSecond;
  p.faults.churn.push_back(join);

  const harness::ChaosOutcome out =
      harness::runChaosScenario(p, stormOpts(/*captureTrace=*/true));
  EXPECT_TRUE(out.oracle.ok) << out.oracle.summary();
  EXPECT_EQ(out.oracle.delivered, out.oracle.generated);
  EXPECT_EQ(out.result.placement.domainLosses, 1u);
  EXPECT_EQ(out.result.placement.reprovisions, 1u);
  // The pool was empty when the loss hit: the retry loop had to spin at
  // least once before the joined machine became draftable.
  EXPECT_GE(out.result.placement.plannerExhausted, 1u);
  EXPECT_GE(out.result.placement.reprovisionRetries, 1u);
  // The join is real and visible: admission, warm-up, then the recovery arc
  // completing on the new capacity.
  EXPECT_EQ(out.result.membership.joins, 1u);
  EXPECT_EQ(out.result.membership.warmUps, 1u);
  EXPECT_NE(out.trace.find("MachineJoined"), std::string::npos);
  EXPECT_NE(out.trace.find("ReprovisionBegin"), std::string::npos);
  EXPECT_NE(out.trace.find("ReprovisionEnd"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Membership racing a permanent domain kill across seeds: the oblivious
// big-cluster layout loses primary+standby racks while latent machines join
// and pool machines churn out -- re-provisioning plus a live roster must
// still converge to exactly-once.
// ---------------------------------------------------------------------------

harness::ChaosProfile domainChurnProfile() {
  harness::ChaosProfile profile = stormProfile();
  profile.withCrash = false;  // The rack kill owns every crash.
  profile.withDomainKill = true;
  profile.domainKillDownFor = kTimeNever;
  return profile;
}

ScenarioParams domainChurnParams(std::uint64_t seed) {
  ScenarioParams p = stormParams(seed);
  p.placement.domainAware = false;  // Guarantee both-copies losses.
  return p;
}

TEST(MembershipChaosSweep, ChurnRacesDomainKillReprovisioning5Seeds) {
  const std::vector<std::uint64_t> seeds = harness::seedRange(1, 5);
  auto makeParams = [](std::uint64_t seed) {
    ScenarioParams p = domainChurnParams(seed);
    p.faults = harness::makeChaosPlan(p, domainChurnProfile(), seed).schedule;
    p.faultSeedSalt = seed;
    return p;
  };
  const std::vector<harness::ChaosOutcome> outcomes =
      harness::runChaosSweep(seeds, makeParams, stormOpts());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const std::uint64_t seed = seeds[i];
    const harness::ChaosOutcome& out = outcomes[i];
    EXPECT_TRUE(out.oracle.ok) << "seed " << seed << ": "
                               << out.oracle.summary();
    // A latent machine that lives in the permanently-killed rack stays dark
    // forever (its beacons never leave a dead machine), so only joins
    // planned outside that rack are guaranteed to materialize.
    const harness::ChaosPlan plan = harness::makeChaosPlan(
        domainChurnParams(seed), domainChurnProfile(), seed);
    std::uint64_t survivableJoins = 0;
    for (const MachineId m : plan.churnJoined) {
      const int racks = domainChurnParams(seed).placement.topology.racks;
      if (static_cast<int>(m % racks) != plan.killedRack) ++survivableJoins;
    }
    EXPECT_GE(out.result.membership.joins, survivableJoins)
        << "seed " << seed;
    EXPECT_TRUE(out.quiescence.quiescent) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Graceful-leave drain racing backpressure: the standby's host retires while
// the overloaded pipeline is cycling pause/resume credits. The drain (tear
// down the standby, rebuild on a planner-chosen machine) must complete under
// backpressure without costing a single element.
// ---------------------------------------------------------------------------

TEST(MembershipDrain, StandbyHostRetireDrainsUnderBackpressure) {
  ScenarioParams p;
  p.mode = HaMode::kHybrid;
  p.protectedSubjobs = {1};
  p.numPes = 4;
  p.pesPerSubjob = 2;
  p.peWorkUs = 1500.0;  // Overloaded: ~1.5 PE-seconds of work per second.
  p.dataRatePerSec = 1000.0;
  p.duration = 15 * kSecond;
  p.seed = 11;
  p.flow.sendWindow = 32;
  p.flow.pauseThreshold = 40;
  p.placement.enabled = true;
  p.placement.poolMachines = 3;
  p.membership.enabled = true;

  Scenario s(p);
  s.build();
  ASSERT_NE(s.membership(), nullptr);
  const MachineId standbyHost = s.standbyMachineOf(1);
  ASSERT_NE(standbyHost, kNoMachine);
  s.start();
  s.cluster().sim().schedule(
      8 * kSecond - s.cluster().sim().now(),
      [&s, standbyHost] { s.membership()->retire(standbyHost); });
  s.run(p.duration);
  const QuiescenceReport q = s.drainQuiescent();
  const ScenarioResult r = s.collect();

  // The race was real: backpressure cycled while the drain ran.
  EXPECT_GE(r.flow.pauses, 1u);
  EXPECT_EQ(r.membership.retirements, 1u);
  // The drain completed: the standby left its retired host for a
  // planner-chosen pool machine.
  EXPECT_GE(r.placement.standbyRedeploys, 1u);
  auto* hybrid = dynamic_cast<HybridCoordinator*>(s.coordinatorFor(1));
  ASSERT_NE(hybrid, nullptr);
  EXPECT_NE(hybrid->standbyMachine(), standbyHost);
  EXPECT_NE(hybrid->standbyMachine(), kNoMachine);
  // And it cost nothing: exactly-once, clean wind-down.
  const harness::OracleReport oracle = harness::checkExactlyOnceInOrder(s, r);
  EXPECT_TRUE(oracle.ok) << oracle.summary();
  EXPECT_TRUE(q.quiescent);
}

// ---------------------------------------------------------------------------
// Flag-off hygiene: with membership disabled (the default) the subsystem
// contributes nothing -- zero telemetry, no beacon traffic, no trace events
// -- and enabling it without churn changes nothing about delivery.
// ---------------------------------------------------------------------------

TEST(MembershipDisabled, DisabledRunsCarryNoMembershipFootprint) {
  ScenarioParams p;
  p.mode = HaMode::kHybrid;
  p.protectedSubjobs = {1};
  p.duration = 10 * kSecond;
  p.seed = 3;
  p.trace.enabled = true;
  Scenario s(p);
  s.build();
  EXPECT_EQ(s.membership(), nullptr);
  s.start();
  s.run(p.duration);
  s.drain();
  const ScenarioResult r = s.collect();
  EXPECT_EQ(r.membership.joins, 0u);
  EXPECT_EQ(r.membership.beaconsSent, 0u);
  EXPECT_EQ(r.membership.rosterSize, 0u);
  const std::string trace = harness::traceJsonl(s);
  EXPECT_EQ(trace.find("MachineJoined"), std::string::npos);
  EXPECT_EQ(trace.find("Beacon"), std::string::npos);
}

TEST(MembershipDisabled, EnabledWithoutChurnStillDeliversEverything) {
  ScenarioParams p;
  p.mode = HaMode::kHybrid;
  p.protectedSubjobs = {1};
  p.duration = 10 * kSecond;
  p.seed = 3;
  p.membership.enabled = true;
  Scenario s(p);
  s.build();
  ASSERT_NE(s.membership(), nullptr);
  s.start();
  s.run(p.duration);
  s.drain();
  const ScenarioResult r = s.collect();
  // Founding members beacon from the start and hold their leases: full
  // roster, no joins (founders are silent admissions), no evictions.
  EXPECT_EQ(r.membership.joins, 0u);
  EXPECT_EQ(r.membership.leaseExpiries, 0u);
  EXPECT_GT(r.membership.beaconsSent, 0u);
  EXPECT_EQ(r.membership.rosterSize, s.machineCount());
  EXPECT_EQ(s.sink().receivedCount(), s.source().generatedCount());
}

}  // namespace
}  // namespace streamha
