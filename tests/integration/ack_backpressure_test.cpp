// Ack-resend back-pressure: a duplicate data arrival means the sender is
// behind on acks, so the receiver resends its last ack -- but rate-limited
// (one resend per stream per kAckFlushInterval), or a duplicate storm would
// amplify into an ack storm. This stress test drives the duplicate rate far
// beyond what the chaos sweeps use and asserts both sides of the contract:
// exactly-once still holds, and ack traffic stays bounded by the rate limit
// rather than scaling with the duplicate count.
#include <gtest/gtest.h>

#include "harness/chaos_harness.hpp"

namespace streamha {
namespace {

TEST(AckBackpressure, ExtremeDuplicateRatesDoNotAmplifyAckTraffic) {
  ScenarioParams p;
  p.mode = HaMode::kHybrid;
  p.protectedSubjobs = {1, 2, 3};
  p.duration = 10 * kSecond;
  p.seed = 77;
  // Half of every data and ack message is delivered twice, plus jitter, for
  // the entire run. No loss, no crashes: duplicate handling is the one thing
  // under stress.
  LinkFaultRule rule;
  rule.kinds = maskOf(MsgKind::kData) | maskOf(MsgKind::kAck);
  rule.duplicateProb = 0.5;
  rule.delayProb = 0.2;
  rule.maxExtraDelay = 2 * kMillisecond;
  p.faults.links.push_back(rule);

  Scenario s(p);
  s.build();
  s.start();
  s.run(p.duration);
  s.drain(8 * kSecond);
  const ScenarioResult r = s.collect();
  const harness::OracleReport oracle = harness::checkExactlyOnceInOrder(s, r);
  EXPECT_TRUE(oracle.ok) << oracle.summary();

  // Duplicates were actually delivered in bulk...
  std::uint64_t duplicatesDropped = 0;
  for (const auto& inst : s.runtime().allInstances()) {
    for (std::size_t i = 0; i < inst->peCount(); ++i) {
      duplicatesDropped += inst->pe(i).input().duplicatesDropped();
    }
  }
  EXPECT_GT(duplicatesDropped, 1000u);

  // ... yet ack traffic stayed inside the rate limit. Each consumer may send
  // at most one timer flush plus one duplicate-triggered resend per stream
  // per kAckFlushInterval (10ms): with 8 chain streams plus the sink and both
  // replica sets acking, ~20 sender-streams over the ~20s simulated give
  // 2 * 20 * 2000 = 80k as a hard ceiling; unthrottled resends (one per
  // duplicate arrival) would blow far past it.
  const auto acks = s.cluster().network().counters().messagesOf(MsgKind::kAck);
  EXPECT_GT(acks, 0u);
  EXPECT_LT(acks, 80000u);
}

}  // namespace
}  // namespace streamha
