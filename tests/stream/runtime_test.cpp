#include "stream/runtime.hpp"

#include <gtest/gtest.h>

#include "stream/job.hpp"

namespace streamha {
namespace {

struct RuntimeFixture : ::testing::Test {
  Cluster::Params clusterParams() {
    Cluster::Params p;
    p.machineCount = 8;
    p.seed = 11;
    return p;
  }

  std::unique_ptr<Cluster> cluster = std::make_unique<Cluster>(clusterParams());
  JobSpec spec = JobBuilder::chain(4, 2, 100.0);
  std::unique_ptr<Runtime> rt = std::make_unique<Runtime>(*cluster, spec);

  void deployAll() {
    Source::Params sp;
    sp.ratePerSec = 500;
    rt->addSource(0, sp);
    rt->addSink(2);
    rt->deployPrimaries({0, 1});
  }
};

TEST_F(RuntimeFixture, DeployPrimariesCreatesInstancesAndWires) {
  deployAll();
  EXPECT_EQ(rt->allInstances().size(), 2u);
  Subjob* sj0 = rt->instanceOf(0, Replica::kPrimary);
  Subjob* sj1 = rt->instanceOf(1, Replica::kPrimary);
  ASSERT_NE(sj0, nullptr);
  ASSERT_NE(sj1, nullptr);
  EXPECT_EQ(sj0->peCount(), 2u);
  // Cross-machine wires: source->sj0, sj0->sj1, sj1->sink.
  EXPECT_EQ(rt->wiresInto(*sj0).size(), 1u);
  EXPECT_EQ(rt->wiresInto(*sj1).size(), 1u);
  EXPECT_EQ(rt->wiresOutOf(*sj1).size(), 1u);
}

TEST_F(RuntimeFixture, PipelineDeliversEndToEnd) {
  deployAll();
  rt->start();
  cluster->sim().runUntil(2 * kSecond);
  EXPECT_GT(rt->sink()->receivedCount(), 800u);
  EXPECT_EQ(rt->sink()->input().gapsObserved(), 0u);
}

TEST_F(RuntimeFixture, WireInstanceIsIdempotent) {
  deployAll();
  Subjob* sj1 = rt->instanceOf(1, Replica::kPrimary);
  const auto before = rt->wiresInto(*sj1).size();
  rt->wireInstance(*sj1, Runtime::WireOpts{true, true},
                   Runtime::WireOpts{true, true});
  EXPECT_EQ(rt->wiresInto(*sj1).size(), before);
}

TEST_F(RuntimeFixture, SecondaryCopyWiresAcrossButNotWithinSubjob) {
  deployAll();
  Subjob& copy = rt->instantiate(1, 5, Replica::kSecondary);
  rt->wireInstance(copy, Runtime::WireOpts{false, false},
                   Runtime::WireOpts{false, false});
  // Inbound: from subjob 0's primary only (not from its own primary copy's
  // first PE, and not from the source).
  const auto inbound = rt->wiresInto(copy);
  ASSERT_EQ(inbound.size(), 1u);
  EXPECT_EQ(inbound[0]->producer, rt->instanceOf(0, Replica::kPrimary));
  // Outbound: to the sink.
  const auto outbound = rt->wiresOutOf(copy);
  ASSERT_EQ(outbound.size(), 1u);
  EXPECT_EQ(outbound[0]->consumerPe, nullptr);
  // The primary of subjob 1 gained no new inbound wires (local channels of
  // the copy stay inside the copy).
  Subjob* primary = rt->instanceOf(1, Replica::kPrimary);
  EXPECT_EQ(rt->wiresInto(*primary).size(), 1u);
}

TEST_F(RuntimeFixture, InactiveWireCarriesNoTraffic) {
  deployAll();
  Subjob& copy = rt->instantiate(1, 5, Replica::kSecondary);
  copy.suspendAll();
  rt->wireInstance(copy, Runtime::WireOpts{false, false},
                   Runtime::WireOpts{false, false});
  rt->start();
  cluster->sim().runUntil(kSecond);
  EXPECT_EQ(copy.firstPe().input().size(), 0u);
}

TEST_F(RuntimeFixture, ActivatingWireDeliversBacklog) {
  deployAll();
  Subjob& copy = rt->instantiate(1, 5, Replica::kSecondary);
  copy.suspendAll();
  rt->wireInstance(copy, Runtime::WireOpts{false, false},
                   Runtime::WireOpts{false, false});
  rt->start();
  cluster->sim().runUntil(kSecond);
  for (Runtime::Wire* wire : rt->wiresInto(copy)) {
    // Inputs are strictly in-order, so mirror a real activation: align the
    // consumer's watermark with the producer's trim point (a coordinator does
    // this by restoring checkpointed state) before opening the wire.
    copy.firstPe().input().resetStream(wire->stream, wire->oq->trimmedUpTo());
    wire->oq->setConnectionActive(wire->connId, true);
  }
  cluster->sim().runUntil(1100 * kMillisecond);
  EXPECT_GT(copy.firstPe().input().size(), 0u);
}

TEST_F(RuntimeFixture, WireInstanceWithCostTakesTime) {
  deployAll();
  rt->start();
  Subjob& copy = rt->instantiate(1, 5, Replica::kSecondary);
  copy.suspendAll();
  SimTime done_at = -1;
  const SimTime started = cluster->sim().now();
  rt->wireInstanceWithCost(copy, Runtime::WireOpts{false, false},
                           Runtime::WireOpts{false, false},
                           [&] { done_at = cluster->sim().now(); });
  cluster->sim().runUntil(5 * kSecond);
  ASSERT_GE(done_at, 0);
  // At least the connection work must have elapsed.
  EXPECT_GE(done_at - started,
            static_cast<SimTime>(Runtime::kConnectWorkUs));
  EXPECT_EQ(rt->wiresInto(copy).size(), 1u);
  EXPECT_EQ(rt->wiresOutOf(copy).size(), 1u);
}

TEST_F(RuntimeFixture, RemoveWiresOfDetachesInstance) {
  deployAll();
  Subjob& copy = rt->instantiate(1, 5, Replica::kSecondary);
  rt->wireInstance(copy, Runtime::WireOpts{true, true},
                   Runtime::WireOpts{true, true});
  EXPECT_FALSE(rt->wiresInto(copy).empty());
  rt->removeWiresOf(copy);
  EXPECT_TRUE(rt->wiresInto(copy).empty());
  EXPECT_TRUE(rt->wiresOutOf(copy).empty());
}

TEST_F(RuntimeFixture, RemovedWireTakesItsAckRouteAlong) {
  deployAll();
  // A second copy of the producer subjob feeds subjob 1's first PE.
  Subjob& copy = rt->instantiate(0, 5, Replica::kSecondary);
  rt->wireInstance(copy, Runtime::WireOpts{true, true},
                   Runtime::WireOpts{true, true});
  rt->start();
  cluster->sim().runUntil(kSecond);
  copy.terminateAll();
  rt->removeWiresOf(copy);
  // Installed after the Runtime was built, so loss recovery stays off.
  int acksToRemovedCopy = 0;
  cluster->network().setFault(
      [&](MachineId, MachineId dst, MsgKind kind, std::size_t) {
        if (kind == MsgKind::kAck && dst == 5) ++acksToRemovedCopy;
        return Network::FaultDecision{};
      });
  cluster->sim().runUntil(2 * kSecond);
  EXPECT_EQ(acksToRemovedCopy, 0);
  EXPECT_GT(rt->sink()->receivedCount(), 800u);
}

TEST_F(RuntimeFixture, InstancesOfSkipsTerminated) {
  deployAll();
  Subjob& copy = rt->instantiate(1, 5, Replica::kSecondary);
  EXPECT_EQ(rt->instancesOf(1).size(), 2u);
  copy.terminateAll();
  EXPECT_EQ(rt->instancesOf(1).size(), 1u);
  EXPECT_EQ(rt->instanceOf(1, Replica::kSecondary), nullptr);
}

}  // namespace
}  // namespace streamha
