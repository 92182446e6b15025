#include "net/network.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace streamha {
namespace {

struct NetFixture : ::testing::Test {
  Simulator sim;
  bool machine0_up = true;
  bool machine1_up = true;

  Network makeNet(Network::Params params = {}) {
    return Network(sim, params, [this](MachineId id) {
      return id == 0 ? machine0_up : machine1_up;
    });
  }
};

TEST_F(NetFixture, DeliveryTimeIsTransmitPlusLatency) {
  Network::Params params;
  params.latency = 100;
  params.bytesPerMicro = 125.0;
  Network net = makeNet(params);
  SimTime delivered_at = -1;
  net.send(0, 1, MsgKind::kData, 1250, 1, [&] { delivered_at = sim.now(); });
  sim.runAll();
  EXPECT_EQ(delivered_at, 10 + 100);  // 1250B / 125B-per-us + latency.
}

TEST_F(NetFixture, LinkSerializesBackToBackMessages) {
  Network::Params params;
  params.latency = 100;
  params.bytesPerMicro = 125.0;
  Network net = makeNet(params);
  std::vector<SimTime> deliveries;
  net.send(0, 1, MsgKind::kData, 1250, 1, [&] { deliveries.push_back(sim.now()); });
  net.send(0, 1, MsgKind::kData, 1250, 1, [&] { deliveries.push_back(sim.now()); });
  sim.runAll();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], 110);
  EXPECT_EQ(deliveries[1], 120);  // Second waits for the link.
}

TEST_F(NetFixture, OppositeDirectionsDoNotSerialize) {
  Network::Params params;
  params.latency = 100;
  params.bytesPerMicro = 125.0;
  Network net = makeNet(params);
  std::vector<SimTime> deliveries;
  net.send(0, 1, MsgKind::kData, 1250, 1, [&] { deliveries.push_back(sim.now()); });
  net.send(1, 0, MsgKind::kData, 1250, 1, [&] { deliveries.push_back(sim.now()); });
  sim.runAll();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], 110);
  EXPECT_EQ(deliveries[1], 110);
}

TEST_F(NetFixture, CountersTrackPerKind) {
  Network net = makeNet();
  net.send(0, 1, MsgKind::kData, 100, 3, [] {});
  net.send(0, 1, MsgKind::kAck, 64, 0, [] {});
  net.send(1, 0, MsgKind::kCheckpoint, 2000, 20, [] {});
  sim.runAll();
  const auto& c = net.counters();
  EXPECT_EQ(c.messagesOf(MsgKind::kData), 1u);
  EXPECT_EQ(c.elementsOf(MsgKind::kData), 3u);
  EXPECT_EQ(c.bytesOf(MsgKind::kData), 100u);
  EXPECT_EQ(c.messagesOf(MsgKind::kAck), 1u);
  EXPECT_EQ(c.elementsOf(MsgKind::kCheckpoint), 20u);
  EXPECT_EQ(c.totalMessages(), 3u);
  EXPECT_EQ(c.totalElements(), 23u);
  EXPECT_EQ(c.totalBytes(), 2164u);
}

TEST_F(NetFixture, LocalDeliveryIsNotCounted) {
  Network::Params params;
  params.localDelay = 10;
  Network net = makeNet(params);
  SimTime delivered_at = -1;
  net.send(1, 1, MsgKind::kData, 100, 1, [&] { delivered_at = sim.now(); });
  sim.runAll();
  EXPECT_EQ(delivered_at, 10);
  EXPECT_EQ(net.counters().totalMessages(), 0u);
}

TEST_F(NetFixture, DropToCrashedMachineAtDeliveryTime) {
  Network net = makeNet();
  bool delivered = false;
  net.send(0, 1, MsgKind::kData, 100, 1, [&] { delivered = true; });
  machine1_up = false;  // Goes down before delivery.
  sim.runAll();
  EXPECT_FALSE(delivered);
  // Counters still record the send (bytes hit the wire).
  EXPECT_EQ(net.counters().messagesOf(MsgKind::kData), 1u);
}

TEST_F(NetFixture, CounterSubtractionGivesWindowDeltas) {
  Network net = makeNet();
  net.send(0, 1, MsgKind::kData, 100, 1, [] {});
  sim.runAll();
  const auto baseline = net.snapshot();
  net.send(0, 1, MsgKind::kData, 100, 2, [] {});
  sim.runAll();
  const auto delta = net.snapshot() - baseline;
  EXPECT_EQ(delta.messagesOf(MsgKind::kData), 1u);
  EXPECT_EQ(delta.elementsOf(MsgKind::kData), 2u);
  EXPECT_EQ(delta.bytesOf(MsgKind::kData), 100u);
  EXPECT_EQ(delta.messagesOf(MsgKind::kAck), 0u);
  EXPECT_EQ(delta.totalMessages(), 1u);
}

TEST_F(NetFixture, CrashedSenderSendsNothing) {
  Network net = makeNet();
  machine0_up = false;
  bool delivered = false;
  net.send(0, 1, MsgKind::kData, 100, 1, [&] { delivered = true; });
  sim.runAll();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net.counters().totalMessages(), 0u);  // Never hit the wire.
}

TEST_F(NetFixture, ZeroByteControlMessageStillHasLatency) {
  Network::Params params;
  params.latency = 100;
  Network net = makeNet(params);
  SimTime delivered_at = -1;
  net.send(0, 1, MsgKind::kControl, 0, 0, [&] { delivered_at = sim.now(); });
  sim.runAll();
  EXPECT_EQ(delivered_at, 100);
}

TEST_F(NetFixture, CounterSubtractionCoversEveryKindAndTotals) {
  Network net = makeNet();
  // Baseline traffic: one message of every kind.
  for (std::size_t k = 0; k < kMsgKindCount; ++k) {
    net.send(0, 1, static_cast<MsgKind>(k), 10 * (k + 1),
             static_cast<std::uint64_t>(k), [] {});
  }
  sim.runAll();
  const auto baseline = net.snapshot();
  // Window traffic: two more of every kind.
  for (int round = 0; round < 2; ++round) {
    for (std::size_t k = 0; k < kMsgKindCount; ++k) {
      net.send(1, 0, static_cast<MsgKind>(k), 5,
               static_cast<std::uint64_t>(k) + 1, [] {});
    }
  }
  sim.runAll();
  const auto delta = net.snapshot() - baseline;
  std::uint64_t messages = 0, elements = 0, bytes = 0;
  for (std::size_t k = 0; k < kMsgKindCount; ++k) {
    const auto kind = static_cast<MsgKind>(k);
    EXPECT_EQ(delta.messagesOf(kind), 2u) << toString(kind);
    EXPECT_EQ(delta.elementsOf(kind), 2u * (static_cast<std::uint64_t>(k) + 1))
        << toString(kind);
    EXPECT_EQ(delta.bytesOf(kind), 10u) << toString(kind);
    messages += delta.messagesOf(kind);
    elements += delta.elementsOf(kind);
    bytes += delta.bytesOf(kind);
  }
  // The totals are consistent with the per-kind deltas.
  EXPECT_EQ(delta.totalMessages(), messages);
  EXPECT_EQ(delta.totalElements(), elements);
  EXPECT_EQ(delta.totalBytes(), bytes);
}

TEST_F(NetFixture, AllKindsShareOneLinksBandwidth) {
  // Serialization is per-(src, dst) link, not per message kind: a checkpoint
  // transfer delays a data batch queued right behind it.
  Network::Params params;
  params.latency = 100;
  params.bytesPerMicro = 125.0;
  Network net = makeNet(params);
  std::vector<std::pair<MsgKind, SimTime>> deliveries;
  net.send(0, 1, MsgKind::kCheckpoint, 12500, 0,
           [&] { deliveries.emplace_back(MsgKind::kCheckpoint, sim.now()); });
  net.send(0, 1, MsgKind::kData, 1250, 1,
           [&] { deliveries.emplace_back(MsgKind::kData, sim.now()); });
  sim.runAll();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0].first, MsgKind::kCheckpoint);
  EXPECT_EQ(deliveries[0].second, 100 + 100);  // 12500B / 125B-per-us.
  EXPECT_EQ(deliveries[1].first, MsgKind::kData);
  EXPECT_EQ(deliveries[1].second, 100 + 10 + 100);  // Queued behind it.
}

TEST_F(NetFixture, DistinctDestinationsAreIndependentLinks) {
  Network::Params params;
  params.latency = 100;
  params.bytesPerMicro = 125.0;
  Network net = makeNet(params);
  std::vector<SimTime> deliveries;
  net.send(0, 1, MsgKind::kData, 1250, 1, [&] { deliveries.push_back(sim.now()); });
  net.send(0, 2, MsgKind::kData, 1250, 1, [&] { deliveries.push_back(sim.now()); });
  sim.runAll();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], 110);
  EXPECT_EQ(deliveries[1], 110);  // No shared serialization.
}

TEST_F(NetFixture, FaultHookDropStillCountsAndOccupiesLink) {
  Network::Params params;
  params.latency = 100;
  params.bytesPerMicro = 125.0;
  Network net = makeNet(params);
  net.setFault([](MachineId, MachineId, MsgKind kind, std::size_t) {
    Network::FaultDecision d;
    d.drop = (kind == MsgKind::kData);
    return d;
  });
  std::vector<SimTime> deliveries;
  bool dataDelivered = false;
  net.send(0, 1, MsgKind::kData, 1250, 1, [&] { dataDelivered = true; });
  net.send(0, 1, MsgKind::kAck, 1250, 0, [&] { deliveries.push_back(sim.now()); });
  sim.runAll();
  EXPECT_FALSE(dataDelivered);
  // The dropped message still hit the wire: counted, and the ack behind it
  // had to wait for the link.
  EXPECT_EQ(net.counters().messagesOf(MsgKind::kData), 1u);
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0], 120);
}

TEST_F(NetFixture, FaultHookDuplicatesAndDelays) {
  Network::Params params;
  params.latency = 100;
  Network net = makeNet(params);
  net.setFault([](MachineId, MachineId, MsgKind kind, std::size_t) {
    Network::FaultDecision d;
    if (kind == MsgKind::kData) d.duplicates = 2;
    if (kind == MsgKind::kAck) d.extraDelay = 40;
    return d;
  });
  int dataDeliveries = 0;
  SimTime ackAt = -1;
  net.send(0, 1, MsgKind::kData, 0, 1, [&] { ++dataDeliveries; });
  net.send(0, 1, MsgKind::kAck, 0, 0, [&] { ackAt = sim.now(); });
  sim.runAll();
  EXPECT_EQ(dataDeliveries, 3);  // Original + 2 copies.
  EXPECT_EQ(ackAt, 140);         // Latency + injected jitter.
  // Duplicates are copies on the receive side, not extra sends.
  EXPECT_EQ(net.counters().messagesOf(MsgKind::kData), 1u);
}

// -- Batched same-link delivery ----------------------------------------------
//
// The network coalesces back-to-back same-instant deliveries on one link into
// a single scheduled pump event. Each delivery still carries the simulator
// rank reserved when it was sent, so the batching is invisible: the tests
// below pin the delivery contract directly.

Network::Params fastLink() {
  Network::Params p;
  p.latency = 100;
  p.bytesPerMicro = 125.0;
  return p;
}

/// A simulator + network pair with controllable liveness of machines 0, 1.
struct Rig {
  Rig()
      : net(sim, fastLink(),
            [this](MachineId id) { return id == 0 ? up0 : up1; }) {}
  Simulator sim;
  bool up0 = true;
  bool up1 = true;
  Network net;
};

/// A fault hook replaying `decisions` in send order (defaults past the end);
/// counts its calls in `*calls`.
Network::FaultFn scriptedFaults(std::vector<Network::FaultDecision> decisions,
                                std::shared_ptr<int> calls) {
  return [decisions = std::move(decisions), calls](MachineId, MachineId,
                                                   MsgKind, std::size_t) {
    const auto i = static_cast<std::size_t>((*calls)++);
    return i < decisions.size() ? decisions[i] : Network::FaultDecision{};
  };
}

TEST(BatchedDelivery, SameInstantRunFiresAsOneScheduledEvent) {
  Rig rig;
  std::vector<SimTime> at;
  // Zero-byte control messages: no transmit time, so all four arrive at the
  // same instant with consecutive delivery ranks.
  for (int i = 0; i < 4; ++i) {
    rig.net.send(0, 1, MsgKind::kControl, 0, 0,
                 [&] { at.push_back(rig.sim.now()); });
  }
  rig.sim.runAll();
  EXPECT_EQ(at, (std::vector<SimTime>{100, 100, 100, 100}));
  EXPECT_EQ(rig.sim.firedEvents(), 1u);
}

TEST(BatchedDelivery, DeliveriesLandInArrivalThenSendOrderWithDuplicatesAdjacent) {
  Rig rig;
  auto calls = std::make_shared<int>(0);
  Network::FaultDecision tripled;
  tripled.duplicates = 2;
  Network::FaultDecision late;
  late.extraDelay = 50;
  rig.net.setFault(scriptedFaults({{}, {}, {}, tripled, late}, calls));
  std::vector<std::pair<int, SimTime>> log;
  auto sendAs = [&](int id, std::size_t bytes) {
    rig.net.send(0, 1, MsgKind::kData, bytes, 1,
                 [&log, &rig, id] { log.emplace_back(id, rig.sim.now()); });
  };
  sendAs(0, 0);     // Arrives at 100.
  sendAs(1, 1250);  // 10 us on the wire: arrives at 110, link free at 10.
  sendAs(2, 0);     // Queued behind 1: arrives at 110.
  sendAs(3, 0);     // Arrives at 110, plus two duplicate copies.
  sendAs(4, 0);     // Jittered: sent before 5 but arrives at 160.
  sendAs(5, 0);     // Arrives at 110.
  rig.sim.runAll();
  const std::vector<std::pair<int, SimTime>> expected = {
      {0, 100}, {1, 110}, {2, 110}, {3, 110},
      {3, 110}, {3, 110}, {5, 110}, {4, 160}};
  EXPECT_EQ(log, expected);
}

TEST(BatchedDelivery, ForeignEventBetweenTwoSameInstantSendsFiresBetweenThem) {
  Rig rig;
  std::vector<std::string> log;
  rig.net.send(0, 1, MsgKind::kControl, 0, 0, [&] { log.push_back("a"); });
  rig.sim.scheduleAt(100, [&] { log.push_back("foreign"); });
  rig.net.send(0, 1, MsgKind::kControl, 0, 0, [&] { log.push_back("b"); });
  rig.sim.runAll();
  EXPECT_EQ(log, (std::vector<std::string>{"a", "foreign", "b"}));
  // The foreign event's rank splits the run: pump, foreign event, pump.
  EXPECT_EQ(rig.sim.firedEvents(), 3u);
}

TEST(BatchedDelivery, DropDuplicateAndDelayAreDecidedPerMessage) {
  Rig rig;
  auto calls = std::make_shared<int>(0);
  Network::FaultDecision drop;
  drop.drop = true;
  Network::FaultDecision dup;
  dup.duplicates = 1;
  Network::FaultDecision delay;
  delay.extraDelay = 40;
  rig.net.setFault(scriptedFaults({{}, drop, dup, delay}, calls));
  std::vector<std::pair<int, SimTime>> log;
  for (int id = 0; id < 4; ++id) {
    rig.net.send(0, 1, MsgKind::kData, 0, 1,
                 [&log, &rig, id] { log.emplace_back(id, rig.sim.now()); });
  }
  rig.sim.runAll();
  EXPECT_EQ(*calls, 4);  // One verdict per send.
  const std::vector<std::pair<int, SimTime>> expected = {
      {0, 100}, {2, 100}, {2, 100}, {3, 140}};
  EXPECT_EQ(log, expected);
  // The dropped message reserved no rank, so 0 and both copies of 2 still
  // form one same-instant run; the delayed message fires on its own.
  EXPECT_EQ(rig.sim.firedEvents(), 2u);
  // Every send is counted, dropped or not; duplicates are not extra sends.
  EXPECT_EQ(rig.net.counters().messagesOf(MsgKind::kData), 4u);
}

TEST(BatchedDelivery, CrashDuringCoalescedRunSuppressesRemainingDeliveries) {
  Rig rig;
  int delivered = 0;
  // Both messages land in one coalesced run; the first delivery takes the
  // destination down, so the second must be re-checked and suppressed.
  rig.net.send(0, 1, MsgKind::kData, 0, 1, [&] {
    ++delivered;
    rig.up1 = false;
  });
  rig.net.send(0, 1, MsgKind::kData, 0, 1, [&] { ++delivered; });
  rig.sim.runAll();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(rig.sim.firedEvents(), 1u);
}

TEST(BatchedDelivery, ReentrantSendFromDeliveryCallbackTakesFreshHop) {
  Rig rig;
  std::vector<SimTime> at;
  rig.net.send(0, 1, MsgKind::kData, 0, 1, [&] {
    at.push_back(rig.sim.now());
    // Send on the same link from inside the delivery run.
    rig.net.send(0, 1, MsgKind::kData, 0, 1,
                 [&] { at.push_back(rig.sim.now()); });
  });
  rig.net.send(0, 1, MsgKind::kData, 0, 1, [&] { at.push_back(rig.sim.now()); });
  rig.sim.runAll();
  ASSERT_EQ(at.size(), 3u);
  EXPECT_EQ(at[0], 100);
  EXPECT_EQ(at[1], 100);  // The same-instant neighbor stays in the run.
  EXPECT_EQ(at[2], 200);  // The reentrant message takes a fresh latency hop.
}

// -- Typed data messages -----------------------------------------------------
//
// A data message is a record of its receiver and its elements. It rides the
// same enqueue step as a closure message, so it is counted, faulted,
// serialized and delivered the same way.

/// Records each data message's elements with the time it landed.
struct ElementLog final : ElementReceiver {
  explicit ElementLog(const Simulator& clock) : clock(clock) {}
  void receive(std::span<const Element> batch) override {
    arrivals.emplace_back(clock.now(),
                          std::vector<Element>(batch.begin(), batch.end()));
  }
  /// The seqs of every arrival, in arrival order.
  std::vector<ElementSeq> seqs() const {
    std::vector<ElementSeq> out;
    for (const auto& [at, batch] : arrivals) {
      for (const Element& e : batch) out.push_back(e.seq);
    }
    return out;
  }
  const Simulator& clock;
  std::vector<std::pair<SimTime, std::vector<Element>>> arrivals;
};

Element elementNo(ElementSeq seq) {
  Element e;
  e.stream = 4;
  e.seq = seq;
  e.sourceTs = 1000 + static_cast<SimTime>(seq);
  e.value = 31 * seq;
  return e;
}

bool sameElement(const Element& a, const Element& b) {
  return a.stream == b.stream && a.seq == b.seq && a.sourceTs == b.sourceTs &&
         a.payloadBytes == b.payloadBytes && a.value == b.value;
}

TEST(ElementMessages, CrossMachineMessageDeliversItsElementOnce) {
  Rig rig;
  ElementLog log(rig.sim);
  const Element sent = elementNo(5);
  rig.net.sendElements(0, 1, log, sent);
  rig.sim.runAll();
  ASSERT_EQ(log.arrivals.size(), 1u);
  EXPECT_EQ(log.arrivals[0].first, 2 + 100);  // ceil(132 B / 125) + latency.
  ASSERT_EQ(log.arrivals[0].second.size(), 1u);
  EXPECT_TRUE(sameElement(log.arrivals[0].second[0], sent));
  const auto& c = rig.net.counters();
  EXPECT_EQ(c.messagesOf(MsgKind::kData), 1u);
  EXPECT_EQ(c.elementsOf(MsgKind::kData), 1u);
  EXPECT_EQ(c.bytesOf(MsgKind::kData), wireBytes(sent));
}

TEST(ElementMessages, LoopbackMessageDeliversItsElementOnceUncounted) {
  Rig rig;
  ElementLog log(rig.sim);
  const Element sent = elementNo(9);
  rig.net.sendElements(1, 1, log, sent);
  rig.sim.runAll();
  ASSERT_EQ(log.arrivals.size(), 1u);
  EXPECT_EQ(log.arrivals[0].first, Network::Params{}.localDelay);
  ASSERT_EQ(log.arrivals[0].second.size(), 1u);
  EXPECT_TRUE(sameElement(log.arrivals[0].second[0], sent));
  EXPECT_EQ(rig.net.counters().totalMessages(), 0u);
}

TEST(ElementMessages, BatchIsOneMessageCarryingEveryElement) {
  Rig rig;
  ElementLog log(rig.sim);
  std::vector<Element> batch;
  for (ElementSeq seq = 1; seq <= 3; ++seq) batch.push_back(elementNo(seq));
  const std::uint64_t bytes = wireBytes(batch);
  rig.net.sendElements(0, 1, log, batch);
  rig.net.sendElements(1, 1, log, batch);  // And once over loopback.
  rig.sim.runAll();
  ASSERT_EQ(log.arrivals.size(), 2u);
  for (const auto& [at, got] : log.arrivals) {
    ASSERT_EQ(got.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_TRUE(sameElement(got[i], batch[i]));
    }
  }
  const auto& c = rig.net.counters();
  EXPECT_EQ(c.messagesOf(MsgKind::kData), 1u);
  EXPECT_EQ(c.elementsOf(MsgKind::kData), 3u);
  EXPECT_EQ(c.bytesOf(MsgKind::kData), bytes);
}

TEST(ElementMessages, InjectedDuplicateLandsRightAfterItsOriginal) {
  Rig rig;
  auto calls = std::make_shared<int>(0);
  Network::FaultDecision dup;
  dup.duplicates = 1;
  rig.net.setFault(scriptedFaults({dup, {}, dup}, calls));
  ElementLog log(rig.sim);
  rig.net.sendElements(0, 1, log, elementNo(1));
  rig.net.sendElements(0, 1, log, elementNo(2));
  rig.net.sendElements(0, 1, log, std::vector<Element>{elementNo(3),
                                                       elementNo(4)});
  rig.sim.runAll();
  EXPECT_EQ(log.seqs(), (std::vector<ElementSeq>{1, 1, 2, 3, 4, 3, 4}));
  ASSERT_EQ(log.arrivals.size(), 5u);
  // Each copy is identical to its original and lands at the same instant.
  EXPECT_EQ(log.arrivals[0].first, log.arrivals[1].first);
  EXPECT_TRUE(
      sameElement(log.arrivals[0].second[0], log.arrivals[1].second[0]));
  EXPECT_EQ(log.arrivals[3].first, log.arrivals[4].first);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(
        sameElement(log.arrivals[3].second[i], log.arrivals[4].second[i]));
  }
  // Duplicates are copies on the receive side, not extra sends.
  EXPECT_EQ(rig.net.counters().messagesOf(MsgKind::kData), 3u);
  EXPECT_EQ(rig.net.counters().elementsOf(MsgKind::kData), 4u);
}

TEST(ElementMessages, MessageToCrashedDestinationIsDropped) {
  Rig rig;
  ElementLog log(rig.sim);
  rig.net.sendElements(0, 1, log, elementNo(1));
  rig.net.sendElements(1, 1, log, elementNo(2));
  rig.up1 = false;  // Down before either lands.
  rig.sim.runAll();
  EXPECT_TRUE(log.arrivals.empty());
  // The cross-machine message still hit the wire.
  EXPECT_EQ(rig.net.counters().messagesOf(MsgKind::kData), 1u);
}

TEST(ElementMessages, CrashedSenderSendsNoElements) {
  Rig rig;
  ElementLog log(rig.sim);
  rig.up0 = false;
  rig.net.sendElements(0, 1, log, elementNo(1));
  rig.net.sendElements(0, 1, log, std::vector<Element>{elementNo(2)});
  rig.sim.runAll();
  EXPECT_TRUE(log.arrivals.empty());
  EXPECT_EQ(rig.net.counters().totalMessages(), 0u);
}

TEST(ElementMessages, DataAndClosureMessagesShareOneLinkInSendOrder) {
  Rig rig;
  ElementLog log(rig.sim);
  std::vector<SimTime> controlAt;
  rig.net.sendElements(0, 1, log, elementNo(1));
  rig.net.send(0, 1, MsgKind::kControl, 1250, 0,
               [&] { controlAt.push_back(rig.sim.now()); });
  rig.net.sendElements(0, 1, log, elementNo(2));
  rig.sim.runAll();
  ASSERT_EQ(log.arrivals.size(), 2u);
  ASSERT_EQ(controlAt.size(), 1u);
  // 132 B, then 1250 B, then 132 B serialized back to back on one link.
  EXPECT_EQ(log.arrivals[0].first, 102);
  EXPECT_EQ(controlAt[0], 112);
  EXPECT_EQ(log.arrivals[1].first, 114);
}

TEST_F(NetFixture, MsgKindNames) {
  EXPECT_STREQ(toString(MsgKind::kData), "data");
  EXPECT_STREQ(toString(MsgKind::kStateRead), "state-read");
  EXPECT_STREQ(toString(MsgKind::kHeartbeatPing), "hb-ping");
}

}  // namespace
}  // namespace streamha
