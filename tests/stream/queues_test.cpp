#include "stream/queues.hpp"

#include <gtest/gtest.h>

namespace streamha {
namespace {

struct QueueFixture : ::testing::Test {
  Simulator sim;
  Network net{sim, Network::Params{}, [](MachineId) { return true; }};

  /// Collects everything delivered to one consumer endpoint.
  struct Collector {
    std::vector<Element> received;
    OutputQueue::DeliverFn fn() {
      return [this](std::vector<Element> batch) {
        for (auto& e : batch) received.push_back(e);
      };
    }
  };

  static ElementSeq lastSeq(const Collector& c) {
    return c.received.empty() ? 0 : c.received.back().seq;
  }
};

TEST_F(QueueFixture, ProduceAssignsMonotonicSeqs) {
  OutputQueue oq(net, 7, 0);
  EXPECT_EQ(oq.produce(0, 1, 100), 1u);
  EXPECT_EQ(oq.produce(0, 2, 100), 2u);
  EXPECT_EQ(oq.nextSeq(), 3u);
  EXPECT_EQ(oq.bufferedCount(), 2u);
}

TEST_F(QueueFixture, ActiveConnectionReceivesElements) {
  OutputQueue oq(net, 7, 0);
  Collector c;
  oq.addConnection(1, true, true, c.fn());
  oq.produce(0, 11, 100);
  oq.produce(0, 22, 100);
  sim.runAll();
  ASSERT_EQ(c.received.size(), 2u);
  EXPECT_EQ(c.received[0].value, 11u);
  EXPECT_EQ(c.received[1].seq, 2u);
  EXPECT_EQ(c.received[0].stream, 7);
}

TEST_F(QueueFixture, InactiveConnectionGetsNothingUntilActivated) {
  OutputQueue oq(net, 7, 0);
  Collector c;
  const int conn = oq.addConnection(1, false, false, c.fn());
  oq.produce(0, 1, 100);
  oq.produce(0, 2, 100);
  sim.runAll();
  EXPECT_TRUE(c.received.empty());
  oq.setConnectionActive(conn, true);
  sim.runAll();
  ASSERT_EQ(c.received.size(), 2u);  // Backlog pushed on activation.
  EXPECT_EQ(c.received[0].seq, 1u);
}

TEST_F(QueueFixture, RetransmitFromRepositionsCursor) {
  OutputQueue oq(net, 7, 0);
  Collector c;
  const int conn = oq.addConnection(1, true, true, c.fn());
  for (int i = 0; i < 5; ++i) oq.produce(0, i, 100);
  sim.runAll();
  EXPECT_EQ(c.received.size(), 5u);
  oq.retransmitFrom(conn, 3);
  sim.runAll();
  ASSERT_EQ(c.received.size(), 8u);  // Seqs 3,4,5 resent.
  EXPECT_EQ(c.received[5].seq, 3u);
  EXPECT_EQ(c.received[7].seq, 5u);
}

TEST_F(QueueFixture, AckTrimsAndFiresListener) {
  OutputQueue oq(net, 7, 0);
  Collector c;
  const int conn = oq.addConnection(1, true, true, c.fn());
  for (int i = 0; i < 5; ++i) oq.produce(0, i, 100);
  ElementSeq trimmed = 0;
  oq.setTrimListener([&](ElementSeq upTo) { trimmed = upTo; });
  oq.onAck(conn, 3);
  EXPECT_EQ(oq.trimmedUpTo(), 3u);
  EXPECT_EQ(oq.bufferedCount(), 2u);
  EXPECT_EQ(trimmed, 3u);
}

TEST_F(QueueFixture, TrimWaitsForSlowestGatingConnection) {
  OutputQueue oq(net, 7, 0);
  Collector c1, c2;
  const int conn1 = oq.addConnection(1, true, true, c1.fn());
  const int conn2 = oq.addConnection(2, true, true, c2.fn());
  for (int i = 0; i < 5; ++i) oq.produce(0, i, 100);
  oq.onAck(conn1, 4);
  EXPECT_EQ(oq.trimmedUpTo(), 0u);  // conn2 has not acked.
  oq.onAck(conn2, 2);
  EXPECT_EQ(oq.trimmedUpTo(), 2u);
}

TEST_F(QueueFixture, NonGatingConnectionDoesNotHoldTrim) {
  OutputQueue oq(net, 7, 0);
  Collector c1, c2;
  const int gating = oq.addConnection(1, true, true, c1.fn());
  oq.addConnection(2, false, false, c2.fn());  // Hybrid standby style.
  for (int i = 0; i < 3; ++i) oq.produce(0, i, 100);
  oq.onAck(gating, 3);
  EXPECT_EQ(oq.trimmedUpTo(), 3u);
  EXPECT_EQ(oq.bufferedCount(), 0u);
}

TEST_F(QueueFixture, NoGatingConnectionsRetainsEverything) {
  OutputQueue oq(net, 7, 0);
  for (int i = 0; i < 3; ++i) oq.produce(0, i, 100);
  EXPECT_EQ(oq.trimmedUpTo(), 0u);
  EXPECT_EQ(oq.bufferedCount(), 3u);
}

TEST_F(QueueFixture, SelfHealingPushAfterRestore) {
  OutputQueue oq(net, 7, 0);
  Collector c;
  oq.addConnection(1, true, true, c.fn());
  // Restore jumps the queue ahead of the connection's cursor (as happens on
  // a Hybrid secondary refreshed from checkpoints).
  std::vector<Element> buffered;
  for (ElementSeq s = 5; s <= 7; ++s) {
    Element e;
    e.stream = 7;
    e.seq = s;
    buffered.push_back(e);
  }
  oq.restore(8, buffered);
  oq.produce(0, 42, 100);  // seq 8; cursor is behind at 5.
  sim.runAll();
  ASSERT_EQ(c.received.size(), 4u);
  EXPECT_EQ(c.received.front().seq, 5u);
  EXPECT_EQ(c.received.back().seq, 8u);
}

TEST_F(QueueFixture, RestoreSetsSeqStateAndClampsCursors) {
  OutputQueue oq(net, 7, 0);
  Collector c;
  const int conn = oq.addConnection(1, true, true, c.fn());
  std::vector<Element> buffered;
  Element e;
  e.stream = 7;
  e.seq = 10;
  buffered.push_back(e);
  oq.restore(11, buffered);
  EXPECT_EQ(oq.nextSeq(), 11u);
  EXPECT_EQ(oq.trimmedUpTo(), 9u);
  EXPECT_EQ(oq.connectionCursor(conn), 10u);
  EXPECT_EQ(oq.snapshotBuffered().size(), 1u);
}

TEST_F(QueueFixture, RemoveConnectionReleasesItsGate) {
  OutputQueue oq(net, 7, 0);
  Collector c1, c2;
  const int conn1 = oq.addConnection(1, true, true, c1.fn());
  const int conn2 = oq.addConnection(2, true, true, c2.fn());
  for (int i = 0; i < 3; ++i) oq.produce(0, i, 100);
  oq.onAck(conn1, 3);
  EXPECT_EQ(oq.trimmedUpTo(), 0u);
  oq.removeConnection(conn2);
  EXPECT_EQ(oq.trimmedUpTo(), 3u);
}

TEST_F(QueueFixture, SetConnectionGatingReleasesGate) {
  OutputQueue oq(net, 7, 0);
  Collector c1, c2;
  const int conn1 = oq.addConnection(1, true, true, c1.fn());
  const int conn2 = oq.addConnection(2, true, true, c2.fn());
  for (int i = 0; i < 3; ++i) oq.produce(0, i, 100);
  oq.onAck(conn1, 2);
  oq.setConnectionGating(conn2, false);
  EXPECT_EQ(oq.trimmedUpTo(), 2u);
}

TEST_F(QueueFixture, InputQueueAcceptsInOrderAndDedups) {
  InputQueue iq;
  iq.subscribe(7);
  std::vector<Element> batch;
  for (ElementSeq s = 1; s <= 3; ++s) {
    Element e;
    e.stream = 7;
    e.seq = s;
    batch.push_back(e);
  }
  iq.receive(batch);
  EXPECT_EQ(iq.size(), 3u);
  iq.receive(batch);  // Duplicate copy (active standby).
  EXPECT_EQ(iq.size(), 3u);
  EXPECT_EQ(iq.duplicatesDropped(), 3u);
  EXPECT_EQ(iq.gapsObserved(), 0u);
  EXPECT_EQ(iq.expected(7), 4u);
}

TEST_F(QueueFixture, InputQueueDropsOutOfOrderWithoutAdvancing) {
  // Strict in-order delivery: a forward jump is held back (dropped pending
  // retransmission), the watermark does not move, and the stream's gap
  // routes learn the first missing sequence.
  InputQueue iq;
  iq.subscribe(7);
  std::vector<std::pair<StreamId, ElementSeq>> nacks;
  iq.addUpstream(
      7, [](StreamId, ElementSeq) {},
      [&](StreamId s, ElementSeq from) { nacks.emplace_back(s, from); });
  Element e;
  e.stream = 7;
  e.seq = 5;
  iq.receive({e});
  EXPECT_TRUE(iq.empty());
  EXPECT_EQ(iq.outOfOrderDropped(), 1u);
  EXPECT_EQ(iq.gapsObserved(), 0u);
  EXPECT_EQ(iq.expected(7), 1u);
  ASSERT_EQ(nacks.size(), 1u);
  EXPECT_EQ(nacks[0], std::make_pair(StreamId{7}, ElementSeq{1}));
  // The retransmitted in-order element is then accepted normally.
  e.seq = 1;
  iq.receive({e});
  EXPECT_EQ(iq.size(), 1u);
  EXPECT_EQ(iq.expected(7), 2u);
}

/// Stream `stream`, seqs [from, to], as one batch.
std::vector<Element> span(StreamId stream, ElementSeq from, ElementSeq to) {
  std::vector<Element> batch;
  for (ElementSeq seq = from; seq <= to; ++seq) {
    Element e;
    e.stream = stream;
    e.seq = seq;
    batch.push_back(e);
  }
  return batch;
}

/// An input queue consuming streams 7 and 8 whose ack routes record every
/// (stream, upTo) they send, with resend-on-duplicate armed.
struct AckLedgerFixture : QueueFixture {
  InputQueue iq;
  std::vector<std::pair<StreamId, ElementSeq>> acks;

  AckLedgerFixture() {
    for (StreamId stream : {7, 8}) {
      iq.subscribe(stream);
      iq.addUpstream(stream, [this](StreamId s, ElementSeq upTo) {
        acks.emplace_back(s, upTo);
      });
    }
    iq.armAckResend(sim);
  }
};

TEST_F(AckLedgerFixture, DuplicateResendsLastAckOncePerBatch) {
  iq.receive(span(7, 1, 3));
  iq.flushAcks({{7, 3}});
  ASSERT_EQ(acks.size(), 1u);
  iq.receive(span(7, 1, 3));  // Three duplicates in one batch.
  ASSERT_EQ(acks.size(), 2u);
  EXPECT_EQ(acks[1], std::make_pair(StreamId{7}, ElementSeq{3}));
  EXPECT_EQ(iq.duplicatesDropped(), 3u);
}

TEST_F(AckLedgerFixture, ResendIsRateLimitedPerStream) {
  iq.receive(span(7, 1, 2));
  iq.receive(span(8, 1, 2));
  iq.flushAcks({{7, 2}, {8, 2}});
  ASSERT_EQ(acks.size(), 2u);
  iq.receive(span(7, 1, 1));
  iq.receive(span(7, 1, 1));  // Inside the gap: suppressed.
  iq.receive(span(8, 1, 1));  // Stream 8 has its own limit.
  ASSERT_EQ(acks.size(), 4u);
  EXPECT_EQ(acks[2].first, 7);
  EXPECT_EQ(acks[3].first, 8);
  sim.runUntil(sim.now() + kAckFlushInterval);
  iq.receive(span(7, 1, 1));
  EXPECT_EQ(acks.size(), 5u);
}

TEST_F(AckLedgerFixture, NothingIsResentBeforeTheFirstAck) {
  iq.receive(span(7, 1, 2));
  iq.receive(span(7, 1, 2));
  EXPECT_TRUE(acks.empty());
  EXPECT_EQ(iq.duplicatesDropped(), 2u);
}

TEST_F(AckLedgerFixture, DisarmedQueueNeverResends) {
  iq.disarmAckResend();
  iq.receive(span(7, 1, 2));
  iq.flushAcks({{7, 2}});
  iq.receive(span(7, 1, 2));
  EXPECT_EQ(acks.size(), 1u);
}

TEST_F(AckLedgerFixture, ResetStreamClampsTheResentAck) {
  iq.receive(span(7, 1, 4));
  while (!iq.empty()) iq.pop();
  iq.flushAcks({{7, 4}});
  // Restore rewinds the consumer to watermark 2: a duplicate must re-send 2,
  // not the 4 that would trim the span the consumer still has to reprocess.
  iq.resetStream(7, 2);
  iq.receive(span(7, 1, 1));
  ASSERT_EQ(acks.size(), 2u);
  EXPECT_EQ(acks[1], std::make_pair(StreamId{7}, ElementSeq{2}));
  // The clamped record is the flush baseline too: 3 now counts as progress.
  iq.flushAcks({{7, 3}});
  ASSERT_EQ(acks.size(), 3u);
  EXPECT_EQ(acks[2].second, 3u);
}

TEST_F(QueueFixture, OutputQueueNackRewindsBackwardOnly) {
  OutputQueue oq(net, 7, 0);
  Collector c;
  const int conn = oq.addConnection(1, true, true, c.fn());
  for (int i = 0; i < 6; ++i) oq.produce(0, i, 100);
  sim.runAll();
  EXPECT_EQ(c.received.size(), 6u);
  // NACK from 3: elements 3..6 are resent.
  oq.nack(conn, 3);
  sim.runAll();
  EXPECT_EQ(c.received.size(), 10u);
  EXPECT_EQ(c.received[6].seq, 3u);
  // A NACK at/above the cursor is stale and resends nothing.
  oq.nack(conn, 7);
  sim.runAll();
  EXPECT_EQ(c.received.size(), 10u);
  // NACKs never reach below the trim point.
  oq.onAck(conn, 4);
  EXPECT_EQ(oq.trimmedUpTo(), 4u);
  oq.nack(conn, 1);
  sim.runAll();
  ASSERT_GT(c.received.size(), 10u);
  EXPECT_EQ(c.received[10].seq, 5u);
}

TEST_F(QueueFixture, RetransmitStalledRewindsToCoveredPrefix) {
  OutputQueue oq(net, 7, 0);
  Collector c;
  const int conn = oq.addConnection(1, true, true, c.fn());
  for (int i = 0; i < 4; ++i) oq.produce(0, i, 100);
  sim.runAll();
  EXPECT_EQ(c.received.size(), 4u);
  oq.onAck(conn, 2);  // Acks 3..4 were lost.
  const SimDuration timeout = 100 * kMillisecond;
  // Inside the timeout nothing is resent.
  sim.runUntil(sim.now() + timeout / 2);
  oq.retransmitStalled(timeout);
  sim.runAll();
  EXPECT_EQ(c.received.size(), 4u);
  // After the timeout the unacked suffix is resent, and the backoff doubles:
  // a scan one base-timeout later stays quiet.
  sim.runUntil(sim.now() + timeout);
  oq.retransmitStalled(timeout);
  sim.runAll();
  ASSERT_EQ(c.received.size(), 6u);
  EXPECT_EQ(c.received[4].seq, 3u);
  sim.runUntil(sim.now() + timeout + kMillisecond);
  oq.retransmitStalled(timeout);  // 2x backoff not yet elapsed.
  sim.runAll();
  EXPECT_EQ(c.received.size(), 6u);
  // Progress clears the backlog; later scans resend nothing.
  oq.onAck(conn, 4);
  oq.retransmitStalled(timeout);
  sim.runAll();
  EXPECT_EQ(c.received.size(), 6u);
}

TEST_F(QueueFixture, InputQueueIgnoresUnsubscribedStreams) {
  InputQueue iq;
  iq.subscribe(7);
  Element e;
  e.stream = 9;
  e.seq = 1;
  iq.receive({e});
  EXPECT_TRUE(iq.empty());
}

TEST_F(QueueFixture, InputQueueArrivalListener) {
  InputQueue iq;
  iq.subscribe(7);
  int arrivals = 0;
  iq.setArrivalListener([&] { ++arrivals; });
  Element e;
  e.stream = 7;
  e.seq = 1;
  iq.receive({e});
  EXPECT_EQ(arrivals, 1);
  iq.receive({e});  // Pure duplicate: no arrival signal.
  EXPECT_EQ(arrivals, 1);
}

TEST_F(QueueFixture, AcksFanOutToAllUpstreamsOfStream) {
  InputQueue iq;
  iq.subscribe(7);
  iq.subscribe(8);
  std::vector<std::pair<StreamId, ElementSeq>> sent;
  iq.addUpstream(7, [&](StreamId s, ElementSeq q) { sent.emplace_back(s, q); });
  iq.addUpstream(7, [&](StreamId s, ElementSeq q) { sent.emplace_back(s, q); });
  iq.addUpstream(8, [&](StreamId s, ElementSeq q) { sent.emplace_back(s, q); });
  iq.flushAcks({{7, 5}, {8, 2}});
  EXPECT_EQ(sent.size(), 3u);
  iq.flushAcks({{7, 0}});  // Zero watermark: suppressed.
  EXPECT_EQ(sent.size(), 3u);
}

TEST_F(QueueFixture, FastForwardDropsStaleAndAdvancesExpected) {
  InputQueue iq;
  iq.subscribe(7);
  std::vector<Element> batch;
  for (ElementSeq s = 1; s <= 4; ++s) {
    Element e;
    e.stream = 7;
    e.seq = s;
    batch.push_back(e);
  }
  iq.receive(batch);
  iq.fastForward(7, 3);
  EXPECT_EQ(iq.size(), 1u);
  EXPECT_EQ(iq.front().seq, 4u);
  EXPECT_EQ(iq.expected(7), 5u);
  // Fast-forward never moves backwards.
  iq.fastForward(7, 1);
  EXPECT_EQ(iq.expected(7), 5u);
}

TEST_F(QueueFixture, LoadPendingAdvancesExpectedPastBacklog) {
  InputQueue iq;
  iq.subscribe(7);
  std::vector<Element> backlog;
  for (ElementSeq s = 4; s <= 6; ++s) {
    Element e;
    e.stream = 7;
    e.seq = s;
    backlog.push_back(e);
  }
  iq.loadPending(backlog);
  EXPECT_EQ(iq.size(), 3u);
  EXPECT_EQ(iq.expected(7), 7u);
  // A retransmission of the backlog is now treated as duplicates.
  iq.receive(backlog);
  EXPECT_EQ(iq.size(), 3u);
  EXPECT_EQ(iq.duplicatesDropped(), 3u);
}

TEST_F(QueueFixture, SnapshotPendingPreservesOrder) {
  InputQueue iq;
  iq.subscribe(7);
  std::vector<Element> batch;
  for (ElementSeq s = 1; s <= 3; ++s) {
    Element e;
    e.stream = 7;
    e.seq = s;
    batch.push_back(e);
  }
  iq.receive(batch);
  iq.pop();
  const auto snap = iq.snapshotPending();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].seq, 2u);
  EXPECT_EQ(snap[1].seq, 3u);
}

TEST_F(QueueFixture, ShedThresholdDropsOverflowPermanently) {
  InputQueue iq;
  iq.subscribe(7);
  iq.setShedThreshold(3);
  std::vector<Element> batch;
  for (ElementSeq s = 1; s <= 5; ++s) {
    Element e;
    e.stream = 7;
    e.seq = s;
    batch.push_back(e);
  }
  iq.receive(batch);
  EXPECT_EQ(iq.size(), 3u);
  EXPECT_EQ(iq.elementsShed(), 2u);
  // The watermark advanced past the shed elements: a retransmission of them
  // is a duplicate, not a gap.
  iq.pop();
  iq.receive(batch);
  EXPECT_EQ(iq.duplicatesDropped(), 5u);
  EXPECT_EQ(iq.gapsObserved(), 0u);
  EXPECT_EQ(iq.size(), 2u);
}

TEST_F(QueueFixture, ShedDisabledByDefault) {
  InputQueue iq;
  iq.subscribe(7);
  std::vector<Element> batch;
  for (ElementSeq s = 1; s <= 1000; ++s) {
    Element e;
    e.stream = 7;
    e.seq = s;
    batch.push_back(e);
  }
  iq.receive(batch);
  EXPECT_EQ(iq.size(), 1000u);
  EXPECT_EQ(iq.elementsShed(), 0u);
}

TEST_F(QueueFixture, BatchingRespectsMaxBatch) {
  OutputQueue oq(net, 7, 0);
  // Produce more than kMaxBatch before attaching an active consumer, then
  // count delivered batches.
  for (std::size_t i = 0; i < kMaxBatch + 10; ++i) oq.produce(0, i, 100);
  std::size_t batches = 0;
  std::size_t elements = 0;
  oq.addConnection(1, true, true, [&](std::vector<Element> batch) {
    ++batches;
    elements += batch.size();
    EXPECT_LE(batch.size(), kMaxBatch);
  });
  sim.runAll();
  EXPECT_EQ(elements, kMaxBatch + 10);
  EXPECT_EQ(batches, 2u);
}

TEST_F(QueueFixture, RetransmitStalledSendsNothingToCrashedPeer) {
  bool machine1_up = true;
  Network liveNet{sim, Network::Params{},
                  [&](MachineId id) { return id != 1 || machine1_up; }};
  OutputQueue oq(liveNet, 7, 0);
  Collector c;
  const int conn = oq.addConnection(1, true, true, c.fn());
  for (int i = 0; i < 4; ++i) oq.produce(0, i, 100);
  sim.runAll();
  EXPECT_EQ(c.received.size(), 4u);
  oq.onAck(conn, 2);  // Acks 3..4 lost; backlog outstanding.
  machine1_up = false;
  const SimDuration timeout = 100 * kMillisecond;
  const auto before = liveNet.counters().messagesOf(MsgKind::kData);
  for (int scan = 0; scan < 5; ++scan) {
    sim.runUntil(sim.now() + 2 * timeout);
    oq.retransmitStalled(timeout);
  }
  sim.runAll();
  // Not one message was burned on the dead machine: the scan parks the stall
  // clock instead of resending into a connection the network would drop.
  EXPECT_EQ(liveNet.counters().messagesOf(MsgKind::kData), before);
  // After a restart the scan resumes with a fresh backoff.
  machine1_up = true;
  sim.runUntil(sim.now() + 2 * timeout);
  oq.retransmitStalled(timeout);
  sim.runAll();
  ASSERT_EQ(c.received.size(), 6u);  // Seqs 3, 4 resent.
  EXPECT_EQ(c.received[4].seq, 3u);
}

TEST_F(QueueFixture, ResetStreamKeepsContiguousBacklog) {
  InputQueue iq;
  iq.subscribe(7);
  std::vector<Element> batch;
  for (ElementSeq s = 1; s <= 4; ++s) {
    Element e;
    e.stream = 7;
    e.seq = s;
    batch.push_back(e);
  }
  iq.receive(batch);
  // Restore to watermark 2 with 3..4 still pending: 1..2 are covered by the
  // restored state, the rest is contiguous with it -- nothing was rewound, so
  // the backlog survives and the dedup point stands.
  iq.resetStream(7, 2);
  EXPECT_EQ(iq.size(), 2u);
  EXPECT_EQ(iq.front().seq, 3u);
  EXPECT_EQ(iq.expected(7), 5u);
}

TEST_F(QueueFixture, ResetStreamRewindsDedupPointOnGenuineRewind) {
  InputQueue iq;
  iq.subscribe(7);
  std::vector<Element> batch;
  for (ElementSeq s = 1; s <= 4; ++s) {
    Element e;
    e.stream = 7;
    e.seq = s;
    batch.push_back(e);
  }
  iq.receive(batch);
  while (!iq.empty()) iq.pop();  // All four processed.
  // Restore REWINDS the PE to watermark 2: elements 3..4 were consumed by a
  // state that no longer exists, so the queue must re-accept their
  // retransmission -- the old dedup point would silently swallow them.
  iq.resetStream(7, 2);
  EXPECT_EQ(iq.expected(7), 3u);
  iq.receive(batch);  // Upstream resends 1..4.
  EXPECT_EQ(iq.size(), 2u);  // 3..4 re-accepted ...
  EXPECT_EQ(iq.front().seq, 3u);
  EXPECT_EQ(iq.duplicatesDropped(), 2u);  // ... 1..2 still deduped.
  EXPECT_EQ(iq.expected(7), 5u);
}

}  // namespace
}  // namespace streamha
