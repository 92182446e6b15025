#include "net/reliable.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace streamha {
namespace {

// The reliable layer is exercised through Network::sendReliable, exactly as
// the control-plane protocols use it. Payloads ride kStateRead so the ARQ's
// own kControl acks stay separable in fault hooks and counters.
struct ReliableFixture : ::testing::Test {
  Simulator sim;
  bool machine0_up = true;
  bool machine1_up = true;
  Network net{sim, Network::Params{}, [this](MachineId id) {
                return id == 0 ? machine0_up : machine1_up;
              }};

  // Default retry of 1ms sits well above the ~200us simulated RTT, so a
  // retry never races the ack of a copy that was in fact delivered.
  ReliableParams arm(SimDuration retryTimeout = 1000) {
    ReliableParams p;
    p.retryTimeout = retryTimeout;
    net.enableReliable(p);
    return p;
  }
};

TEST_F(ReliableFixture, UnarmedFallsThroughToPlainSend) {
  int delivered = 0;
  net.sendReliable(0, 1, MsgKind::kStateRead, 100, 0, [&] { ++delivered; });
  sim.runAll();
  EXPECT_EQ(delivered, 1);
  EXPECT_FALSE(net.reliableEnabled());
  // No ARQ ack traffic, no header overhead: plain send, byte for byte.
  EXPECT_EQ(net.counters().messagesOf(MsgKind::kControl), 0u);
  EXPECT_EQ(net.counters().bytesOf(MsgKind::kStateRead), 100u);
}

TEST_F(ReliableFixture, LosslessDeliveryIsSingleShot) {
  arm();
  int delivered = 0;
  net.sendReliable(0, 1, MsgKind::kStateRead, 100, 0, [&] { ++delivered; });
  sim.runAll();
  EXPECT_EQ(delivered, 1);
  const auto& s = net.reliable()->stats();
  EXPECT_EQ(s.accepted, 1u);
  EXPECT_EQ(s.retransmits, 0u);
  EXPECT_EQ(s.acksSent, 1u);
  EXPECT_EQ(s.duplicatesSuppressed, 0u);
  EXPECT_EQ(net.reliable()->inFlight(), 0u);
  // The payload carries the sequence-id header on the wire.
  EXPECT_EQ(net.counters().bytesOf(MsgKind::kStateRead), 100u + kArqHeaderBytes);
}

TEST_F(ReliableFixture, RetriesUntilDeliveredUnderLoss) {
  arm();
  int dropsLeft = 3;
  net.setFault([&](MachineId, MachineId, MsgKind kind, std::size_t) {
    Network::FaultDecision d;
    if (kind == MsgKind::kStateRead && dropsLeft > 0) {
      --dropsLeft;
      d.drop = true;
    }
    return d;
  });
  int delivered = 0;
  net.sendReliable(0, 1, MsgKind::kStateRead, 100, 0, [&] { ++delivered; });
  sim.runAll();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.reliable()->stats().retransmits, 3u);
  EXPECT_EQ(net.reliable()->inFlight(), 0u);
}

TEST_F(ReliableFixture, DuplicateCopiesSuppressedAndReacked) {
  arm();
  net.setFault([](MachineId, MachineId, MsgKind kind, std::size_t) {
    Network::FaultDecision d;
    if (kind == MsgKind::kStateRead) d.duplicates = 2;
    return d;
  });
  int delivered = 0;
  net.sendReliable(0, 1, MsgKind::kStateRead, 100, 0, [&] { ++delivered; });
  sim.runAll();
  EXPECT_EQ(delivered, 1);  // Exactly-once despite three arriving copies.
  const auto& s = net.reliable()->stats();
  EXPECT_EQ(s.duplicatesSuppressed, 2u);
  EXPECT_EQ(s.acksSent, 3u);  // Every copy is re-acked.
  EXPECT_EQ(net.reliable()->inFlight(), 0u);
}

TEST_F(ReliableFixture, LostAckResolvedByResendAndReack) {
  arm();
  // Drop the first ARQ ack: the sender must retry, the receiver must
  // suppress the duplicate copy but ack it again, and the retry must NOT
  // deliver the payload twice.
  int ackDropsLeft = 1;
  net.setFault([&](MachineId src, MachineId, MsgKind kind, std::size_t) {
    Network::FaultDecision d;
    if (kind == MsgKind::kControl && src == 1 && ackDropsLeft > 0) {
      --ackDropsLeft;
      d.drop = true;
    }
    return d;
  });
  int delivered = 0;
  net.sendReliable(0, 1, MsgKind::kStateRead, 100, 0, [&] { ++delivered; });
  sim.runAll();
  EXPECT_EQ(delivered, 1);
  const auto& s = net.reliable()->stats();
  EXPECT_GE(s.retransmits, 1u);
  EXPECT_GE(s.duplicatesSuppressed, 1u);
  EXPECT_EQ(net.reliable()->inFlight(), 0u);
}

TEST_F(ReliableFixture, SenderDeathAbandonsRetry) {
  arm();
  net.setFault([](MachineId, MachineId, MsgKind kind, std::size_t) {
    Network::FaultDecision d;
    d.drop = (kind == MsgKind::kStateRead);  // Never delivers.
    return d;
  });
  int delivered = 0;
  net.sendReliable(0, 1, MsgKind::kStateRead, 100, 0, [&] { ++delivered; });
  sim.runUntil(50);
  machine0_up = false;  // The sending process dies before the first retry.
  sim.runAll();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.reliable()->stats().abandoned, 1u);
  EXPECT_EQ(net.reliable()->inFlight(), 0u);  // No leaked retry state.
}

TEST_F(ReliableFixture, ReceiverDownParksWithoutWireTraffic) {
  arm(100);
  machine1_up = false;
  int delivered = 0;
  net.sendReliable(0, 1, MsgKind::kStateRead, 100, 0, [&] { ++delivered; });
  sim.runUntil(350);  // A few retry periods with the receiver down.
  EXPECT_EQ(delivered, 0);
  // Liveness check: not one copy was burned on the dead machine.
  EXPECT_EQ(net.counters().messagesOf(MsgKind::kStateRead), 0u);
  EXPECT_EQ(net.reliable()->inFlight(), 1u);  // Still parked, not abandoned.
  machine1_up = true;
  sim.runAll();
  EXPECT_EQ(delivered, 1);  // Delivery resumes after the restart.
  EXPECT_EQ(net.reliable()->inFlight(), 0u);
}

TEST_F(ReliableFixture, RetryBackoffIsExponentialAndCapped) {
  ReliableParams p;
  p.retryTimeout = 100;
  p.maxBackoffShift = 2;  // 100, 200, 400, then 400 forever.
  net.enableReliable(p);
  net.setFault([](MachineId, MachineId, MsgKind kind, std::size_t) {
    Network::FaultDecision d;
    d.drop = (kind == MsgKind::kStateRead);
    return d;
  });
  net.sendReliable(0, 1, MsgKind::kStateRead, 100, 0, [] {});
  // Transmissions at t=0, 100, 300, 700, 1100, 1500, ... : exponential up to
  // the cap, then a flat 400us cadence.
  const std::vector<std::pair<SimTime, std::uint64_t>> expected = {
      {50, 1}, {150, 2}, {350, 3}, {750, 4}, {1150, 5}, {1550, 6}};
  for (const auto& [at, count] : expected) {
    sim.runUntil(at);
    EXPECT_EQ(net.counters().messagesOf(MsgKind::kStateRead), count)
        << "at t=" << at;
  }
}

TEST_F(ReliableFixture, LoopbackBypassesArq) {
  arm();
  int delivered = 0;
  net.sendReliable(1, 1, MsgKind::kStateRead, 100, 0, [&] { ++delivered; });
  sim.runAll();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.reliable()->stats().accepted, 0u);  // Plain local delivery.
  EXPECT_EQ(net.reliable()->stats().acksSent, 0u);
}

// -- Send windows, backlog caps and supersede ----------------------------------

TEST_F(ReliableFixture, WindowFullParksThenResumes) {
  ReliableParams p;
  p.retryTimeout = 1000;
  p.sendWindow = 1;
  net.enableReliable(p);
  // Three sends in the same instant: one transmits, two park. Each ack frees
  // a credit and the next parked send goes out -- all three deliver, in order.
  std::vector<int> delivered;
  for (int i = 0; i < 3; ++i) {
    net.sendReliable(0, 1, MsgKind::kStateRead, 100, 0,
                     [&delivered, i] { delivered.push_back(i); });
  }
  EXPECT_EQ(net.reliable()->parkedCount(), 2u);
  sim.runAll();
  EXPECT_EQ(delivered, (std::vector<int>{0, 1, 2}));
  const auto& s = net.reliable()->stats();
  EXPECT_EQ(s.parked, 2u);
  EXPECT_EQ(s.unparked, 2u);
  EXPECT_EQ(s.parkedEvicted, 0u);
  EXPECT_EQ(net.reliable()->inFlight(), 0u);
  EXPECT_EQ(net.reliable()->peakTracked(), 3u);
}

TEST_F(ReliableFixture, WindowsArePerLink) {
  ReliableParams p;
  p.retryTimeout = 1000;
  p.sendWindow = 1;
  net.enableReliable(p);
  // A full 0->1 window parks the second 0->1 send but not a 1->0 send: the
  // reverse direction is a link of its own, with its own window.
  std::vector<int> delivered;
  for (int i = 0; i < 2; ++i) {
    net.sendReliable(0, 1, MsgKind::kStateRead, 100, 0,
                     [&delivered, i] { delivered.push_back(i); });
  }
  net.sendReliable(1, 0, MsgKind::kStateRead, 100, 0,
                   [&delivered] { delivered.push_back(10); });
  EXPECT_EQ(net.reliable()->stats().parked, 1u);
  EXPECT_EQ(net.reliable()->parkedCount(), 1u);
  sim.runAll();
  EXPECT_EQ(delivered, (std::vector<int>{0, 10, 1}));
  EXPECT_EQ(net.reliable()->inFlight(), 0u);
}

TEST_F(ReliableFixture, ParkedCapDropsOldestParked) {
  ReliableParams p;
  p.retryTimeout = 100;
  p.sendWindow = 1;
  p.parkedCap = 2;
  net.enableReliable(p);
  net.setFault([](MachineId, MachineId, MsgKind kind, std::size_t) {
    Network::FaultDecision d;
    d.drop = (kind == MsgKind::kStateRead);
    return d;
  });
  // Send 1 takes the window; 2 and 3 fill the parked cap; 4 drops the
  // oldest parked send (2) and parks behind 3.
  std::vector<int> delivered;
  for (int i = 1; i <= 4; ++i) {
    net.sendReliable(0, 1, MsgKind::kStateRead, 100, 0,
                     [&delivered, i] { delivered.push_back(i); });
  }
  EXPECT_EQ(net.reliable()->stats().parkedEvicted, 1u);
  EXPECT_EQ(net.reliable()->parkedCount(), 2u);
  sim.runUntil(500);
  net.setFault(nullptr);
  sim.runAll();
  EXPECT_EQ(delivered, (std::vector<int>{1, 3, 4}));
  EXPECT_EQ(net.reliable()->inFlight(), 0u);
}

TEST_F(ReliableFixture, SupersededControlMessageNeverDelivers) {
  ReliableParams p;
  p.retryTimeout = 1000;
  p.sendWindow = 1;
  net.enableReliable(p);
  int filler = 0, older = 0, newer = 0, otherKey = 0, otherLink = 0;
  // Filler occupies the window, so the keyed sends park; the newer one
  // drops the older from the parked queue (same key, same link). Another
  // key on the link and the same key on the reverse link are untouched.
  net.sendReliable(0, 1, MsgKind::kStateRead, 100, 0, [&] { ++filler; });
  net.sendReliable(0, 1, MsgKind::kControl, 64, 0, [&] { ++older; },
                   /*supersedeKey=*/42);
  net.sendReliable(0, 1, MsgKind::kControl, 64, 0, [&] { ++otherKey; },
                   /*supersedeKey=*/43);
  net.sendReliable(1, 0, MsgKind::kControl, 64, 0, [&] { ++otherLink; },
                   /*supersedeKey=*/42);
  net.sendReliable(0, 1, MsgKind::kControl, 64, 0, [&] { ++newer; },
                   /*supersedeKey=*/42);
  sim.runAll();
  EXPECT_EQ(filler, 1);
  EXPECT_EQ(older, 0);  // Dropped before ever reaching the wire.
  EXPECT_EQ(newer, 1);
  EXPECT_EQ(otherKey, 1);
  EXPECT_EQ(otherLink, 1);
  EXPECT_EQ(net.reliable()->stats().superseded, 1u);
  EXPECT_EQ(net.reliable()->inFlight(), 0u);
}

TEST_F(ReliableFixture, SupersededInFlightMessageStopsRetrying) {
  arm(100);
  // Drop every kControl payload so the first keyed send keeps retrying, then
  // supersede it: its retries must stop even though it was never acked.
  net.setFault([](MachineId, MachineId, MsgKind kind, std::size_t) {
    Network::FaultDecision d;
    d.drop = (kind == MsgKind::kControl);
    return d;
  });
  int older = 0, newer = 0;
  net.sendReliable(0, 1, MsgKind::kControl, 64, 0, [&] { ++older; },
                   /*supersedeKey=*/7);
  sim.runUntil(250);  // A couple of doomed transmissions.
  net.sendReliable(0, 1, MsgKind::kControl, 64, 0, [&] { ++newer; },
                   /*supersedeKey=*/7);
  EXPECT_EQ(net.reliable()->stats().superseded, 1u);
  EXPECT_EQ(net.reliable()->inFlight(), 1u);  // Only the newer remains.
  net.setFault(nullptr);
  sim.runAll();
  EXPECT_EQ(older, 0);
  EXPECT_EQ(newer, 1);
  EXPECT_EQ(net.reliable()->inFlight(), 0u);
}

TEST_F(ReliableFixture, SupersedingAnInFlightSendMovesTheParkedOneUp) {
  ReliableParams p;
  p.retryTimeout = 1000;
  p.sendWindow = 1;
  net.enableReliable(p);
  // The keyed send on the wire is superseded while another send is parked
  // behind it: the freed slot goes to the parked send, and the newer keyed
  // send parks behind that one.
  std::vector<char> delivered;
  net.sendReliable(0, 1, MsgKind::kControl, 64, 0,
                   [&] { delivered.push_back('a'); }, /*supersedeKey=*/7);
  net.sendReliable(0, 1, MsgKind::kStateRead, 100, 0,
                   [&] { delivered.push_back('b'); });
  net.sendReliable(0, 1, MsgKind::kControl, 64, 0,
                   [&] { delivered.push_back('c'); }, /*supersedeKey=*/7);
  const auto& s = net.reliable()->stats();
  EXPECT_EQ(s.superseded, 1u);
  EXPECT_EQ(s.unparked, 1u);
  EXPECT_EQ(net.reliable()->parkedCount(), 1u);
  sim.runAll();
  // The superseded copy still arrives, but its payload is gone: only the
  // moved-up send and then the newer keyed send deliver.
  EXPECT_EQ(delivered, (std::vector<char>{'b', 'c'}));
  EXPECT_EQ(s.parked, 2u);
  EXPECT_EQ(s.unparked, 2u);
  EXPECT_EQ(net.reliable()->inFlight(), 0u);
}

TEST_F(ReliableFixture, ReceiverDeathBacklogCapped) {
  ReliableParams p;
  p.retryTimeout = 100;
  p.sendWindow = 0;  // Unlimited window: the receiver-death cap governs.
  p.parkedCap = 5;
  net.enableReliable(p);
  machine1_up = false;
  std::vector<int> delivered;
  for (int i = 0; i < 10; ++i) {
    net.sendReliable(0, 1, MsgKind::kStateRead, 100, 0,
                     [&delivered, i] { delivered.push_back(i); });
  }
  // The tracked backlog to the dead machine is capped: oldest dropped.
  EXPECT_EQ(net.reliable()->inFlight(), 5u);
  EXPECT_EQ(net.reliable()->stats().parkedEvicted, 5u);
  EXPECT_EQ(net.reliable()->stats().parked, 0u);  // The window never fills.
  sim.runUntil(500);
  EXPECT_EQ(net.reliable()->inFlight(), 5u);  // No growth while down.
  machine1_up = true;
  sim.runAll();
  // The surviving (newest) five arrive.
  EXPECT_EQ(delivered, (std::vector<int>{5, 6, 7, 8, 9}));
  EXPECT_EQ(net.reliable()->inFlight(), 0u);
}

// Acceptance: a finite send window bounds peak parked+in-flight ARQ memory
// under a long partition, no matter how many sends pile up behind it.
TEST_F(ReliableFixture, WindowBoundsTrackedUnderPartition) {
  ReliableParams p;
  p.retryTimeout = 100;
  p.maxBackoffShift = 2;
  p.sendWindow = 4;
  p.parkedCap = 8;
  net.enableReliable(p);
  // "Partition": every payload transmission is dropped (acks never happen).
  net.setFault([](MachineId, MachineId, MsgKind kind, std::size_t) {
    Network::FaultDecision d;
    d.drop = (kind == MsgKind::kStateRead);
    return d;
  });
  int delivered = 0;
  for (int i = 0; i < 50; ++i) {
    net.sendReliable(0, 1, MsgKind::kStateRead, 100, 0, [&] { ++delivered; });
    sim.runUntil(sim.now() + 20);
  }
  sim.runUntil(sim.now() + 2000);  // Long partition: retries keep failing.
  // The memory bound: tracked never exceeded window + parked cap.
  EXPECT_LE(net.reliable()->peakTracked(), p.sendWindow + p.parkedCap);
  EXPECT_EQ(net.reliable()->inFlight(), p.sendWindow + p.parkedCap);
  EXPECT_EQ(net.reliable()->stats().parkedEvicted,
            50u - (p.sendWindow + p.parkedCap));
  // Heal: the surviving tracked messages all deliver, nothing leaks.
  net.setFault(nullptr);
  sim.runAll();
  EXPECT_EQ(delivered, static_cast<int>(p.sendWindow + p.parkedCap));
  EXPECT_EQ(net.reliable()->inFlight(), 0u);
  EXPECT_EQ(net.reliable()->parkedCount(), 0u);
}

// -- The credit window, rule by rule -------------------------------------------
//
// A link's send window is a pool of credits: a send on the wire holds one, and
// an ack or a drop hands it to the oldest parked send. The suite keeps the
// name of the credit manager these rules lived in before they were folded into
// ReliableDelivery's ledger; each case now drives them through sendReliable.
struct CreditManagerTest : ReliableFixture {
  // Retry at 1ms, well above the ~200us RTT: no retry races an ack.
  void armWindow(std::size_t window, std::size_t cap = 0) {
    ReliableParams p;
    p.retryTimeout = 1000;
    p.sendWindow = window;
    p.parkedCap = cap;
    net.enableReliable(p);
  }
};

TEST_F(CreditManagerTest, UnlimitedWindowAlwaysGrants) {
  armWindow(0);
  int delivered = 0;
  for (int i = 0; i < 100; ++i) {
    net.sendReliable(0, 1, MsgKind::kStateRead, 100, 0, [&] { ++delivered; });
  }
  // Every send goes onto the wire at once: nothing parks or is dropped.
  const auto& s = net.reliable()->stats();
  EXPECT_EQ(net.counters().messagesOf(MsgKind::kStateRead), 100u);
  EXPECT_EQ(s.parked, 0u);
  EXPECT_EQ(s.parkedEvicted, 0u);
  EXPECT_EQ(s.superseded, 0u);
  EXPECT_EQ(net.reliable()->parkedCount(), 0u);
  EXPECT_EQ(net.reliable()->inFlight(), 100u);
  EXPECT_EQ(net.reliable()->peakTracked(), 100u);
  sim.runAll();
  EXPECT_EQ(delivered, 100);
  EXPECT_EQ(s.retransmits, 0u);
  EXPECT_EQ(net.reliable()->inFlight(), 0u);
}

TEST_F(CreditManagerTest, WindowFullParksFifoAndUnparksOnRelease) {
  armWindow(2);
  // Send 11's payload is lost until healed, so it holds its credit: the only
  // credits that free are 10's and then 12's.
  bool hold = true;
  net.setFault([&](MachineId, MachineId, MsgKind kind, std::size_t bytes) {
    Network::FaultDecision d;
    d.drop = hold && kind == MsgKind::kStateRead &&
             bytes == 200 + kArqHeaderBytes;
    return d;
  });
  std::vector<int> delivered;
  std::size_t parkedWhen12Arrived = 0;
  net.sendReliable(0, 1, MsgKind::kStateRead, 100, 0,
                   [&] { delivered.push_back(10); });
  net.sendReliable(0, 1, MsgKind::kStateRead, 200, 0,
                   [&] { delivered.push_back(11); });
  net.sendReliable(0, 1, MsgKind::kStateRead, 100, 0, [&] {
    delivered.push_back(12);
    parkedWhen12Arrived = net.reliable()->parkedCount();
  });
  net.sendReliable(0, 1, MsgKind::kStateRead, 100, 0,
                   [&] { delivered.push_back(13); });
  // Window full: two on the wire, two parked.
  EXPECT_EQ(net.counters().messagesOf(MsgKind::kStateRead), 2u);
  EXPECT_EQ(net.reliable()->parkedCount(), 2u);
  EXPECT_EQ(net.reliable()->inFlight(), 4u);

  sim.runUntil(900);  // Before 11's first retry.
  // 10's ack granted the OLDEST parked send (12), which arrived with 13 still
  // parked; 12's ack then granted 13.
  EXPECT_EQ(delivered, (std::vector<int>{10, 12, 13}));
  EXPECT_EQ(parkedWhen12Arrived, 1u);
  EXPECT_EQ(net.reliable()->stats().unparked, 2u);
  EXPECT_EQ(net.reliable()->parkedCount(), 0u);
  EXPECT_EQ(net.reliable()->inFlight(), 1u);  // 11, still on the wire.

  hold = false;
  sim.runAll();
  EXPECT_EQ(delivered, (std::vector<int>{10, 12, 13, 11}));
  EXPECT_EQ(net.reliable()->inFlight(), 0u);
}

TEST_F(CreditManagerTest, SupersedeEvictsOlderSameKey) {
  armWindow(0);
  int older = 0, newer = 0, otherKey = 0, otherLink = 0, otherBoth = 0;
  net.sendReliable(0, 1, MsgKind::kControl, 64, 0, [&] { ++older; },
                   /*supersedeKey=*/5);
  net.sendReliable(0, 1, MsgKind::kControl, 64, 0, [&] { ++newer; },
                   /*supersedeKey=*/5);
  EXPECT_EQ(net.reliable()->stats().superseded, 1u);
  EXPECT_EQ(net.reliable()->inFlight(), 1u);  // Only the newer one remains.

  // Different key, different link: no eviction.
  net.sendReliable(0, 1, MsgKind::kControl, 64, 0, [&] { ++otherKey; },
                   /*supersedeKey=*/6);
  net.sendReliable(1, 0, MsgKind::kControl, 64, 0, [&] { ++otherLink; },
                   /*supersedeKey=*/5);
  net.sendReliable(1, 0, MsgKind::kControl, 64, 0, [&] { ++otherBoth; },
                   /*supersedeKey=*/6);
  EXPECT_EQ(net.reliable()->stats().superseded, 1u);
  EXPECT_EQ(net.reliable()->inFlight(), 4u);
  sim.runAll();
  // The older send was already on the wire and its copy still arrives, but
  // its payload is gone.
  EXPECT_EQ(older, 0);
  EXPECT_EQ(newer, 1);
  EXPECT_EQ(otherKey, 1);
  EXPECT_EQ(otherLink, 1);
  EXPECT_EQ(otherBoth, 1);
  EXPECT_EQ(net.reliable()->inFlight(), 0u);
}

TEST_F(CreditManagerTest, SupersededParkedEntryNeverTransmits) {
  armWindow(1);
  std::vector<std::size_t> onWire;  // Payload sizes, in transmission order.
  net.setFault([&](MachineId, MachineId, MsgKind kind, std::size_t bytes) {
    if (kind == MsgKind::kStateRead) onWire.push_back(bytes - kArqHeaderBytes);
    return Network::FaultDecision{};
  });
  std::vector<int> delivered;
  net.sendReliable(0, 1, MsgKind::kStateRead, 100, 0,
                   [&] { delivered.push_back(10); });  // Fills the window.
  net.sendReliable(0, 1, MsgKind::kStateRead, 110, 0,
                   [&] { delivered.push_back(11); },
                   /*supersedeKey=*/5);  // Parked.
  net.sendReliable(0, 1, MsgKind::kStateRead, 120, 0,
                   [&] { delivered.push_back(12); },
                   /*supersedeKey=*/5);  // Supersedes the parked 11.
  EXPECT_EQ(net.reliable()->stats().superseded, 1u);
  EXPECT_EQ(net.reliable()->parkedCount(), 1u);
  sim.runAll();
  // 10's ack handed its credit to 12, not to the dropped 11.
  EXPECT_EQ(onWire, (std::vector<std::size_t>{100, 120}));
  EXPECT_EQ(delivered, (std::vector<int>{10, 12}));
  EXPECT_EQ(net.reliable()->stats().unparked, 1u);
  EXPECT_EQ(net.reliable()->inFlight(), 0u);
}

TEST_F(CreditManagerTest, ReleaseOfUnknownIdIsHarmless) {
  armWindow(1);
  // Send 10 arrives three times, so two of its acks name an id that is no
  // longer tracked. Send 11 is lost until healed and holds the credit; 12
  // parks behind it.
  bool hold = true;
  net.setFault([&](MachineId, MachineId, MsgKind kind, std::size_t bytes) {
    Network::FaultDecision d;
    if (kind != MsgKind::kStateRead) return d;
    if (bytes == 100 + kArqHeaderBytes) d.duplicates = 2;
    if (bytes == 200 + kArqHeaderBytes) d.drop = hold;
    return d;
  });
  std::vector<int> delivered;
  net.sendReliable(0, 1, MsgKind::kStateRead, 100, 0,
                   [&] { delivered.push_back(10); });
  net.sendReliable(0, 1, MsgKind::kStateRead, 200, 0,
                   [&] { delivered.push_back(11); });
  net.sendReliable(0, 1, MsgKind::kStateRead, 300, 0,
                   [&] { delivered.push_back(12); });

  sim.runUntil(900);  // Every ack of 10 is in; 11 has not retried yet.
  const auto& s = net.reliable()->stats();
  EXPECT_EQ(s.acksSent, 3u);
  EXPECT_EQ(s.duplicatesSuppressed, 2u);
  // The stale acks neither retired 11 nor granted 12 a credit: 10 and 11
  // went out once each, 12 never.
  EXPECT_EQ(delivered, (std::vector<int>{10}));
  EXPECT_EQ(s.unparked, 1u);
  EXPECT_EQ(net.counters().messagesOf(MsgKind::kStateRead), 2u);
  EXPECT_EQ(net.reliable()->inFlight(), 2u);
  EXPECT_EQ(net.reliable()->parkedCount(), 1u);

  hold = false;
  sim.runAll();
  EXPECT_EQ(delivered, (std::vector<int>{10, 11, 12}));
  EXPECT_EQ(net.reliable()->inFlight(), 0u);
}

TEST_F(CreditManagerTest, EvictOldestIfAtCapBoundsReceiverDeathBacklog) {
  // Unlimited window + cap 3, receiver down: a send at the cap first drops
  // the link's oldest tracked send.
  armWindow(0, 3);
  machine1_up = false;
  std::vector<int> delivered;
  const auto send = [&](int id) {
    net.sendReliable(0, 1, MsgKind::kStateRead, 100, 0,
                     [&delivered, id] { delivered.push_back(id); });
  };
  for (int id = 1; id <= 3; ++id) send(id);
  EXPECT_EQ(net.reliable()->stats().parkedEvicted, 0u);
  EXPECT_EQ(net.reliable()->inFlight(), 3u);
  send(4);  // At the cap: 1 is dropped first.
  EXPECT_EQ(net.reliable()->stats().parkedEvicted, 1u);
  EXPECT_EQ(net.reliable()->inFlight(), 3u);  // {2, 3, 4}
  send(5);
  EXPECT_EQ(net.reliable()->stats().parkedEvicted, 2u);
  EXPECT_EQ(net.reliable()->inFlight(), 3u);  // {3, 4, 5}
  EXPECT_EQ(net.reliable()->peakTracked(), 3u);

  machine1_up = true;
  sim.runAll();
  EXPECT_EQ(delivered, (std::vector<int>{3, 4, 5}));
  EXPECT_EQ(net.reliable()->inFlight(), 0u);
}

TEST_F(CreditManagerTest, PeakTrackedIsHighWaterMark) {
  armWindow(2);
  for (int i = 0; i < 3; ++i) {
    net.sendReliable(0, 1, MsgKind::kStateRead, 100, 0, [] {});
  }
  EXPECT_EQ(net.reliable()->parkedCount(), 1u);  // The third parks.
  EXPECT_EQ(net.reliable()->peakTracked(), 3u);
  sim.runAll();  // All three acked: nothing tracked.
  EXPECT_EQ(net.reliable()->inFlight(), 0u);
  net.sendReliable(0, 1, MsgKind::kStateRead, 100, 0, [] {});
  EXPECT_EQ(net.reliable()->inFlight(), 1u);
  EXPECT_EQ(net.reliable()->peakTracked(), 3u);  // The peak stands.
  sim.runAll();
}

}  // namespace
}  // namespace streamha
