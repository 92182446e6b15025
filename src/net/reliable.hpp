// Reliable delivery (ARQ) for control-plane traffic.
//
// The simulated interconnect (network.hpp) is allowed to lose, duplicate and
// delay any message. The data plane recovers with its own go-back-N machinery
// (NACK gap-requesters + stall retransmit, see stream/queues.hpp), but
// control-plane exchanges -- checkpoint ship/confirm, deploy/rewire
// round-trips, NACKs themselves, read-state-on-rollback -- used to assume a
// reliable transport. This layer removes that assumption: every message sent
// through Network::sendReliable carries a sequence id, the receiver
// acknowledges it, the sender retries on an exponentially backed-off timer
// until acknowledged, and the receiver suppresses duplicate deliveries (both
// injected duplicates and retransmitted copies).
//
// Liveness policy on retry:
//  * sender machine down  -> abandon (the sending process died with it);
//  * receiver machine down -> skip the wasted transmission but keep the
//    timer armed, so delivery resumes when the machine restarts.
//
// Each link keeps one ledger: its tracked (unacked) ids in admission order.
// The first `sendWindow` entries are on the wire, the rest are parked (all of
// them are on the wire when the window is 0). Parked entries only ever move
// up oldest-first, as an entry ahead of them leaves, so the window is just a
// position in that queue. Two caps bound it: with a finite window, at most
// `parkedCap` parked entries (the oldest parked one is dropped first); with
// an unlimited window and the receiver down, at most `parkedCap` entries in
// all (the oldest is dropped). A send carrying a supersede key drops any
// earlier unacked same-key message on the link, parked or on the wire (the
// dropped message downgrades to at-most-once: safe only for idempotent
// control traffic that a newer message subsumes, e.g. gap requests). Ack,
// abandon, supersede and both caps leave the ledger through one step.
//
// The layer is off by default (Network::sendReliable falls through to plain
// send()), so fault-free runs carry zero ARQ traffic and stay bit-identical
// to pre-ARQ builds. Scenario::build() arms it whenever a fault schedule is
// present. Everything is deterministic: no randomness, timers only.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "net/network.hpp"

namespace streamha {

class ReliableDelivery {
 public:
  struct Stats {
    std::uint64_t accepted = 0;     ///< sendReliable calls accepted.
    std::uint64_t retransmits = 0;  ///< Timer-driven re-sends.
    std::uint64_t acksSent = 0;     ///< ARQ acks emitted by receivers.
    std::uint64_t duplicatesSuppressed = 0;  ///< Copies dropped at receivers.
    std::uint64_t abandoned = 0;    ///< Given up because the sender died.
    std::uint64_t parked = 0;       ///< Sends parked on a full window.
    std::uint64_t unparked = 0;     ///< Parked sends later moved onto the wire.
    std::uint64_t parkedEvicted = 0;  ///< Dropped by a backlog cap.
    std::uint64_t superseded = 0;     ///< Dropped by a same-key newer send.
  };

  ReliableDelivery(Simulator& sim, Network& net, ReliableParams params);

  /// Send with at-least-once transmission and exactly-once delivery: retried
  /// until the receiver's ack lands, duplicate copies suppressed. `deliver`
  /// runs at most once, at `dst`, the first time any copy arrives while the
  /// machine is up. Loopback falls through to plain send (it is lossless).
  /// `supersedeKey` != 0 drops any earlier unacked same-key message on this
  /// link (see the header comment for when that downgrade is safe).
  void send(MachineId src, MachineId dst, MsgKind kind, std::size_t bytes,
            std::uint64_t elements, std::function<void()> deliver,
            std::uint64_t supersedeKey = 0);

  const Stats& stats() const { return stats_; }
  const ReliableParams& params() const { return params_; }
  /// Messages currently tracked -- on the wire or parked (for tests / leak
  /// checks).
  std::size_t inFlight() const { return pending_.size(); }
  /// Messages parked behind a full send window (never yet transmitted).
  std::size_t parkedCount() const;
  /// High-water mark of tracked messages across all links.
  std::size_t peakTracked() const { return peak_tracked_; }

 private:
  struct Pending {
    MachineId src = kNoMachine;
    MachineId dst = kNoMachine;
    MsgKind kind = MsgKind::kControl;
    std::size_t bytes = 0;
    std::uint64_t elements = 0;
    std::function<void()> deliver;
    std::uint64_t supersedeKey = 0;
    int attempts = 0;  ///< Transmissions so far (drives the backoff shift).
  };

  void transmit(std::uint64_t id);
  void armTimer(std::uint64_t id);
  void onDelivered(std::uint64_t id, MachineId src, MachineId dst);
  void onAcked(std::uint64_t id);
  /// Drop `id` (acked or abandoned) and transmit the parked entry that moved
  /// onto the wire in its place, if any.
  void retire(std::uint64_t link, std::uint64_t id);
  /// Erase `id`'s payload and its ledger entry. Returns the parked entry that
  /// moved onto the wire in its place, or 0.
  std::uint64_t drop(std::uint64_t link, std::uint64_t id);

  Simulator& sim_;
  Network& net_;
  ReliableParams params_;
  Stats stats_;
  std::uint64_t next_id_ = 1;
  /// Unacked messages, by id. std::map: deterministic iteration not needed
  /// (lookups only), but keeps debugging output ordered.
  std::map<std::uint64_t, Pending> pending_;
  /// Per ordered (src, dst) link: its tracked ids in admission order; the
  /// first sendWindow are on the wire (all of them with a window of 0).
  std::map<std::uint64_t, std::deque<std::uint64_t>> ledger_;
  std::size_t peak_tracked_ = 0;
  /// Receiver-side duplicate suppression: ids already delivered, per ordered
  /// (src, dst) link. Only ever grows; bounded by the number of reliable
  /// sends in a run, which is fine for simulation lifetimes.
  std::unordered_map<std::uint64_t, std::unordered_set<std::uint64_t>>
      delivered_;
};

}  // namespace streamha
