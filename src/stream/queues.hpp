// Output and input queues: the replication-aware data plane.
//
// OutputQueue implements the paper's queue-trimming protocol: it retains every
// produced element until an *accumulative acknowledgment* from each
// trim-gating downstream consumer covers it (an ack is sent only after the
// downstream PE has processed the data AND -- under checkpointed HA modes --
// checkpointed the resulting state). Trimming fires a listener, which is what
// drives sweeping checkpointing ("checkpoints happen immediately after its
// output queue is trimmed").
//
// Connections carry the paper's `isActive` field: a pre-deployed Hybrid
// secondary is connected early but inactive, so no data flows (and no CPU is
// burned) until switchover flips the flag. Each connection names its
// consumer's ElementReceiver, and every data message goes out through
// Network::sendElements straight to it.
//
// InputQueue merges one or more logical streams arriving from one or more
// physical upstream copies, eliminating duplicates by (stream, seq) watermark
// -- the dedup active standby requires. It is the receiver data messages
// land on, and the consumer's ack ledger: the one place where any consumer
// (PE or sink) records and sends the accumulative acks that gate upstream
// trimming.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "net/network.hpp"
#include "stream/element.hpp"

namespace streamha {

/// Maximum elements per data message (retransmission batches).
inline constexpr std::size_t kMaxBatch = 128;

/// Period of the consumer ack flush (kOnProcess PEs and the sink), and the
/// per-stream rate limit of ack resends on duplicate arrivals.
inline constexpr SimDuration kAckFlushInterval = 10 * kMillisecond;

class OutputQueue {
 public:
  using DeliverFn = std::function<void(std::vector<Element>)>;
  using TrimListener = std::function<void(ElementSeq /*trimmedUpTo*/)>;

  OutputQueue(Network& net, StreamId stream, MachineId srcMachine);

  StreamId stream() const { return stream_; }
  MachineId srcMachine() const { return src_machine_; }

  // -- Producing ------------------------------------------------------------

  /// Append a new element (seq assigned internally) and forward it to every
  /// active connection. Returns the assigned sequence number.
  ElementSeq produce(SimTime sourceTs, std::uint64_t value,
                     std::uint32_t payloadBytes);

  /// Sequence number the next produced element will get.
  ElementSeq nextSeq() const { return next_seq_; }

  /// Highest sequence number removed from the queue (0 if none).
  ElementSeq trimmedUpTo() const { return trimmed_up_to_; }

  std::size_t bufferedCount() const { return buffer_.size(); }

  // -- Connections ------------------------------------------------------------

  /// Attach a downstream consumer: `receiver`, on `dstMachine`, is handed
  /// every data message after the simulated network delay and must outlive
  /// the messages sent to it. `gatesTrim` marks connections whose
  /// acknowledgments gate queue trimming (primary paths and live AS copies);
  /// a Hybrid standby connection never gates. Returns a connection id.
  int addConnection(MachineId dstMachine, bool active, bool gatesTrim,
                    ElementReceiver& receiver);
  /// The same with a function as the consumer: `deliver` runs with a copy of
  /// each message's elements. The queue keeps the adapter for its lifetime,
  /// so messages in flight stay deliverable after removeConnection.
  int addConnection(MachineId dstMachine, bool active, bool gatesTrim,
                    DeliverFn deliver);

  void removeConnection(int connId);

  /// Flip the paper's isActive flag. Activating pushes all retained elements
  /// the connection has not yet been sent, starting from its cursor.
  void setConnectionActive(int connId, bool active);
  bool connectionActive(int connId) const;

  /// Change whether a connection's acks gate trimming (used when a consumer
  /// copy dies or is demoted and should no longer hold back the queue).
  void setConnectionGating(int connId, bool gatesTrim);

  /// Reposition a connection's send cursor and (if active) retransmit every
  /// retained element with seq >= fromSeq. Used on recovery: the restored
  /// consumer asks for everything after its checkpoint watermark.
  void retransmitFrom(int connId, ElementSeq fromSeq);

  /// Go-back-N negative ack: the consumer saw an out-of-order arrival and
  /// asks for everything from `fromSeq`. Unlike retransmitFrom this only ever
  /// rewinds the cursor *backward* (clamped to the trim point), so a stale or
  /// duplicated NACK can never make the connection skip elements.
  void nack(int connId, ElementSeq fromSeq);

  /// Rewind a connection's ack record to at most `upTo`. Used when the
  /// consumer's state is restored below what it previously acked: the trim
  /// gate must follow the consumer down, or the next trim would discard the
  /// span the consumer still has to reprocess.
  void rewindAck(int connId, ElementSeq upTo);

  /// Sender-side loss recovery: rewind-and-resend every active connection
  /// whose unacked backlog has made no progress for an exponentially
  /// backed-off multiple of `baseTimeout` (base, 2x, 4x, ... capped at 16x).
  /// Driven by a periodic timer in Runtime when loss recovery is enabled;
  /// spurious retransmissions are deduplicated by the receiver's watermark.
  void retransmitStalled(SimDuration baseTimeout);

  /// Record an accumulative ack from a connection; may advance the trim point.
  void onAck(int connId, ElementSeq upTo);

  /// Sequence number of the next element this connection will be sent
  /// (cursor). Used for traffic accounting; 0 for unknown connections.
  ElementSeq connectionCursor(int connId) const;

  void setTrimListener(TrimListener listener) { trim_listener_ = std::move(listener); }

  /// Listener invoked with the sequence number of every newly produced
  /// element (used by recovery timing: "first new output after the switch").
  using ProduceListener = std::function<void(ElementSeq)>;
  void setProduceListener(ProduceListener listener) {
    produce_listener_ = std::move(listener);
  }

  // -- Backpressure (flow/) ---------------------------------------------------

  /// Largest unacked backlog over the active trim-gating connections whose
  /// peer machine is up: elements produced but not yet covered by that
  /// consumer's accumulative ack (or the trim point). Dead peers are
  /// excluded -- their backlog is recovery's problem, not flow control's.
  std::uint64_t unackedBacklog() const;

  /// Arm the producer-side backpressure gate: the queue reports
  /// flowBlocked() while unackedBacklog() exceeds `pauseAt`, until it drains
  /// back to `resumeAt`. The listener fires on each transition; the PE emit
  /// path consults flowBlocked() before scheduling more processing, which is
  /// what propagates downstream congestion up the chain. `pauseAt` 0
  /// disarms (default: zero cost, never blocked).
  void setBackpressure(std::size_t pauseAt, std::size_t resumeAt,
                       std::function<void(bool)> listener);
  bool flowBlocked() const { return flow_blocked_; }

  // -- Checkpoint support -----------------------------------------------------

  /// The retained (un-trimmed) elements, oldest first.
  std::vector<Element> snapshotBuffered() const;

  /// Replace queue contents from a checkpoint/state-read: future elements
  /// will be numbered from `nextSeq`; `buffered` are the retained elements.
  /// Send cursors clamp into the new range; nothing is sent by this call.
  void restore(ElementSeq nextSeq, std::vector<Element> buffered);

  int connectionCount() const { return static_cast<int>(connections_.size()); }

 private:
  struct Connection {
    int id;
    MachineId dst;
    ElementReceiver* receiver = nullptr;
    bool active;
    bool gatesTrim;
    ElementSeq nextToSend;  ///< Seq of the next element this connection gets.
    ElementSeq ackedUpTo = 0;
    SimTime lastProgressAt = 0;  ///< Last ack advance (stall detection).
    int backoffLevel = 0;        ///< Consecutive stall retransmissions.
  };

  /// addConnection(..., DeliverFn)'s receiver.
  struct FnReceiver final : ElementReceiver {
    explicit FnReceiver(DeliverFn fn) : deliver(std::move(fn)) {}
    void receive(std::span<const Element> batch) override {
      deliver(std::vector<Element>(batch.begin(), batch.end()));
    }
    DeliverFn deliver;
  };

  Connection* find(int connId);
  const Connection* find(int connId) const;
  void push(Connection& conn);  ///< Send retained elements from the cursor.
  void maybeTrim();
  void updateFlowBlocked();

  Network& net_;
  StreamId stream_;
  MachineId src_machine_;
  ElementSeq next_seq_ = 1;
  ElementSeq trimmed_up_to_ = 0;
  std::deque<Element> buffer_;  ///< Elements (trimmed_up_to_, next_seq_).
  std::vector<Connection> connections_;
  std::deque<FnReceiver> adapters_;  ///< Grows only; push_back moves none.
  int next_conn_id_ = 1;
  TrimListener trim_listener_;
  ProduceListener produce_listener_;
  std::size_t bp_pause_at_ = 0;   ///< 0 = backpressure gate disarmed.
  std::size_t bp_resume_at_ = 0;
  bool flow_blocked_ = false;
  std::function<void(bool)> bp_listener_;
};

class InputQueue final : public ElementReceiver {
 public:
  using ArrivalListener = std::function<void()>;
  /// Sends an accumulative ack for `stream` up to `seq` to one upstream copy.
  using AckFn = std::function<void(StreamId, ElementSeq)>;
  /// Go-back-N loss recovery to one upstream copy: invoked with (stream,
  /// firstMissingSeq) when an out-of-order arrival reveals a gap.
  using GapFn = std::function<void(StreamId, ElementSeq)>;

  InputQueue() = default;

  /// Register a logical stream this queue consumes. `expected` is the first
  /// sequence number to accept (watermark + 1).
  void subscribe(StreamId stream, ElementSeq expected = 1);

  /// Register the route back to one physical upstream copy feeding
  /// `stream`: its ack path and, when loss recovery is on, its gap path.
  /// Several copies may feed the same stream (active standby); routes are
  /// served in registration order. Returns a handle for removeUpstream.
  int addUpstream(StreamId stream, AckFn ack, GapFn gap = nullptr);
  /// Drop a route whose upstream connection is gone.
  void removeUpstream(int route);

  /// Deliver a batch from some upstream copy. Acceptance is strictly
  /// in-order per stream: duplicates (seq < expected) are dropped and
  /// counted, out-of-order arrivals (seq > expected, meaning a preceding
  /// message was lost) are dropped WITHOUT advancing the watermark -- the
  /// stream's gap routes (go-back-N NACK paths) are notified instead, so
  /// upstream rewinds and the gap is eventually filled. In-sequence
  /// elements are appended to the pending buffer. When a shed threshold is
  /// set and the buffer is full, new elements are *shed*
  /// (accepted-and-dropped: retransmissions will not bring them back).
  /// Gap requests and ack resends go out at most once per stream per batch.
  void receive(std::span<const Element> batch) override;
  void receive(const std::vector<Element>& batch) {
    receive(std::span<const Element>(batch));
  }

  // -- Acknowledgments --------------------------------------------------------

  /// Send an accumulative ack to every upstream route of each stream whose
  /// watermark advanced past the last ack sent, and record it. Streams go in
  /// watermark order, routes in registration order.
  void flushAcks(const std::map<StreamId, ElementSeq>& watermarks);

  /// Loss recovery: from now on a duplicate arrival (the upstream
  /// stall-retransmitter believes the consumer is behind, so the previous
  /// ack must have been lost) re-sends the stream's last recorded ack,
  /// rate-limited to one resend per stream per kAckFlushInterval of
  /// `clock` time. Off by default: active standby receives duplicates by
  /// design and must not double its ack traffic.
  void armAckResend(const Simulator& clock) { resend_clock_ = &clock; }
  void disarmAckResend() { resend_clock_ = nullptr; }

  /// Enable load shedding: arrivals beyond `maxPending` buffered elements
  /// are dropped (the paper's "load shedding" alternative -- it bounds the
  /// delay at the price of data loss). 0 disables shedding (default).
  void setShedThreshold(std::size_t maxPending) { shed_threshold_ = maxPending; }
  std::uint64_t elementsShed() const { return elements_shed_; }

  /// Invoked with (stream, seq) for every element shed. The flow subsystem's
  /// accountant folds these into per-stream drop intervals and trace events,
  /// which is what makes the bounded-loss contract assertable.
  using ShedListener = std::function<void(StreamId, ElementSeq)>;
  void setShedListener(ShedListener fn) { shed_listener_ = std::move(fn); }

  // -- Backpressure (flow/) ---------------------------------------------------

  /// Arm consumer-side pressure thresholds: when the pending depth reaches
  /// `pauseAt` the queue turns overloaded (listener fires true); when it
  /// drains back to `resumeAt` it clears (listener fires false). The flow
  /// subsystem routes these edges to the source as pause/resume credits.
  /// `pauseAt` 0 disarms (default: zero cost on the pop path).
  using PressureListener = std::function<void(bool /*overloaded*/)>;
  void setPressure(std::size_t pauseAt, std::size_t resumeAt,
                   PressureListener fn);
  bool overloaded() const { return overloaded_; }
  /// Drop the overload flag without waiting for a drain. HA transitions call
  /// this when the instance goes dormant (suspension, rollback, termination):
  /// a dormant copy's backlog must not keep the source throttled.
  void releasePressure();
  /// Re-evaluate the flag from the current depth. HA transitions call this
  /// when an instance activates (switchover): the standby inherits whatever
  /// backlog it accumulated, and the source must learn about it.
  void pokePressure();

  bool empty() const { return pending_.empty(); }
  std::size_t size() const { return pending_.size(); }
  const Element& front() const { return pending_.front(); }
  void pop() {
    pending_.pop_front();
    if (pressure_pause_at_ != 0) updatePressure();
  }

  void setArrivalListener(ArrivalListener fn) { on_arrival_ = std::move(fn); }

  /// Next sequence number this queue will accept for `stream`.
  ElementSeq expected(StreamId stream) const;

  /// Hard-reset `stream` to exactly `watermark`: expect watermark + 1 next
  /// (even if that REWINDS the dedup point) and drop every pending element of
  /// the stream. This is the restore semantic -- a PE restored to an older
  /// state must be able to re-accept the retransmission of elements it once
  /// saw, or they are deduplicated into a permanent gap. The ack record
  /// follows the dedup point down to at most `watermark`.
  void resetStream(StreamId stream, ElementSeq watermark);

  /// Snapshot the pending (received, unprocessed) elements, oldest first.
  std::vector<Element> snapshotPending() const {
    return std::vector<Element>(pending_.begin(), pending_.end());
  }

  /// Restore buffered elements from a (conventional) checkpoint; expected
  /// watermarks advance past every loaded element so retransmissions of the
  /// backlog are treated as duplicates.
  void loadPending(const std::vector<Element>& elements);

  std::uint64_t duplicatesDropped() const { return duplicates_dropped_; }
  /// Forward sequence jumps *accepted* past the watermark (data loss). With
  /// strict in-order acceptance this must be 0 in every run; property tests
  /// assert it.
  std::uint64_t gapsObserved() const { return gaps_observed_; }
  /// Out-of-order arrivals dropped while waiting for a retransmission of the
  /// gap (> 0 only when message loss is injected).
  std::uint64_t outOfOrderDropped() const { return out_of_order_dropped_; }

  std::vector<StreamId> streams() const;

 private:
  struct Route {
    int id;
    StreamId stream;
    AckFn ack;
    GapFn gap;  ///< Null while loss recovery is off.
  };
  /// The last ack sent upstream for one stream.
  struct AckRecord {
    ElementSeq upTo = 0;
    SimTime lastResend = kTimeNever;  ///< kTimeNever: never resent.
  };

  void updatePressure();
  void sendAck(StreamId stream, ElementSeq upTo);
  void resendAck(StreamId stream);

  std::map<StreamId, ElementSeq> expected_;  ///< Next acceptable seq per stream.
  std::deque<Element> pending_;
  std::vector<Route> routes_;
  int next_route_id_ = 1;
  std::map<StreamId, AckRecord> acked_;
  const Simulator* resend_clock_ = nullptr;  ///< Null: resend disarmed.
  ArrivalListener on_arrival_;
  std::uint64_t duplicates_dropped_ = 0;
  std::uint64_t gaps_observed_ = 0;
  std::uint64_t out_of_order_dropped_ = 0;
  std::size_t shed_threshold_ = 0;
  std::uint64_t elements_shed_ = 0;
  ShedListener shed_listener_;
  std::size_t pressure_pause_at_ = 0;  ///< 0 = pressure tracking disarmed.
  std::size_t pressure_resume_at_ = 0;
  bool overloaded_ = false;
  PressureListener pressure_listener_;
};

}  // namespace streamha
