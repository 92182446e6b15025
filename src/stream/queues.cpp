#include "stream/queues.hpp"

#include <algorithm>
#include <cassert>

#include "trace/recorder.hpp"

namespace streamha {

OutputQueue::OutputQueue(Network& net, StreamId stream, MachineId srcMachine)
    : net_(net), stream_(stream), src_machine_(srcMachine) {}

ElementSeq OutputQueue::produce(SimTime sourceTs, std::uint64_t value,
                                std::uint32_t payloadBytes) {
  Element e;
  e.stream = stream_;
  e.seq = next_seq_++;
  e.sourceTs = sourceTs;
  e.value = value;
  e.payloadBytes = payloadBytes;
  buffer_.push_back(e);
  for (auto& conn : connections_) {
    if (!conn.active) continue;
    if (conn.nextToSend == e.seq) {
      // Fast path: the connection is caught up; ship just this element.
      conn.nextToSend = e.seq + 1;
      std::vector<Element> batch{e};
      net_.send(src_machine_, conn.dst, MsgKind::kData, wireBytes(batch), 1,
                [deliver = conn.deliver, batch] { deliver(batch); });
    } else if (conn.nextToSend < e.seq) {
      // The connection fell behind (e.g. its queue was just restored from a
      // checkpoint): ship the retained backlog up to and including `e`.
      push(conn);
    }
  }
  if (produce_listener_) produce_listener_(e.seq);
  if (bp_pause_at_ != 0) updateFlowBlocked();
  return e.seq;
}

std::uint64_t OutputQueue::unackedBacklog() const {
  std::uint64_t worst = 0;
  for (const auto& conn : connections_) {
    if (!conn.active || !conn.gatesTrim) continue;
    if (!net_.machineUp(conn.dst)) continue;
    const ElementSeq covered = std::max(conn.ackedUpTo, trimmed_up_to_);
    const ElementSeq produced = next_seq_ - 1;
    if (produced > covered) worst = std::max(worst, produced - covered);
  }
  return worst;
}

void OutputQueue::setBackpressure(std::size_t pauseAt, std::size_t resumeAt,
                                  std::function<void(bool)> listener) {
  bp_pause_at_ = pauseAt;
  bp_resume_at_ = resumeAt;
  bp_listener_ = std::move(listener);
  if (bp_pause_at_ != 0) updateFlowBlocked();
}

void OutputQueue::updateFlowBlocked() {
  const std::uint64_t backlog = unackedBacklog();
  if (!flow_blocked_ && backlog >= bp_pause_at_) {
    flow_blocked_ = true;
    if (bp_listener_) bp_listener_(true);
  } else if (flow_blocked_ && backlog <= bp_resume_at_) {
    flow_blocked_ = false;
    if (bp_listener_) bp_listener_(false);
  }
}

int OutputQueue::addConnection(MachineId dstMachine, bool active,
                               bool gatesTrim, DeliverFn deliver) {
  Connection conn;
  conn.id = next_conn_id_++;
  conn.dst = dstMachine;
  conn.deliver = std::move(deliver);
  conn.active = active;
  conn.gatesTrim = gatesTrim;
  conn.nextToSend = trimmed_up_to_ + 1;
  conn.ackedUpTo = trimmed_up_to_;
  conn.lastProgressAt = net_.now();
  connections_.push_back(std::move(conn));
  if (active) push(connections_.back());
  return connections_.back().id;
}

void OutputQueue::removeConnection(int connId) {
  connections_.erase(
      std::remove_if(connections_.begin(), connections_.end(),
                     [connId](const Connection& c) { return c.id == connId; }),
      connections_.end());
  maybeTrim();
  if (bp_pause_at_ != 0) updateFlowBlocked();
}

OutputQueue::Connection* OutputQueue::find(int connId) {
  for (auto& conn : connections_) {
    if (conn.id == connId) return &conn;
  }
  return nullptr;
}

const OutputQueue::Connection* OutputQueue::find(int connId) const {
  for (const auto& conn : connections_) {
    if (conn.id == connId) return &conn;
  }
  return nullptr;
}

void OutputQueue::setConnectionActive(int connId, bool active) {
  Connection* conn = find(connId);
  if (conn == nullptr || conn->active == active) return;
  conn->active = active;
  if (active) push(*conn);
  if (bp_pause_at_ != 0) updateFlowBlocked();
}

bool OutputQueue::connectionActive(int connId) const {
  const Connection* conn = find(connId);
  return conn != nullptr && conn->active;
}

ElementSeq OutputQueue::connectionCursor(int connId) const {
  const Connection* conn = find(connId);
  return conn == nullptr ? 0 : conn->nextToSend;
}

void OutputQueue::setConnectionGating(int connId, bool gatesTrim) {
  Connection* conn = find(connId);
  if (conn == nullptr || conn->gatesTrim == gatesTrim) return;
  conn->gatesTrim = gatesTrim;
  maybeTrim();
  if (bp_pause_at_ != 0) updateFlowBlocked();
}

void OutputQueue::retransmitFrom(int connId, ElementSeq fromSeq) {
  Connection* conn = find(connId);
  if (conn == nullptr) return;
  conn->nextToSend = std::max<ElementSeq>(fromSeq, trimmed_up_to_ + 1);
  if (conn->active) push(*conn);
}

void OutputQueue::nack(int connId, ElementSeq fromSeq) {
  Connection* conn = find(connId);
  if (conn == nullptr) return;
  const ElementSeq rewound =
      std::max<ElementSeq>(std::min(conn->nextToSend, fromSeq),
                           trimmed_up_to_ + 1);
  if (rewound >= conn->nextToSend) return;  // Stale NACK: nothing to resend.
  conn->nextToSend = rewound;
  if (conn->active) push(*conn);
}

void OutputQueue::rewindAck(int connId, ElementSeq upTo) {
  Connection* conn = find(connId);
  if (conn == nullptr) return;
  conn->ackedUpTo = std::min(conn->ackedUpTo, upTo);
}

void OutputQueue::retransmitStalled(SimDuration baseTimeout) {
  const SimTime now = net_.now();
  for (auto& conn : connections_) {
    if (!conn.active) continue;
    const ElementSeq covered = std::max(conn.ackedUpTo, trimmed_up_to_);
    if (covered + 1 >= conn.nextToSend) {
      // Nothing outstanding: the stall clock starts when backlog appears.
      conn.lastProgressAt = now;
      conn.backoffLevel = 0;
      continue;
    }
    if (!net_.machineUp(conn.dst)) {
      // The peer machine is down: every retransmission would be dropped at
      // delivery anyway, so park the stall clock instead of resending into
      // the dead connection. After a restart (or once failover replaces the
      // connection) the scan resumes with a fresh backoff.
      conn.lastProgressAt = now;
      conn.backoffLevel = 0;
      continue;
    }
    const SimDuration timeout = baseTimeout << std::min(conn.backoffLevel, 4);
    if (now - conn.lastProgressAt < timeout) continue;
    conn.nextToSend = covered + 1;
    conn.lastProgressAt = now;
    ++conn.backoffLevel;
    push(conn);
  }
}

void OutputQueue::push(Connection& conn) {
  if (buffer_.empty()) {
    conn.nextToSend = std::max(conn.nextToSend, next_seq_);
    return;
  }
  const ElementSeq first_buffered = buffer_.front().seq;
  ElementSeq from = std::max(conn.nextToSend, first_buffered);
  while (from < next_seq_) {
    std::vector<Element> batch;
    batch.reserve(kMaxBatch);
    const std::size_t start =
        static_cast<std::size_t>(from - first_buffered);
    for (std::size_t i = start; i < buffer_.size() && batch.size() < kMaxBatch;
         ++i) {
      batch.push_back(buffer_[i]);
    }
    if (batch.empty()) break;
    from = batch.back().seq + 1;
    net_.send(src_machine_, conn.dst, MsgKind::kData, wireBytes(batch),
              batch.size(),
              [deliver = conn.deliver, batch] { deliver(batch); });
  }
  conn.nextToSend = std::max(conn.nextToSend, from);
}

void OutputQueue::onAck(int connId, ElementSeq upTo) {
  Connection* conn = find(connId);
  if (conn == nullptr) return;
  if (upTo > conn->ackedUpTo) {
    conn->ackedUpTo = upTo;
    conn->lastProgressAt = net_.now();
    conn->backoffLevel = 0;
  }
  maybeTrim();
  if (bp_pause_at_ != 0) updateFlowBlocked();
}

void OutputQueue::maybeTrim() {
  ElementSeq new_trim = next_seq_ - 1;  // Everything produced so far...
  bool any_gating = false;
  for (const auto& conn : connections_) {
    if (!conn.gatesTrim) continue;
    any_gating = true;
    new_trim = std::min(new_trim, conn.ackedUpTo);
  }
  if (!any_gating) return;  // Nobody consumes yet: retain everything.
  if (new_trim <= trimmed_up_to_) return;
  std::uint64_t dropped = 0;
  while (!buffer_.empty() && buffer_.front().seq <= new_trim) {
    buffer_.pop_front();
    ++dropped;
  }
  trimmed_up_to_ = new_trim;
  if (auto* trace = net_.trace(); trace != nullptr && dropped > 0) {
    TraceEvent ev;
    ev.type = TraceEventType::kQueueTrim;
    ev.at = net_.now();
    ev.machine = src_machine_;
    ev.stream = stream_;
    ev.value = trimmed_up_to_;
    ev.aux = dropped;
    trace->record(ev);
  }
  if (trim_listener_) trim_listener_(trimmed_up_to_);
}

std::vector<Element> OutputQueue::snapshotBuffered() const {
  return std::vector<Element>(buffer_.begin(), buffer_.end());
}

void OutputQueue::restore(ElementSeq nextSeq, std::vector<Element> buffered) {
  next_seq_ = nextSeq;
  buffer_.assign(buffered.begin(), buffered.end());
  trimmed_up_to_ =
      buffer_.empty() ? (next_seq_ > 0 ? next_seq_ - 1 : 0)
                      : buffer_.front().seq - 1;
  for (auto& conn : connections_) {
    conn.nextToSend = std::clamp<ElementSeq>(conn.nextToSend,
                                             trimmed_up_to_ + 1, next_seq_);
    conn.ackedUpTo = std::min(conn.ackedUpTo, next_seq_ - 1);
  }
  if (bp_pause_at_ != 0) updateFlowBlocked();
}

void InputQueue::subscribe(StreamId stream, ElementSeq expected) {
  expected_[stream] = expected;
}

bool InputQueue::subscribed(StreamId stream) const {
  return expected_.count(stream) != 0;
}

int InputQueue::addUpstream(StreamId stream, AckFn ack, GapFn gap) {
  routes_.push_back(
      Route{next_route_id_++, stream, std::move(ack), std::move(gap)});
  return routes_.back().id;
}

void InputQueue::removeUpstream(int route) {
  std::erase_if(routes_, [route](const Route& r) { return r.id == route; });
}

void InputQueue::receive(const std::vector<Element>& batch) {
  bool delivered = false;
  // Streams needing loss-recovery signaling, at most once per batch each.
  std::vector<StreamId> gapped;
  std::vector<StreamId> duplicated;
  const auto noteOnce = [](std::vector<StreamId>& list, StreamId stream) {
    if (std::find(list.begin(), list.end(), stream) == list.end()) {
      list.push_back(stream);
    }
  };
  for (const Element& e : batch) {
    auto it = expected_.find(e.stream);
    if (it == expected_.end()) continue;  // Not subscribed: ignore.
    if (e.seq < it->second) {
      ++duplicates_dropped_;
      if (resend_clock_ != nullptr) noteOnce(duplicated, e.stream);
      continue;
    }
    if (e.seq > it->second) {
      // Out-of-order: a preceding message was lost in flight. Strict
      // in-order acceptance drops it without advancing the watermark (the
      // old accept-and-count-a-gap behavior would lose the gap elements
      // forever) and asks upstream to go back to the first missing seq.
      ++out_of_order_dropped_;
      noteOnce(gapped, e.stream);
      continue;
    }
    it->second = e.seq + 1;
    if (shed_threshold_ != 0 && pending_.size() >= shed_threshold_) {
      // Shed: the watermark advanced, so the element is gone for good (a
      // retransmission would be treated as a duplicate).
      ++elements_shed_;
      if (shed_listener_) shed_listener_(e.stream, e.seq);
      continue;
    }
    pending_.push_back(e);
    delivered = true;
  }
  for (StreamId stream : gapped) {
    const ElementSeq firstMissing = expected_[stream];
    for (const Route& route : routes_) {
      if (route.stream == stream && route.gap) route.gap(stream, firstMissing);
    }
  }
  for (StreamId stream : duplicated) resendAck(stream);
  if (delivered && pressure_pause_at_ != 0) updatePressure();
  if (delivered && on_arrival_) on_arrival_();
}

void InputQueue::setPressure(std::size_t pauseAt, std::size_t resumeAt,
                             PressureListener fn) {
  pressure_pause_at_ = pauseAt;
  pressure_resume_at_ = resumeAt;
  pressure_listener_ = std::move(fn);
  if (pressure_pause_at_ != 0) updatePressure();
}

void InputQueue::releasePressure() {
  if (!overloaded_) return;
  overloaded_ = false;
  if (pressure_listener_) pressure_listener_(false);
}

void InputQueue::pokePressure() {
  if (pressure_pause_at_ != 0) updatePressure();
}

void InputQueue::updatePressure() {
  if (!overloaded_ && pending_.size() >= pressure_pause_at_) {
    overloaded_ = true;
    if (pressure_listener_) pressure_listener_(true);
  } else if (overloaded_ && pending_.size() <= pressure_resume_at_) {
    overloaded_ = false;
    if (pressure_listener_) pressure_listener_(false);
  }
}

void InputQueue::flushAcks(const std::map<StreamId, ElementSeq>& watermarks) {
  for (const auto& [stream, seq] : watermarks) {
    ElementSeq& sent = acked_[stream].upTo;
    if (seq <= sent) continue;
    sent = seq;
    sendAck(stream, seq);
  }
}

void InputQueue::resendAck(StreamId stream) {
  const auto it = acked_.find(stream);
  if (it == acked_.end() || it->second.upTo == 0) return;
  const SimTime now = resend_clock_->now();
  SimTime& last = it->second.lastResend;
  if (last != kTimeNever && now - last < kAckFlushInterval) return;
  last = now;
  sendAck(stream, it->second.upTo);
}

void InputQueue::sendAck(StreamId stream, ElementSeq upTo) {
  for (const Route& route : routes_) {
    if (route.stream == stream) route.ack(stream, upTo);
  }
}

ElementSeq InputQueue::expected(StreamId stream) const {
  const auto it = expected_.find(stream);
  return it == expected_.end() ? 1 : it->second;
}

void InputQueue::resetStream(StreamId stream, ElementSeq watermark) {
  // A rewound consumer that still remembered its old (higher) ack would
  // replay it on the next duplicate and trim the upstream queue past the
  // very span it has to reprocess -- an unfillable gap.
  if (auto acked = acked_.find(stream); acked != acked_.end()) {
    acked->second.upTo = std::min(acked->second.upTo, watermark);
  }
  auto it = expected_.find(stream);
  if (it == expected_.end()) return;
  // Elements at or below the watermark are covered by the restored state.
  pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                [&](const Element& e) {
                                  return e.stream == stream &&
                                         e.seq <= watermark;
                                }),
                 pending_.end());
  // The stream's surviving pending span is contiguous up to expected - 1 (the
  // queue accepts strictly in order), so its first element tells rewind from
  // non-rewind apart. If it starts at watermark + 1 the restore did not jump
  // below anything already processed: keep the backlog, expected stands. If
  // it does not (or nothing survives past a watermark below expected - 1),
  // the restore REWOUND the PE past elements it already consumed; those are
  // un-acked upstream (acks never run ahead of the processed watermark), so
  // drop the stream's backlog and rewind the dedup point to re-accept the
  // retransmission of the whole span -- keeping it would dedup the resent
  // elements into a permanent gap.
  bool rewound = true;
  for (const auto& e : pending_) {
    if (e.stream != stream) continue;
    if (e.seq == watermark + 1) rewound = false;  // Contiguous: kept.
    break;
  }
  if (watermark + 1 == it->second) rewound = false;  // Empty span.
  if (!rewound) {
    if (pressure_pause_at_ != 0) updatePressure();
    return;
  }
  it->second = watermark + 1;
  pending_.erase(std::remove_if(
                     pending_.begin(), pending_.end(),
                     [&](const Element& e) { return e.stream == stream; }),
                 pending_.end());
  if (pressure_pause_at_ != 0) updatePressure();
}

void InputQueue::fastForward(StreamId stream, ElementSeq watermark) {
  auto it = expected_.find(stream);
  if (it == expected_.end()) return;
  it->second = std::max(it->second, watermark + 1);
  pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                [&](const Element& e) {
                                  return e.stream == stream &&
                                         e.seq <= watermark;
                                }),
                 pending_.end());
  if (pressure_pause_at_ != 0) updatePressure();
}

void InputQueue::loadPending(const std::vector<Element>& elements) {
  bool loaded = false;
  for (const Element& e : elements) {
    auto it = expected_.find(e.stream);
    if (it == expected_.end()) continue;
    // Idempotent like receive(): repeated restores of overlapping backlogs
    // (a standby refreshed by successive conventional checkpoints) must not
    // duplicate pending elements.
    if (e.seq < it->second) continue;
    it->second = e.seq + 1;
    pending_.push_back(e);
    loaded = true;
  }
  if (loaded && pressure_pause_at_ != 0) updatePressure();
  if (loaded && on_arrival_) on_arrival_();
}

std::vector<StreamId> InputQueue::streams() const {
  std::vector<StreamId> out;
  out.reserve(expected_.size());
  for (const auto& [stream, seq] : expected_) out.push_back(stream);
  return out;
}

}  // namespace streamha
