#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "net/reliable.hpp"
#include "trace/recorder.hpp"

namespace streamha {

std::uint64_t Network::Counters::totalMessages() const {
  std::uint64_t total = 0;
  for (auto v : messages) total += v;
  return total;
}

std::uint64_t Network::Counters::totalBytes() const {
  std::uint64_t total = 0;
  for (auto v : bytes) total += v;
  return total;
}

std::uint64_t Network::Counters::totalElements() const {
  std::uint64_t total = 0;
  for (auto v : elements) total += v;
  return total;
}

Network::Counters Network::Counters::operator-(const Counters& other) const {
  Counters out;
  for (std::size_t i = 0; i < kMsgKindCount; ++i) {
    out.messages[i] = messages[i] - other.messages[i];
    out.bytes[i] = bytes[i] - other.bytes[i];
    out.elements[i] = elements[i] - other.elements[i];
  }
  return out;
}

Network::Network(Simulator& sim, Params params,
                 std::function<bool(MachineId)> machineUp)
    : sim_(sim), params_(params), machine_up_(std::move(machineUp)) {}

Network::~Network() = default;

void Network::enableReliable(const ReliableParams& params) {
  assert(reliable_ == nullptr);
  reliable_ = std::make_unique<ReliableDelivery>(sim_, *this, params);
}

void Network::sendReliable(MachineId src, MachineId dst, MsgKind kind,
                           std::size_t bytes, std::uint64_t elements,
                           std::function<void()> deliver,
                           std::uint64_t supersedeKey) {
  if (reliable_) {
    reliable_->send(src, dst, kind, bytes, elements, std::move(deliver),
                    supersedeKey);
  } else {
    send(src, dst, kind, bytes, elements, std::move(deliver));
  }
}

void Network::send(MachineId src, MachineId dst, MsgKind kind,
                   std::size_t bytes, std::uint64_t elements,
                   std::function<void()> deliver) {
  assert(static_cast<std::size_t>(kind) < kMsgKindCount);

  // A crashed machine sends nothing.
  if (!machineUp(src)) return;

  if (src == dst) {
    // Loopback: no network traffic is generated or counted.
    sim_.schedule(params_.localDelay, [this, dst, deliver = std::move(deliver)] {
      if (machineUp(dst)) deliver();
    });
    return;
  }

  PendingDelivery d;
  d.src = src;
  d.dst = dst;
  d.kind = kind;
  d.bytes = bytes;
  d.elements = elements;
  d.deliver = std::move(deliver);
  enqueue(std::move(d));
}

void Network::sendElements(MachineId src, MachineId dst, ElementReceiver& to,
                           const Element& element) {
  if (!machineUp(src)) return;

  if (src == dst) {
    // The steady-state loopback hop: the element rides in the event itself.
    auto local = [this, dst, to = &to, element] {
      if (machineUp(dst)) to->receive({&element, 1});
    };
    static_assert(sizeof(local) <= EventFn::kInlineBytes,
                  "a loopback data message must not allocate");
    sim_.schedule(params_.localDelay, std::move(local));
    return;
  }

  PendingDelivery d;
  d.src = src;
  d.dst = dst;
  d.bytes = wireBytes(element);
  d.elements = 1;
  d.receiver = &to;
  d.element = element;
  enqueue(std::move(d));
}

void Network::sendElements(MachineId src, MachineId dst, ElementReceiver& to,
                           std::vector<Element> batch) {
  assert(!batch.empty() && "an empty batch would deliver `element`");
  if (!machineUp(src)) return;

  if (src == dst) {
    sim_.schedule(params_.localDelay,
                  [this, dst, to = &to, batch = std::move(batch)] {
                    if (machineUp(dst)) to->receive(batch);
                  });
    return;
  }

  PendingDelivery d;
  d.src = src;
  d.dst = dst;
  d.bytes = wireBytes(batch);
  d.elements = batch.size();
  d.receiver = &to;
  d.batch = std::move(batch);
  enqueue(std::move(d));
}

void Network::enqueue(PendingDelivery d) {
  const auto idx = static_cast<std::size_t>(d.kind);
  ++counters_.messages[idx];
  counters_.bytes[idx] += d.bytes;
  counters_.elements[idx] += d.elements;

  if (trace_ != nullptr) {
    TraceEvent ev;
    ev.type = TraceEventType::kMessageSent;
    ev.at = sim_.now();
    ev.machine = d.src;
    ev.peer = d.dst;
    ev.msgKind = d.kind;
    ev.value = d.bytes;
    ev.aux = d.elements;
    trace_->record(ev);
  }

  // The injector sees every cross-machine message after it was counted and
  // serialized on the sender's link (a dropped message still occupied the
  // NIC), so fault-laden runs keep honest traffic accounting.
  FaultDecision fault{};
  if (fault_) fault = fault_(d.src, d.dst, d.kind, d.bytes);

  const std::uint64_t link_key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(d.src)) << 32) |
      static_cast<std::uint32_t>(d.dst);
  LinkState& link = links_[link_key];
  const SimTime start = std::max(sim_.now(), link.free_at);
  const auto transmit = static_cast<SimDuration>(
      std::ceil(static_cast<double>(d.bytes) / params_.bytesPerMicro));
  link.free_at = start + transmit;
  d.arrival = link.free_at + params_.latency + fault.extraDelay;

  // A dropped message draws no delivery rank (it never schedules anything).
  if (fault.drop) return;

  // Park the delivery in the link heap and make sure the pump covers the new
  // heap-min. Duplicate copies take the immediately following ranks, so each
  // lands right after its original; receivers dedup by sequence watermark.
  const std::uint32_t copies = 1 + fault.duplicates;
  for (std::uint32_t i = 0; i < copies; ++i) {
    link.heap.push_back(i + 1 < copies ? d : std::move(d));
    link.heap.back().seq = sim_.reserveSeq();
    std::push_heap(link.heap.begin(), link.heap.end(), ArrivesLater{});
  }
  schedulePump(link);
}

// Equivalence argument for the batch: simulator seqs are globally unique
// integers assigned in reservation order, and events with equal timestamps
// fire in ascending seq order. The pump is scheduled at the heap-min's exact
// (arrival, seq) via scheduleReserved, so it fires precisely when that
// delivery's own event would have. From there it may also deliver the
// *consecutive-seq* run at the same timestamp: between seq s and s + 1 no
// other event can exist anywhere in the system, so draining the run inline
// is indistinguishable from firing each entry as its own event. The first
// seq gap or timestamp change ends the batch and the pump reschedules at the
// new heap-min -- any foreign event with a seq inside the gap then fires
// between the two deliveries, in seq order.
void Network::pumpLink(LinkState& link) {
  const SimTime now = sim_.now();
  std::uint64_t prev_seq = 0;
  bool first = true;
  while (!link.heap.empty()) {
    const PendingDelivery& top = link.heap.front();
    if (top.arrival != now) break;
    if (!first && top.seq != prev_seq + 1) break;
    std::pop_heap(link.heap.begin(), link.heap.end(), ArrivesLater{});
    PendingDelivery d = std::move(link.heap.back());
    link.heap.pop_back();
    prev_seq = d.seq;
    first = false;
    // May reentrantly send on this very link; the loop re-reads the heap
    // top each iteration, so same-instant arrivals with the next seq join
    // the run (exactly as their own zero-delay event would fire next).
    deliverNow(d);
  }
  schedulePump(link);
}

void Network::schedulePump(LinkState& link) {
  if (link.heap.empty()) return;
  const PendingDelivery& top = link.heap.front();
  if (link.pump.pending() && link.pump_when == top.arrival &&
      link.pump_seq == top.seq) {
    return;
  }
  link.pump.cancel();
  link.pump_when = top.arrival;
  link.pump_seq = top.seq;
  // links_ is node-based and never erased, so the reference outlives the
  // pump event.
  link.pump = sim_.scheduleReserved(top.arrival, top.seq,
                                    [this, &link] { pumpLink(link); });
}

void Network::deliverNow(PendingDelivery& d) {
  if (!machineUp(d.dst)) return;
  traceDelivered(d.src, d.dst, d.kind, d.bytes, d.elements);
  if (d.receiver == nullptr) {
    d.deliver();
  } else if (d.batch.empty()) {
    d.receiver->receive({&d.element, 1});
  } else {
    d.receiver->receive(d.batch);
  }
}

void Network::traceDelivered(MachineId src, MachineId dst, MsgKind kind,
                             std::uint64_t bytes, std::uint64_t elements) {
  if (trace_ == nullptr) return;
  TraceEvent ev;
  ev.type = TraceEventType::kMessageDelivered;
  ev.at = sim_.now();
  ev.machine = dst;
  ev.peer = src;
  ev.msgKind = kind;
  ev.value = bytes;
  ev.aux = elements;
  trace_->record(ev);
}

}  // namespace streamha
