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
  reliable_ = std::make_unique<ReliableDelivery>(sim_, *this, params);
}

void Network::sendReliable(MachineId src, MachineId dst, MsgKind kind,
                           std::size_t bytes, std::uint64_t elements,
                           std::function<void()> deliver) {
  if (reliable_) {
    reliable_->send(src, dst, kind, bytes, elements, std::move(deliver));
  } else {
    send(src, dst, kind, bytes, elements, std::move(deliver));
  }
}

void Network::sendReliableKeyed(MachineId src, MachineId dst, MsgKind kind,
                                std::size_t bytes, std::uint64_t elements,
                                std::uint64_t supersedeKey,
                                std::function<void()> deliver) {
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
  const auto idx = static_cast<std::size_t>(kind);
  assert(idx < kMsgKindCount);

  // A crashed machine sends nothing.
  if (machine_up_ && !machine_up_(src)) return;

  if (src == dst) {
    // Loopback: no network traffic is generated or counted.
    sim_.schedule(params_.localDelay, [this, dst, deliver = std::move(deliver)] {
      if (!machine_up_ || machine_up_(dst)) deliver();
    });
    return;
  }

  ++counters_.messages[idx];
  counters_.bytes[idx] += bytes;
  counters_.elements[idx] += elements;

  if (trace_ != nullptr) {
    TraceEvent ev;
    ev.type = TraceEventType::kMessageSent;
    ev.at = sim_.now();
    ev.machine = src;
    ev.peer = dst;
    ev.msgKind = kind;
    ev.value = bytes;
    ev.aux = elements;
    trace_->record(ev);
  }

  // The injector sees every cross-machine message after it was counted and
  // serialized on the sender's link (a dropped message still occupied the
  // NIC), so fault-laden runs keep honest traffic accounting.
  FaultDecision fault{};
  if (fault_) fault = fault_(src, dst, kind, bytes);

  const std::uint64_t link_key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
      static_cast<std::uint32_t>(dst);
  LinkState& link = links_[link_key];
  const SimTime start = std::max(sim_.now(), link.free_at);
  const auto transmit = static_cast<SimDuration>(
      std::ceil(static_cast<double>(bytes) / params_.bytesPerMicro));
  link.free_at = start + transmit;
  const SimTime arrival = link.free_at + params_.latency + fault.extraDelay;

  // A dropped message draws no delivery rank (it never schedules anything).
  if (fault.drop) return;

  // Park the delivery in the link heap and make sure the pump covers the new
  // heap-min. Duplicate copies take the immediately following ranks, so each
  // lands right after its original; receivers dedup by sequence watermark.
  const std::uint32_t copies = 1 + fault.duplicates;
  for (std::uint32_t i = 0; i < copies; ++i) {
    PendingDelivery d{arrival, sim_.reserveSeq(), src,      dst,
                      kind,    bytes,             elements, {}};
    d.deliver = (i + 1 < copies) ? deliver : std::move(deliver);
    link.heap.push_back(std::move(d));
    std::push_heap(link.heap.begin(), link.heap.end(), ArrivesLater{});
  }
  schedulePump(link_key, link);
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
void Network::pumpLink(std::uint64_t linkKey) {
  LinkState& link = links_[linkKey];
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
  schedulePump(linkKey, link);
}

void Network::schedulePump(std::uint64_t linkKey, LinkState& link) {
  if (link.heap.empty()) return;
  const PendingDelivery& top = link.heap.front();
  if (link.pump.pending() && link.pump_when == top.arrival &&
      link.pump_seq == top.seq) {
    return;
  }
  link.pump.cancel();
  link.pump_when = top.arrival;
  link.pump_seq = top.seq;
  link.pump = sim_.scheduleReserved(top.arrival, top.seq,
                                    [this, linkKey] { pumpLink(linkKey); });
}

void Network::deliverNow(PendingDelivery& d) {
  if (machine_up_ && !machine_up_(d.dst)) return;
  traceDelivered(d.src, d.dst, d.kind, d.bytes, d.elements);
  d.deliver();
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
