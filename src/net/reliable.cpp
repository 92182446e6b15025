#include "net/reliable.hpp"

#include <algorithm>

namespace streamha {

namespace {
std::uint64_t linkKey(MachineId src, MachineId dst) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
         static_cast<std::uint32_t>(dst);
}
}  // namespace

ReliableDelivery::ReliableDelivery(Simulator& sim, Network& net,
                                   ReliableParams params)
    : sim_(sim), net_(net), params_(params) {}

void ReliableDelivery::send(MachineId src, MachineId dst, MsgKind kind,
                            std::size_t bytes, std::uint64_t elements,
                            std::function<void()> deliver,
                            std::uint64_t supersedeKey) {
  if (src == dst) {
    // Loopback is lossless in the network model; no ARQ needed.
    net_.send(src, dst, kind, bytes, elements, std::move(deliver));
    return;
  }
  const std::uint64_t link = linkKey(src, dst);
  std::deque<std::uint64_t>& queue = ledger_[link];
  const std::size_t window = params_.sendWindow;
  const std::size_t cap = params_.parkedCap;
  if (window == 0 && cap != 0 && !net_.machineUp(dst) &&
      queue.size() >= cap) {
    // Unlimited window, dead receiver: the cap bounds the link's whole
    // backlog, oldest first.
    ++stats_.parkedEvicted;
    drop(link, queue.front());
  }
  const std::uint64_t id = next_id_++;
  pending_.emplace(id, Pending{src, dst, kind, bytes, elements,
                               std::move(deliver), supersedeKey});
  ++stats_.accepted;

  // A link holds at most one unacked message per key: admitting a key drops
  // the previous holder. If it was on the wire, the oldest parked entry
  // moves up -- transmitted below, ahead of the new message.
  std::uint64_t movedUp = 0;
  if (supersedeKey != 0) {
    const auto same = std::find_if(
        queue.begin(), queue.end(), [this, supersedeKey](std::uint64_t other) {
          return pending_.at(other).supersedeKey == supersedeKey;
        });
    if (same != queue.end()) {
      ++stats_.superseded;
      movedUp = drop(link, *same);
    }
  }

  const bool onWire = window == 0 || queue.size() < window;
  if (!onWire) {
    if (cap != 0 && queue.size() - window >= cap) {
      ++stats_.parkedEvicted;
      drop(link, queue[window]);  // The oldest parked entry.
    }
    ++stats_.parked;
  }
  queue.push_back(id);
  peak_tracked_ = std::max(peak_tracked_, pending_.size());

  if (movedUp != 0) {
    ++stats_.unparked;
    transmit(movedUp);
  }
  if (onWire) transmit(id);
}

std::size_t ReliableDelivery::parkedCount() const {
  const std::size_t window = params_.sendWindow;
  std::size_t parked = 0;
  for (const auto& [link, queue] : ledger_) {
    if (window != 0 && queue.size() > window) parked += queue.size() - window;
  }
  return parked;
}

std::uint64_t ReliableDelivery::drop(std::uint64_t link, std::uint64_t id) {
  pending_.erase(id);
  std::deque<std::uint64_t>& queue = ledger_[link];
  const auto at = std::find(queue.begin(), queue.end(), id);
  if (at == queue.end()) return 0;
  const auto index = static_cast<std::size_t>(at - queue.begin());
  queue.erase(at);
  const std::size_t window = params_.sendWindow;
  // A freed slot on the wire goes to the first parked entry.
  if (window != 0 && index < window && queue.size() >= window) {
    return queue[window - 1];
  }
  return 0;
}

void ReliableDelivery::retire(std::uint64_t link, std::uint64_t id) {
  const std::uint64_t movedUp = drop(link, id);
  if (movedUp != 0) {
    ++stats_.unparked;
    transmit(movedUp);
  }
}

void ReliableDelivery::transmit(std::uint64_t id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;  // Acked or dropped while timer armed.
  Pending& p = it->second;
  if (!net_.machineUp(p.src)) {
    // The sending process died with its machine; nothing left to retry.
    ++stats_.abandoned;
    retire(linkKey(p.src, p.dst), id);
    return;
  }
  ++p.attempts;
  if (net_.machineUp(p.dst)) {
    if (p.attempts > 1) ++stats_.retransmits;
    const MachineId src = p.src;
    const MachineId dst = p.dst;
    net_.send(src, dst, p.kind, p.bytes + kArqHeaderBytes, p.elements,
              [this, id, src, dst] { onDelivered(id, src, dst); });
  }
  // Receiver down: skip the wasted copy (the network would drop it at
  // delivery anyway) but keep the timer armed so delivery resumes after a
  // restart. Satellite fix "retransmission to dead peers" for the control
  // plane; the data plane's equivalent lives in OutputQueue.
  armTimer(id);
}

void ReliableDelivery::armTimer(std::uint64_t id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  const int shift =
      std::min(it->second.attempts - 1, params_.maxBackoffShift);
  const SimDuration wait = params_.retryTimeout << shift;
  sim_.schedule(wait, [this, id] { transmit(id); });
}

void ReliableDelivery::onDelivered(std::uint64_t id, MachineId src,
                                   MachineId dst) {
  auto& seen = delivered_[linkKey(src, dst)];
  if (seen.insert(id).second) {
    auto it = pending_.find(id);
    if (it != pending_.end() && it->second.deliver) it->second.deliver();
  } else {
    // Injected duplicate or retransmitted copy: suppressed, but re-acked --
    // a lost ack must not wedge the sender in retry forever.
    ++stats_.duplicatesSuppressed;
  }
  ++stats_.acksSent;
  net_.send(dst, src, MsgKind::kControl, kArqAckBytes, 0,
            [this, id] { onAcked(id); });
}

void ReliableDelivery::onAcked(std::uint64_t id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;  // Already dropped or a duplicate ack.
  retire(linkKey(it->second.src, it->second.dst), id);
}

}  // namespace streamha
