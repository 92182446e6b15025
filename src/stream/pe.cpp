#include "stream/pe.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace streamha {

// ---------------------------------------------------------------------------
// PeLogic
// ---------------------------------------------------------------------------

std::size_t PeLogic::writtenChunks(std::uint64_t /*mark*/,
                                   std::uint32_t chunkBytes,
                                   std::vector<std::uint32_t>& out) const {
  const std::size_t size = serialize().size();
  const std::size_t count = (size + chunkBytes - 1) / chunkBytes;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(static_cast<std::uint32_t>(i));
  }
  return size;
}

void PeLogic::readSerialized(std::size_t offset,
                             std::span<std::uint8_t> out) const {
  const std::vector<std::uint8_t> bytes = serialize();
  assert(offset + out.size() <= bytes.size());
  std::copy_n(bytes.begin() + static_cast<std::ptrdiff_t>(offset), out.size(),
              out.begin());
}

// ---------------------------------------------------------------------------
// SyntheticLogic
// ---------------------------------------------------------------------------

SyntheticLogic::SyntheticLogic(double selectivity, std::size_t stateBytes)
    : selectivity_(selectivity), state_bytes_(stateBytes) {}

void SyntheticLogic::process(const Element& in, std::vector<Emit>& out) {
  ++count_;
  // Deterministic mixing so replicas produce identical derived values.
  checksum_ = checksum_ * 1099511628211ULL + in.value + in.seq;
  carry_ += selectivity_;
  while (carry_ >= 1.0) {
    carry_ -= 1.0;
    Emit e;
    e.port = 0;
    e.value = checksum_;
    out.push_back(e);
  }
}

std::vector<std::uint8_t> SyntheticLogic::serialize() const {
  // Header: count, checksum, carry; body: `state_bytes_` of synthetic state
  // (this is what gives the checkpoint message its configured size).
  std::vector<std::uint8_t> bytes(24 + state_bytes_, 0);
  std::memcpy(bytes.data(), &count_, 8);
  std::memcpy(bytes.data() + 8, &checksum_, 8);
  std::memcpy(bytes.data() + 16, &carry_, 8);
  // The body repeats checksum_'s eight bytes, lowest first.
  std::uint8_t word[8];
  for (std::size_t b = 0; b < 8; ++b) {
    word[b] = static_cast<std::uint8_t>((checksum_ >> (8 * b)) & 0xFF);
  }
  std::uint8_t* body = bytes.data() + 24;
  std::size_t i = 0;
  for (; i + 8 <= state_bytes_; i += 8) std::memcpy(body + i, word, 8);
  for (; i < state_bytes_; ++i) body[i] = word[i % 8];
  return bytes;
}

void SyntheticLogic::deserialize(const std::vector<std::uint8_t>& bytes) {
  assert(bytes.size() >= 24);
  std::memcpy(&count_, bytes.data(), 8);
  std::memcpy(&checksum_, bytes.data() + 8, 8);
  std::memcpy(&carry_, bytes.data() + 16, 8);
}

void SyntheticLogic::reset() {
  count_ = 0;
  checksum_ = 0;
  carry_ = 0.0;
}

// ---------------------------------------------------------------------------
// KeyedStateLogic
// ---------------------------------------------------------------------------

KeyedStateLogic::KeyedStateLogic(double selectivity, std::size_t stateBytes,
                                 std::size_t keyBytes)
    : selectivity_(selectivity),
      key_bytes_(std::max<std::size_t>(1, keyBytes)),
      key_count_(std::max<std::size_t>(1, stateBytes / key_bytes_)),
      state_(key_count_ * key_bytes_, 0) {}

void KeyedStateLogic::process(const Element& in, std::vector<Emit>& out) {
  ++count_;
  checksum_ = checksum_ * 1099511628211ULL + in.value + in.seq;
  // Touch exactly one key's region; everything else stays byte-identical
  // until its own key comes around again.
  const std::size_t key = static_cast<std::size_t>(in.seq % key_count_);
  const std::size_t offset = key * key_bytes_;
  for (std::size_t i = 0; i < key_bytes_; ++i) {
    state_[offset + i] =
        static_cast<std::uint8_t>(((checksum_ >> (8 * (i % 8))) ^ i) & 0xFF);
  }
  noteWritten(key, key);
  carry_ += selectivity_;
  while (carry_ >= 1.0) {
    carry_ -= 1.0;
    Emit e;
    e.port = 0;
    e.value = checksum_;
    out.push_back(e);
  }
}

void KeyedStateLogic::writeHeader(std::uint8_t* out) const {
  std::memcpy(out, &count_, 8);
  std::memcpy(out + 8, &checksum_, 8);
  std::memcpy(out + 16, &carry_, 8);
}

void KeyedStateLogic::readHeader(const std::uint8_t* in) {
  std::memcpy(&count_, in, 8);
  std::memcpy(&checksum_, in + 8, 8);
  std::memcpy(&carry_, in + 16, 8);
}

void KeyedStateLogic::noteWritten(std::size_t first, std::size_t last) {
  if (written_.empty()) return;
  std::fill(written_.begin() + static_cast<std::ptrdiff_t>(first),
            written_.begin() + static_cast<std::ptrdiff_t>(last) + 1,
            write_epoch_);
}

std::vector<std::uint8_t> KeyedStateLogic::serialize() const {
  // Reserve and append the body: it is hundreds of KB, so zero-filling it
  // before the copy would touch every byte twice.
  std::vector<std::uint8_t> bytes;
  bytes.reserve(kHeaderBytes + state_.size());
  bytes.resize(kHeaderBytes);
  writeHeader(bytes.data());
  bytes.insert(bytes.end(), state_.begin(), state_.end());
  return bytes;
}

void KeyedStateLogic::deserialize(const std::vector<std::uint8_t>& bytes) {
  assert(bytes.size() >= kHeaderBytes);
  readHeader(bytes.data());
  const std::size_t body = std::min(bytes.size() - kHeaderBytes, state_.size());
  std::memcpy(state_.data(), bytes.data() + kHeaderBytes, body);
  noteWritten(0, key_count_ - 1);
}

void KeyedStateLogic::reset() {
  count_ = 0;
  checksum_ = 0;
  carry_ = 0.0;
  std::fill(state_.begin(), state_.end(), 0);
  noteWritten(0, key_count_ - 1);
}

std::uint64_t KeyedStateLogic::markWrites() {
  if (written_.empty()) written_.assign(key_count_, 0);
  return write_epoch_++;
}

std::size_t KeyedStateLogic::writtenChunks(
    std::uint64_t mark, std::uint32_t chunkBytes,
    std::vector<std::uint32_t>& out) const {
  // The header changes with every element, so chunk 0 is always listed.
  // Without tracking yet, every key counts as written.
  out.push_back(0);
  std::size_t next = 1;  // The first chunk not listed yet.
  for (std::size_t key = 0; key < key_count_; ++key) {
    if (!written_.empty() && written_[key] <= mark) continue;
    const std::size_t begin = kHeaderBytes + key * key_bytes_;
    const std::size_t last = (begin + key_bytes_ - 1) / chunkBytes;
    for (std::size_t chunk = std::max(next, begin / chunkBytes);
         chunk <= last; ++chunk) {
      out.push_back(static_cast<std::uint32_t>(chunk));
    }
    next = std::max(next, last + 1);
  }
  return kHeaderBytes + state_.size();
}

void KeyedStateLogic::readSerialized(std::size_t offset,
                                     std::span<std::uint8_t> out) const {
  assert(offset + out.size() <= kHeaderBytes + state_.size());
  std::size_t done = 0;
  if (offset < kHeaderBytes) {
    std::uint8_t header[kHeaderBytes];
    writeHeader(header);
    done = std::min(out.size(), kHeaderBytes - offset);
    std::memcpy(out.data(), header + offset, done);
  }
  if (done < out.size()) {
    std::memcpy(out.data() + done,
                state_.data() + (offset + done - kHeaderBytes),
                out.size() - done);
  }
}

bool KeyedStateLogic::patchSerialized(const PeStateDelta& delta) {
  if (delta.internalSize != kHeaderBytes + state_.size()) return false;
  std::uint8_t header[kHeaderBytes];
  writeHeader(header);
  for (const DeltaChunk& chunk : delta.chunks) {
    const std::size_t begin =
        static_cast<std::size_t>(chunk.index) * delta.chunkBytes;
    const std::size_t end = begin + chunk.bytes.size();
    assert(end <= delta.internalSize);
    if (begin < kHeaderBytes) {
      std::memcpy(header + begin, chunk.bytes.data(),
                  std::min(end, kHeaderBytes) - begin);
    }
    if (end > kHeaderBytes) {
      const std::size_t from = std::max(begin, kHeaderBytes);
      std::memcpy(state_.data() + (from - kHeaderBytes),
                  chunk.bytes.data() + (from - begin), end - from);
      noteWritten((from - kHeaderBytes) / key_bytes_,
                  (end - 1 - kHeaderBytes) / key_bytes_);
    }
  }
  readHeader(header);
  return true;
}

// ---------------------------------------------------------------------------
// PeInstance
// ---------------------------------------------------------------------------

PeInstance::PeInstance(Machine& machine, Network& net, PeParams params,
                       std::unique_ptr<PeLogic> logic)
    : machine_(machine),
      params_(std::move(params)),
      logic_(std::move(logic)) {
  assert(logic_ != nullptr);
  outputs_.reserve(params_.outputStreams.size());
  for (StreamId stream : params_.outputStreams) {
    outputs_.push_back(
        std::make_unique<OutputQueue>(net, stream, machine_.id()));
  }
  input_.setArrivalListener([this] { maybeSchedule(); });
  // A crash drops the machine's queued work, including any processing
  // completion this PE is waiting on. Invalidate it -- and any pause
  // handshake riding on it -- or the instance would come back from restart()
  // with in_flight_ stuck true and never process again. The restart hook
  // re-pokes the loop in case the input backlog saw no new arrival to do it.
  machine_.addCrashListener([this] {
    ++epoch_;
    in_flight_ = false;
    pause_requested_ = false;
    pause_controller_ = nullptr;
  });
  machine_.addRestartListener([this] { maybeSchedule(); });
}

bool PeInstance::outputsBlocked() const {
  for (const auto& out : outputs_) {
    if (out->flowBlocked()) return true;
  }
  return false;
}

void PeInstance::maybeSchedule() {
  if (terminated_ || suspended_ || paused_ || in_flight_ || !machine_.isUp()) {
    return;
  }
  if (pause_requested_) {
    enterPaused();
    return;
  }
  if (input_.empty() || outputsBlocked()) return;
  in_flight_ = true;
  const std::uint64_t epoch = epoch_;
  machine_.submitData(params_.workPerElementUs,
                      [this, epoch] { onProcessed(epoch); });
}

void PeInstance::onProcessed(std::uint64_t epoch) {
  if (epoch != epoch_) return;  // Superseded by a restore; drop silently.
  in_flight_ = false;
  if (terminated_) return;
  if (!input_.empty()) {
    const Element e = input_.front();
    input_.pop();
    scratch_emits_.clear();
    logic_->process(e, scratch_emits_);
    watermarks_[e.stream] = e.seq;
    ++processed_count_;
    ++state_writes_;
    for (const auto& em : scratch_emits_) {
      const auto port = static_cast<std::size_t>(em.port);
      assert(port < outputs_.size());
      outputs_[port]->produce(
          e.sourceTs, em.value,
          em.payloadBytes != 0 ? em.payloadBytes : params_.outputPayloadBytes);
    }
  }
  if (pause_requested_) {
    enterPaused();
    return;
  }
  maybeSchedule();
}

void PeInstance::pause(CheckpointController& controller) {
  assert(!pause_requested_ && !paused_);
  pause_requested_ = true;
  pause_controller_ = &controller;
  if (!in_flight_) enterPaused();
}

void PeInstance::enterPaused() {
  pause_requested_ = false;
  paused_ = true;
  CheckpointController* controller = pause_controller_;
  pause_controller_ = nullptr;
  if (controller != nullptr) controller->ackPePause(*this);
}

void PeInstance::resume() {
  if (!paused_) return;
  paused_ = false;
  maybeSchedule();
}

void PeInstance::cancelPause(const CheckpointController& controller) {
  if (pause_controller_ != &controller) return;
  pause_requested_ = false;
  pause_controller_ = nullptr;
  maybeSchedule();
}

PeState PeInstance::checkpoint(bool includeOutputQueues, bool includeInputQueue,
                               bool includeInternal) const {
  PeState state =
      peekState(includeOutputQueues, includeInputQueue, includeInternal);
  state.version = ++const_cast<PeInstance*>(this)->checkpoint_version_;
  return state;
}

PeState PeInstance::peekState(bool includeOutputQueues, bool includeInputQueue,
                              bool includeInternal) const {
  PeState state;
  state.pe = params_.logicalId;
  state.version = checkpoint_version_;
  if (includeInternal) state.internal = logic_->serialize();
  state.processedWatermark = watermarks_;
  if (includeOutputQueues) {
    for (const auto& out : outputs_) {
      PeState::PortState port;
      port.stream = out->stream();
      port.nextSeq = out->nextSeq();
      port.buffered = out->snapshotBuffered();
      state.ports.push_back(std::move(port));
    }
  }
  if (includeInputQueue) {
    // Conventional checkpointing persists the received-but-unprocessed
    // backlog so the upstream may trim everything *received* so far.
    state.inputBacklog = input_.snapshotPending();
    state.receivedWatermark.clear();
    for (StreamId stream : input_.streams()) {
      state.receivedWatermark[stream] = input_.expected(stream) - 1;
    }
  }
  return state;
}

void PeInstance::storeJobState(const PeState& state,
                               const PeStateDelta* patch) {
  assert(state.pe == params_.logicalId);
  ++epoch_;  // Invalidate any in-flight processing completion.
  in_flight_ = false;
  // Keep the per-PE checkpoint version monotonic across restores: after a
  // promotion this instance's own checkpoints must out-version everything the
  // old primary shipped, or the store would reject them as stale.
  checkpoint_version_ = std::max(checkpoint_version_, state.version);
  if (patch == nullptr || !logic_->patchSerialized(*patch)) {
    logic_->deserialize(state.internal);
  }
  ++state_writes_;
  watermarks_ = state.processedWatermark;
  for (const auto& port : state.ports) {
    for (auto& out : outputs_) {
      if (out->stream() == port.stream) {
        out->restore(port.nextSeq, port.buffered);
      }
    }
  }
  for (const auto& [stream, wm] : watermarks_) {
    // Reset, not fast-forward: a restore may legitimately REWIND this PE
    // (e.g. the checkpointed state lags what a briefly-activated secondary
    // processed on its own). The input dedup point and ack record must
    // follow the state down, or retransmissions of the rewound span are
    // dropped as duplicates and their outputs are lost for good.
    input_.resetStream(stream, wm);
  }
  if (!state.inputBacklog.empty()) {
    input_.loadPending(state.inputBacklog);
  }
  maybeSchedule();
}

void PeInstance::suspend() {
  suspended_ = true;
}

void PeInstance::unsuspend() {
  if (!suspended_) return;
  suspended_ = false;
  maybeSchedule();
}

void PeInstance::terminate() {
  terminated_ = true;
  ++epoch_;
  in_flight_ = false;
  // A terminated copy's backlog must not keep the source throttled, and its
  // duplicates must not re-send acks.
  input_.releasePressure();
  input_.disarmAckResend();
}

}  // namespace streamha
