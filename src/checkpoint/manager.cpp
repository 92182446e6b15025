#include "checkpoint/manager.hpp"

#include <algorithm>
#include <cassert>
#include <optional>

#include "trace/recorder.hpp"

namespace streamha {

namespace {

/// Simulated CPU cost of serializing one KB of checkpoint payload.
constexpr double kSerializeWorkUsPerKb = 5.0;
/// Wire size of the store's durable-confirm message.
constexpr std::size_t kConfirmBytes = 64;

// `value` carries the logical PE id + 1; 0 means a grouped whole-subjob
// checkpoint. The exporter uses the value to pair Begin/End when several PE
// checkpoints of one subjob overlap.
void recordCheckpointEvent(TraceRecorder* trace, TraceEventType type,
                           SimTime at, MachineId machine, SubjobId subjob,
                           std::uint64_t value, std::uint64_t bytes) {
  if (trace == nullptr) return;
  TraceEvent ev;
  ev.type = type;
  ev.at = at;
  ev.machine = machine;
  ev.subjob = subjob;
  ev.value = value;
  ev.aux = bytes;
  trace->record(ev);
}

}  // namespace

PeStateDelta encodeWrittenDelta(const DeltaBase* base, const PeLogic& logic,
                                PeState captured, std::uint32_t chunkBytes) {
  assert(chunkBytes > 0);
  PeStateDelta delta;
  delta.pe = captured.pe;
  delta.version = captured.version;
  delta.baseVersion = base != nullptr ? base->version : 0;
  delta.chunkBytes = chunkBytes;
  delta.processedWatermark = std::move(captured.processedWatermark);
  delta.ports = std::move(captured.ports);
  delta.inputBacklog = std::move(captured.inputBacklog);
  delta.receivedWatermark = std::move(captured.receivedWatermark);

  std::vector<std::uint32_t> candidates;
  const std::size_t size = logic.writtenChunks(
      base != nullptr ? base->mark : 0, chunkBytes, candidates);
  delta.internalSize = size;
  if (base == nullptr || base->internal.size() != size) {
    candidates.clear();
    for (std::size_t i = 0; i * chunkBytes < size; ++i) {
      candidates.push_back(static_cast<std::uint32_t>(i));
    }
  }
  // Read each run of consecutive candidates at once, then ship the chunks
  // that differ from the base, by encodeDelta's rule.
  std::vector<std::uint8_t> run;
  for (std::size_t i = 0; i < candidates.size();) {
    std::size_t j = i + 1;
    while (j < candidates.size() && candidates[j] == candidates[j - 1] + 1) {
      ++j;
    }
    const std::size_t runBegin =
        static_cast<std::size_t>(candidates[i]) * chunkBytes;
    const std::size_t runEnd = std::min(
        size, (static_cast<std::size_t>(candidates[j - 1]) + 1) * chunkBytes);
    run.resize(runEnd - runBegin);
    logic.readSerialized(runBegin, run);
    for (; i < j; ++i) {
      const std::size_t begin =
          static_cast<std::size_t>(candidates[i]) * chunkBytes;
      const std::size_t end = std::min(size, begin + chunkBytes);
      const std::uint8_t* bytes = run.data() + (begin - runBegin);
      if (base != nullptr && base->internal.size() >= end &&
          std::equal(bytes, bytes + (end - begin),
                     base->internal.begin() +
                         static_cast<std::ptrdiff_t>(begin))) {
        continue;
      }
      DeltaChunk chunk;
      chunk.index = candidates[i];
      chunk.bytes.assign(bytes, bytes + (end - begin));
      delta.chunks.push_back(std::move(chunk));
    }
  }
  return delta;
}

CheckpointManager::CheckpointManager(Simulator& sim, Network& net,
                                     Subjob& subjob, StateStore& store,
                                     Params params)
    : sim_(sim), net_(net), subjob_(subjob), store_(store), params_(params) {}

CheckpointManager::~CheckpointManager() = default;

void CheckpointManager::stop() {
  stopped_ = true;
  // Abandoning a waiter is not enough: if the PE is still finishing its
  // in-flight element, the pause request would complete into enterPaused()
  // after this manager is retired, and nothing would ever resume the
  // processing loop. Withdraw the request along with the waiter.
  for (auto& [pe, waiter] : pause_waiters_) pe->cancelPause(*this);
  pause_waiters_.clear();
  in_progress_.clear();
}

void CheckpointManager::ackPePause(PeInstance& pe) {
  auto it = pause_waiters_.find(&pe);
  if (it == pause_waiters_.end()) return;
  auto fn = std::move(it->second);
  pause_waiters_.erase(it);
  fn();
}

void CheckpointManager::checkpointPe(PeInstance& pe, std::function<void()> done,
                                     std::shared_ptr<AckBarrier> barrier) {
  if (stopped_ || !subjob_.alive() || pe.terminated() ||
      in_progress_.count(&pe) != 0 || pe.paused()) {
    if (done) done();
    return;
  }
  // Pin the ack-release epoch this pipeline was started under. If an atomic
  // re-persist bumps it mid-flight, this pipeline's state predates the
  // adoption and its confirm must not trim upstream.
  const std::uint64_t ackEpoch = ack_epoch_;
  const std::uint64_t token = ++attempt_counter_;
  in_progress_[&pe] = token;
  if (params_.confirmTimeout > 0) {
    // Wrap `done` so whichever of {confirm arrival, timeout} fires first wins
    // and the other becomes a no-op. The timeout path releases no acks -- it
    // only unblocks the PE for a future checkpoint attempt. The token guard
    // keeps the erase scoped to *this* attempt: by the time the timer fires a
    // newer attempt may own the entry.
    auto finished = std::make_shared<bool>(false);
    auto doneShared = std::make_shared<std::function<void()>>(std::move(done));
    done = [finished, doneShared] {
      if (*finished) return;
      *finished = true;
      if (*doneShared) (*doneShared)();
    };
    PeInstance* peGuard = &pe;
    sim_.schedule(params_.confirmTimeout,
                  [this, peGuard, token, finished, doneShared] {
                    if (*finished) return;
                    *finished = true;
                    retireAttempt(peGuard, token);
                    if (*doneShared) (*doneShared)();
                  });
  }
  const SimTime started = sim_.now();
  recordCheckpointEvent(net_.trace(), TraceEventType::kCheckpointBegin, started,
                        subjob_.machine().id(), subjob_.logicalId(),
                        static_cast<std::uint64_t>(pe.logicalId()) + 1, 0);
  PeInstance* pePtr = &pe;
  pause_waiters_[pePtr] = [this, pePtr, started, token, barrier, ackEpoch,
                           done = std::move(done)] {
    // Delta mode does not serialize the PE: it reads the chunks written
    // since the confirmed base, while the PE is still paused.
    const bool delta = store_.deltaEnabled();
    PeState state = pePtr->checkpoint(true, includesInputQueues(), !delta);
    std::optional<DeltaAttempt> attempt;
    if (delta) attempt = captureDelta(*pePtr, std::move(state));
    pePtr->resume();
    stats_.pauseMs.add(toMillis(sim_.now() - started));
    shipPe(pePtr, std::move(state), std::move(attempt), started, token, done,
           barrier, ackEpoch);
  };
  pe.pause(*this);
}

void CheckpointManager::ship(std::uint64_t bytes, std::uint64_t elements,
                             std::uint64_t traceValue, SimTime startedAt,
                             Land land, std::function<void()> confirmed) {
  const MachineId srcMachine = subjob_.machine().id();
  const MachineId storeMachine = store_.machine().id();
  const double serializeWork =
      kSerializeWorkUsPerKb * static_cast<double>(bytes) / 1024.0;
  // Every hop moves the payload and the confirm tail along: nothing here
  // copies a state (an injected duplicate copies its own closure).
  subjob_.machine().submitData(serializeWork, [this, bytes, elements,
                                               traceValue, startedAt,
                                               srcMachine, storeMachine,
                                               land = std::move(land),
                                               confirmed = std::move(
                                                   confirmed)]() mutable {
    // Ship and confirm ride the reliable control-plane path: under a lossy
    // network both legs are retried until acked (plain send when ARQ is off).
    net_.sendReliable(
        srcMachine, storeMachine, MsgKind::kCheckpoint, bytes, elements,
        [this, bytes, elements, traceValue, startedAt, srcMachine,
         storeMachine, land = std::move(land),
         confirmed = std::move(confirmed)]() mutable {
          land([this, bytes, elements, traceValue, startedAt, srcMachine,
                storeMachine, confirmed = std::move(confirmed)]() mutable {
            // Durable: confirm back to the primary.
            net_.sendReliable(
                storeMachine, srcMachine, MsgKind::kControl, kConfirmBytes, 0,
                [this, bytes, elements, traceValue, startedAt, srcMachine,
                 confirmed = std::move(confirmed)] {
                  stats_.checkpoints += 1;
                  stats_.bytes += bytes;
                  stats_.elements += elements;
                  stats_.latencyMs.add(toMillis(sim_.now() - startedAt));
                  recordCheckpointEvent(net_.trace(),
                                        TraceEventType::kCheckpointEnd,
                                        sim_.now(), srcMachine,
                                        subjob_.logicalId(), traceValue,
                                        bytes);
                  confirmed();
                });
          });
        });
  });
}

CheckpointManager::DeltaAttempt CheckpointManager::captureDelta(
    PeInstance& pe, PeState captured) {
  DeltaAttempt attempt;
  const auto baseIt = delta_base_.find(pe.logicalId());
  if (baseIt != delta_base_.end()) attempt.base = baseIt->second;
  attempt.mark = pe.logic().markWrites();
  // `captured` holds no internal state, so the full size adds the blob's.
  const std::uint64_t queueBytes = captured.sizeBytes();
  attempt.delta = std::make_shared<const PeStateDelta>(
      encodeWrittenDelta(attempt.base.get(), pe.logic(), std::move(captured),
                         store_.deltaParams().chunkBytes));
  attempt.fullBytes = queueBytes + attempt.delta->internalSize;
  return attempt;
}

void CheckpointManager::advanceDeltaBase(DeltaAttempt& attempt) {
  const PeStateDelta& delta = *attempt.delta;
  std::shared_ptr<DeltaBase>& shadow = delta_base_[delta.pe];
  if (shadow != nullptr && shadow->version >= delta.version) return;
  // Patch the attempt's own base in place when nothing else holds it. A
  // newer attempt holds it too when this confirm comes after its
  // confirm-timeout; that one's confirm still needs the base unpatched.
  std::shared_ptr<DeltaBase> next = std::move(attempt.base);
  shadow.reset();
  if (next == nullptr) {
    next = std::make_shared<DeltaBase>();
  } else if (next.use_count() > 1) {
    next = std::make_shared<DeltaBase>(*next);
  }
  applyDeltaChunks(next->internal, delta);
  next->version = delta.version;
  next->mark = attempt.mark;
  shadow = std::move(next);
}

void CheckpointManager::shipPe(PeInstance* pe, PeState state,
                               std::optional<DeltaAttempt> attempt,
                               SimTime startedAt, std::uint64_t token,
                               std::function<void()> done,
                               std::shared_ptr<AckBarrier> barrier,
                               std::uint64_t ackEpoch) {
  const SubjobId subjobId = subjob_.logicalId();
  Acks acks;
  std::uint64_t bytes = 0;
  std::uint64_t elements = 0;
  Land land;
  if (attempt) {
    // Ship only the chunks that changed since the last confirmed base. The
    // simulated serialization CPU cost scales with the delta, not the full
    // state: it models a keyed runtime that knows its dirty chunks from
    // write tracking, which is how the simulator finds them too
    // (PeLogic::writtenChunks).
    const PeStateDelta& delta = *attempt->delta;
    acks = ackWatermarks(delta);
    bytes = delta.sizeBytes();
    elements = delta.sizeElements();
    StateTelemetry& telemetry = store_.telemetry();
    telemetry.deltaShips += 1;
    telemetry.deltaShipBytes += bytes;
    telemetry.deltaFullBytes += attempt->fullBytes;
    telemetry.deltaChunksShipped += delta.chunks.size();
    if (net_.trace() != nullptr) {
      TraceEvent ev;
      ev.type = TraceEventType::kDeltaShip;
      ev.at = sim_.now();
      ev.machine = subjob_.machine().id();
      ev.peer = store_.machine().id();
      ev.subjob = subjobId;
      ev.value = bytes;
      ev.aux = attempt->fullBytes;
      net_.trace()->record(ev);
    }
    // A base miss never confirms; the confirm-timeout retires the attempt.
    land = [this, subjobId, delta = attempt->delta](
               std::function<void()> onDurable) {
      store_.storePeDelta(subjobId, *delta, std::move(onDurable));
    };
  } else {
    acks = ackWatermarks(state);
    bytes = state.sizeBytes();
    elements = state.sizeElements();
    land = [this, subjobId, state = std::move(state)](
               std::function<void()> onDurable) mutable {
      store_.storePeState(subjobId, std::move(state), std::move(onDurable));
    };
  }
  ship(bytes, elements, static_cast<std::uint64_t>(pe->logicalId()) + 1,
       startedAt, std::move(land),
       [this, pe, token, acks = std::move(acks), ackEpoch,
        barrier = std::move(barrier), done = std::move(done),
        attempt = std::move(attempt)]() mutable {
         // The confirmed state becomes the base the next delta is encoded
         // against. Advance even on a stale attempt token: a late confirm
         // still proves the store holds this version, which is what
         // un-sticks a shadow that fell behind after a timeout abandonment.
         // Each copy of this closure owns its attempt and runs at most once.
         if (attempt) advanceDeltaBase(*attempt);
         // A confirm arriving after its confirm-timeout abandoned the
         // attempt finds a newer token (or none) and must leave it alone.
         if (!retireAttempt(pe, token)) stats_.staleConfirms += 1;
         releaseAcks(*pe, acks, ackEpoch, barrier.get());
         if (done) done();
       });
}

bool CheckpointManager::retireAttempt(PeInstance* pe, std::uint64_t token) {
  auto it = in_progress_.find(pe);
  if (it == in_progress_.end() || it->second != token) return false;
  in_progress_.erase(it);
  return true;
}

void CheckpointManager::releaseAcks(PeInstance& pe, const Acks& acks,
                                    std::uint64_t ackEpoch,
                                    AckBarrier* barrier) {
  // A fenced (stopped) manager must not advance upstream trim points
  // anymore, and neither may a pipeline whose ack epoch a rollback
  // re-persist has since outdated.
  if (stopped_ || pe.terminated() || ackEpoch != ack_epoch_) return;
  if (barrier == nullptr) {
    pe.input().flushAcks(acks);
  } else if (!barrier->resolved) {
    barrier->held.emplace_back(&pe, acks);
  }
}

void CheckpointManager::checkpointAllNow(std::function<void()> done,
                                         bool atomic) {
  const std::size_t count = subjob_.peCount();
  if (count == 0) {
    if (done) done();
    return;
  }
  std::shared_ptr<AckBarrier> barrier;
  if (atomic) {
    // Fence every pipeline already in flight: their state predates this
    // re-persist, so their late confirms must not release acks.
    ++ack_epoch_;
    barrier = std::make_shared<AckBarrier>();
    barrier->expected = count;
    barrier->epoch = ack_epoch_;
  }
  auto remaining = std::make_shared<std::size_t>(count);
  auto doneShared = std::make_shared<std::function<void()>>(std::move(done));
  for (std::size_t i = 0; i < count; ++i) {
    checkpointPe(
        subjob_.pe(i),
        [this, remaining, doneShared, barrier] {
          if (--*remaining != 0) return;
          if (barrier != nullptr) resolveAtomicBarrier(*barrier);
          if (*doneShared) (*doneShared)();
        },
        barrier);
  }
}

void CheckpointManager::resolveAtomicBarrier(AckBarrier& barrier) {
  if (barrier.resolved) return;
  barrier.resolved = true;
  // All-or-nothing: release the held acks only if every PE's re-persist
  // confirmed durable (a pipeline that could not start, timed out, or was
  // fenced leaves `held` short) and nothing outdated the barrier meanwhile.
  // Withholding is always safe -- trim just waits for the next checkpoint.
  if (barrier.held.size() == barrier.expected) {
    for (auto& [pe, acks] : barrier.held) {
      releaseAcks(*pe, acks, barrier.epoch, nullptr);
    }
  }
  barrier.held.clear();
}

void CheckpointManager::checkpointSubjobGrouped(std::function<void()> done) {
  if (stopped_ || !subjob_.alive()) {
    if (done) done();
    return;
  }
  const SimTime started = sim_.now();
  recordCheckpointEvent(net_.trace(), TraceEventType::kCheckpointBegin, started,
                        subjob_.machine().id(), subjob_.logicalId(), 0, 0);
  auto awaiting = std::make_shared<std::size_t>(0);
  auto proceed = std::make_shared<std::function<void()>>();
  *proceed = [this, started, done = std::move(done)]() mutable {
    // All PEs paused: capture one combined state, resume everything. Pin the
    // ack-release epoch at capture time -- an atomic re-persist bumping it
    // later means this state predates a rollback adoption.
    const std::uint64_t ackEpoch = ack_epoch_;
    SubjobState state = subjob_.captureState(true, includesInputQueues());
    for (std::size_t i = 0; i < subjob_.peCount(); ++i) {
      subjob_.pe(i).resume();
    }
    stats_.pauseMs.add(toMillis(sim_.now() - started));
    std::vector<std::pair<LogicalPeId, Acks>> acks;
    for (const auto& [peId, peState] : state.pes) {
      acks.emplace_back(peId, ackWatermarks(peState));
    }
    const std::uint64_t bytes = state.sizeBytes();
    const std::uint64_t elements = state.sizeElements();
    ship(bytes, elements, 0, started,
         [this, state = std::move(state)](std::function<void()> onDurable) {
           store_.storeSubjobState(state, std::move(onDurable));
         },
         [this, acks = std::move(acks), ackEpoch, done = std::move(done)] {
           for (const auto& [peId, peAcks] : acks) {
             if (PeInstance* pe = subjob_.peByLogicalId(peId)) {
               releaseAcks(*pe, peAcks, ackEpoch, nullptr);
             }
           }
           if (done) done();
         });
  };
  // Pause every PE; the last ack triggers `proceed`.
  *awaiting = subjob_.peCount();
  for (std::size_t i = 0; i < subjob_.peCount(); ++i) {
    PeInstance& pe = subjob_.pe(i);
    if (pe.paused()) {
      if (--*awaiting == 0) (*proceed)();
      continue;
    }
    pause_waiters_[&pe] = [awaiting, proceed] {
      if (--*awaiting == 0) (*proceed)();
    };
    pe.pause(*this);
  }
}

// ---------------------------------------------------------------------------
// SubjobQuiescer
// ---------------------------------------------------------------------------

void SubjobQuiescer::quiesce(Subjob& subjob, std::function<void()> done) {
  assert(subjob_ == nullptr && "quiescer already active");
  subjob_ = &subjob;
  done_ = std::move(done);
  awaiting_ = subjob.peCount();
  if (awaiting_ == 0) {
    auto fn = std::move(done_);
    if (fn) fn();
    return;
  }
  for (std::size_t i = 0; i < subjob.peCount(); ++i) {
    PeInstance& pe = subjob.pe(i);
    if (pe.paused()) {
      ackPePause(pe);
    } else {
      pe.pause(*this);
    }
  }
}

void SubjobQuiescer::ackPePause(PeInstance&) {
  if (awaiting_ == 0) return;
  if (--awaiting_ == 0 && done_) {
    auto fn = std::move(done_);
    fn();
  }
}

void SubjobQuiescer::release() {
  if (subjob_ == nullptr) return;
  for (std::size_t i = 0; i < subjob_->peCount(); ++i) {
    subjob_->pe(i).resume();
  }
  subjob_ = nullptr;
  awaiting_ = 0;
  done_ = nullptr;
}

}  // namespace streamha
