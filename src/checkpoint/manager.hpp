// Checkpoint managers.
//
// A CheckpointManager drives the checkpointing of one (primary) subjob
// instance following the paper's CM protocol: it calls a PE's
// pause(controller) method; the PE calls back ackPePause() once quiesced; the
// CM captures the PE state via checkpoint(), resumes the PE, pays the
// serialization CPU cost, ships the state to the standby StateStore, and --
// once the state is durable -- releases the PE's accumulative acks upstream
// (which is what lets upstream output queues trim).
//
// Three variants (Section III of the paper):
//  * SweepingCheckpointManager  -- checkpoint = internal state + output
//    queues; triggered by output-queue trim events, rate-limited by the
//    checkpoint interval. Acks carry the *processed* watermark.
//  * SynchronousCheckpointManager -- one subjob-wide timer suspends all PEs
//    together and ships one combined state including input queues. Acks
//    carry the *received* watermark (the persisted backlog is covered).
//  * IndividualCheckpointManager -- a timer per PE, conventional content.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "checkpoint/store.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "net/network.hpp"
#include "sim/timer.hpp"
#include "stream/subjob.hpp"

namespace streamha {

/// Delta mode: the base a PE's next delta is encoded against -- its
/// serialized internal state at `version` -- and the write mark
/// (PeLogic::markWrites) taken when that state was captured.
struct DeltaBase {
  std::uint64_t version = 0;
  std::uint64_t mark = 0;
  std::vector<std::uint8_t> internal;
};

/// encodeDelta for a PE whose internal state stays in its logic. `captured`
/// is the rest of the state (PeInstance::checkpoint without the internal
/// state); it moves into the delta. Reads from `logic` only the chunks
/// written since `base->mark` -- every chunk when `base` is null (the empty
/// base) or sized differently -- and ships those that differ from the base:
/// exactly the chunks encodeDelta(base, next, chunkBytes) ships, with `next`
/// the captured state holding the logic's serialize().
PeStateDelta encodeWrittenDelta(const DeltaBase* base, const PeLogic& logic,
                                PeState captured, std::uint32_t chunkBytes);

class CheckpointManager : public CheckpointController {
 public:
  struct Params {
    SimDuration interval = 50 * kMillisecond;
    /// Liveness guard for lossy-transport runs: if the durable-confirm for a
    /// per-PE checkpoint has not arrived after this long, the manager gives
    /// up on that pipeline (no acks are released) so the PE can checkpoint
    /// again later. 0 (the default) disables the guard -- on reliable
    /// transport the confirm always arrives and the extra timer events would
    /// perturb baseline traces.
    SimDuration confirmTimeout = 0;
  };

  struct Stats {
    std::uint64_t checkpoints = 0;
    std::uint64_t bytes = 0;
    std::uint64_t elements = 0;
    /// Confirms that arrived after the confirm-timeout had already abandoned
    /// their attempt. Each one is an interleaving that, before per-attempt
    /// tokens, would have erased a *newer* pipeline's in_progress_ entry.
    std::uint64_t staleConfirms = 0;
    RunningStats latencyMs;  ///< pause -> durable (incl. network + store).
    RunningStats pauseMs;    ///< How long PEs were held paused.
  };

  CheckpointManager(Simulator& sim, Network& net, Subjob& subjob,
                    StateStore& store, Params params);
  ~CheckpointManager() override;

  virtual void start() = 0;
  /// Fences the manager: pending pauses are abandoned and in-flight
  /// checkpoint pipelines complete without releasing acks (a failover must
  /// not let the abandoned primary keep advancing upstream trim points past
  /// the state the standby restored).
  virtual void stop();
  bool stopped() const { return stopped_; }
  virtual const char* name() const = 0;
  /// Conventional variants persist input queues; sweeping does not.
  virtual bool includesInputQueues() const = 0;

  void ackPePause(PeInstance& pe) override;

  /// Checkpoint every PE immediately (Hybrid rollback re-persists the state
  /// adopted from the secondary). `done` runs when all are durable.
  ///
  /// `atomic` makes the upstream ack release all-or-nothing across the
  /// subjob's PEs: no PE's acks are flushed until *every* PE's re-persist is
  /// confirmed durable, and if any pipeline is abandoned (confirm timeout,
  /// stop fence, a PE that could not start) none are released. Atomic mode
  /// also fences every pipeline already in flight: those captured
  /// pre-adoption state whose watermarks can run ahead of the state being
  /// re-persisted, and letting their late confirms trim upstream would strand
  /// the adopted copy without the elements it still has to reprocess (the
  /// gray-seed-34 quarantine data loss).
  void checkpointAllNow(std::function<void()> done, bool atomic = false);

  /// Delta mode: forget the per-PE confirmed bases, so the next ship of each
  /// PE is a full-coverage (base 0) delta. Called after rollback adopts
  /// state from the secondary -- the store's applied versions and the
  /// manager's shadow may disagree there, and a base-0 ship is always
  /// applicable under the store's freshness guard.
  void resetDeltaBase() { delta_base_.clear(); }

  const Stats& stats() const { return stats_; }
  Subjob& subjob() { return subjob_; }

  /// White-box hooks for the confirm-token regression tests.
  std::size_t inFlightCheckpoints() const { return in_progress_.size(); }
  bool checkpointInFlight(PeInstance& pe) const {
    return in_progress_.count(&pe) != 0;
  }

 protected:
  using Acks = std::map<StreamId, ElementSeq>;

  /// All-or-nothing ack release for an atomic checkpointAllNow(): confirms
  /// park their acks in `held` instead of flushing, and the barrier flushes
  /// everything at once only if every expected pipeline confirmed durable
  /// under the epoch it was created in. A torn barrier (timeout, stop fence,
  /// epoch bump) releases nothing -- withholding acks is always safe, it just
  /// delays upstream trim until the next periodic checkpoint.
  struct AckBarrier {
    std::size_t expected = 0;
    std::uint64_t epoch = 0;
    bool resolved = false;
    std::vector<std::pair<PeInstance*, Acks>> held;
  };

  /// Full checkpoint pipeline for one PE. With a barrier, the durable-confirm
  /// parks its acks there instead of flushing them directly.
  void checkpointPe(PeInstance& pe, std::function<void()> done,
                    std::shared_ptr<AckBarrier> barrier = nullptr);
  /// Synchronous variant: suspend-all, one combined state message.
  void checkpointSubjobGrouped(std::function<void()> done);

  Simulator& sim_;
  Network& net_;
  Subjob& subjob_;
  StateStore& store_;
  Params params_;
  Stats stats_;

 private:
  /// Writes a shipped payload into the store and calls its argument once the
  /// write is durable (never, when the store drops the payload unconfirmed).
  using Land = std::function<void(std::function<void()> onDurable)>;

  /// The CM chain every checkpoint rides, whatever its payload: pay the
  /// serialize CPU on the primary, ship `bytes` to the store machine, `land`
  /// the payload, confirm back, record the stats and kCheckpointEnd (trace
  /// value `traceValue`), then run `confirmed` on the primary.
  void ship(std::uint64_t bytes, std::uint64_t elements,
            std::uint64_t traceValue, SimTime startedAt, Land land,
            std::function<void()> confirmed);
  /// Delta mode: one attempt's delta, read while its PE was paused, and what
  /// its confirm needs to advance the base.
  struct DeltaAttempt {
    /// The base it was encoded against; null: the empty base.
    std::shared_ptr<DeltaBase> base;
    std::shared_ptr<const PeStateDelta> delta;
    std::uint64_t mark = 0;       ///< The write mark of this capture.
    std::uint64_t fullBytes = 0;  ///< The full state's PeState::sizeBytes().
  };
  /// Marks `pe`'s writes and encodes `captured` (no internal state) against
  /// the PE's confirmed base.
  DeltaAttempt captureDelta(PeInstance& pe, PeState captured);
  /// The confirmed state becomes the next base: the attempt's base patched
  /// with its delta, unless the base already holds this version or newer.
  void advanceDeltaBase(DeltaAttempt& attempt);
  /// Per-PE payload: the full `state`, or in delta mode `attempt`'s delta
  /// against the last confirmed base (`state` went into it). Its confirm
  /// advances that base, retires the attempt token and releases the PE's
  /// acks.
  void shipPe(PeInstance* pe, PeState state,
              std::optional<DeltaAttempt> attempt, SimTime startedAt,
              std::uint64_t token, std::function<void()> done,
              std::shared_ptr<AckBarrier> barrier, std::uint64_t ackEpoch);
  /// Only the attempt that started a pipeline may retire its in-flight
  /// entry: erases `pe`'s entry if `token` still owns it, and returns false
  /// when a newer attempt (or none) does.
  bool retireAttempt(PeInstance* pe, std::uint64_t token);
  /// The ack rule (docs/PROTOCOL.md), the one place a durable confirm lets
  /// upstream queues trim: flush `acks` upstream, or park them in `barrier`,
  /// only while the manager is not stopped, `pe` is not terminated and
  /// `ackEpoch` is current.
  void releaseAcks(PeInstance& pe, const Acks& acks, std::uint64_t ackEpoch,
                   AckBarrier* barrier);
  /// The watermarks a durable checkpoint of `state` (a PeState or a
  /// PeStateDelta) may ack: sweeping acks the processed watermark;
  /// conventional variants may ack the received one (their checkpoint
  /// persisted the input backlog too).
  template <typename State>
  const Acks& ackWatermarks(const State& state) const {
    return includesInputQueues() ? state.receivedWatermark
                                 : state.processedWatermark;
  }
  /// Flush (or discard) a completed barrier's held acks.
  void resolveAtomicBarrier(AckBarrier& barrier);

  std::map<PeInstance*, std::function<void()>> pause_waiters_;
  /// Delta mode: the last state per PE whose ship the store confirmed -- the
  /// base the next delta is encoded against. Absent = ship a full-coverage
  /// (base 0) delta. In-flight attempts share their base with this map; a
  /// confirm patches a base in place only when nothing else holds it.
  std::map<LogicalPeId, std::shared_ptr<DeltaBase>> delta_base_;
  /// In-flight pipeline per PE, tagged with its attempt token. A confirm (or
  /// confirm-timeout) may only erase the entry whose token it carries, so a
  /// late confirm from an abandoned attempt can never cancel a newer one.
  std::map<PeInstance*, std::uint64_t> in_progress_;
  std::uint64_t attempt_counter_ = 0;
  /// Ack-release epoch. An atomic checkpointAllNow() bumps it, fencing every
  /// pipeline already in flight: their captured state predates the rollback
  /// adoption, so letting their late confirms flush acks would trim upstream
  /// past elements the adopted copy still has to reprocess.
  std::uint64_t ack_epoch_ = 0;
  bool stopped_ = false;
};

/// Pauses every PE of a subjob (quiesce) and resumes them on release();
/// used for consistent state reads outside a checkpoint manager (Hybrid
/// rollback, AS replacement).
class SubjobQuiescer : public CheckpointController {
 public:
  /// `done` runs once every PE has acknowledged its pause.
  void quiesce(Subjob& subjob, std::function<void()> done);
  void release();
  void ackPePause(PeInstance& pe) override;

 private:
  Subjob* subjob_ = nullptr;
  std::size_t awaiting_ = 0;
  std::function<void()> done_;
};

class SweepingCheckpointManager : public CheckpointManager {
 public:
  using CheckpointManager::CheckpointManager;
  void start() override;
  void stop() override;
  const char* name() const override { return "sweeping"; }
  bool includesInputQueues() const override { return false; }

 private:
  void requestCheckpoint(PeInstance& pe);
  void beginCheckpoint(PeInstance& pe);

  struct PeSchedule {
    SimTime lastStarted = -1;
    bool pending = false;
    EventHandle delayed;
  };
  std::map<PeInstance*, PeSchedule> schedule_;
  std::unique_ptr<PeriodicTimer> fallback_;
};

class SynchronousCheckpointManager : public CheckpointManager {
 public:
  using CheckpointManager::CheckpointManager;
  void start() override;
  void stop() override;
  const char* name() const override { return "synchronous"; }
  bool includesInputQueues() const override { return true; }

 private:
  std::unique_ptr<PeriodicTimer> timer_;
  bool in_progress_flag_ = false;
};

class IndividualCheckpointManager : public CheckpointManager {
 public:
  using CheckpointManager::CheckpointManager;
  void start() override;
  void stop() override;
  const char* name() const override { return "individual"; }
  bool includesInputQueues() const override { return true; }

 private:
  std::vector<std::unique_ptr<PeriodicTimer>> timers_;
};

}  // namespace streamha
