// Processing elements.
//
// A PeInstance is one physical deployment of a logical PE on a machine. It
// pulls elements from its InputQueue, runs its PeLogic on the machine's data
// server (consuming simulated CPU), and emits derived elements into its
// OutputQueues.
//
// The instance exposes the exact control interfaces the paper requires of
// PEs: pause(controller) / ackPePause / checkpoint() / resume() for the
// checkpoint managers, storeJobState(jobState) for in-memory state refresh on
// a Hybrid secondary, and a suspension flag that stops the processing loop
// ("The PE's processing loop is stopped when a flag is set to indicate
// suspension. When we switch over to active standby, we only need to reset
// the flag to resume the processing loop.").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "checkpoint/state.hpp"
#include "cluster/machine.hpp"
#include "common/types.hpp"
#include "net/network.hpp"
#include "state/delta.hpp"
#include "stream/queues.hpp"

namespace streamha {

class PeInstance;

/// User-provided processing logic. Implementations must be deterministic for
/// the exactly-once guarantees to extend to results (non-deterministic logic
/// still loses no data, but replicas may produce different values).
class PeLogic {
 public:
  struct Emit {
    int port = 0;
    std::uint64_t value = 0;
    std::uint32_t payloadBytes = 0;  ///< 0: use the PE's default payload size.
  };

  virtual ~PeLogic() = default;

  /// Process one element, appending any derived elements to `out`.
  virtual void process(const Element& in, std::vector<Emit>& out) = 0;

  /// Serialize the internal state ("variables that affect the output", not
  /// the memory image).
  virtual std::vector<std::uint8_t> serialize() const = 0;
  virtual void deserialize(const std::vector<std::uint8_t>& bytes) = 0;

  /// Reset to the initial (empty) state.
  virtual void reset() = 0;

  // -- Write tracking (delta checkpoints) -------------------------------------
  // The delta pipeline reads the state through these instead of serialize():
  // it reads and compares only the chunks written since its base's mark. The
  // defaults track nothing: every chunk counts as written, a read slices one
  // serialize(), and a patch is declined.

  /// Take a mark when a checkpoint captures the state; writtenChunks() takes
  /// it back to mean "since that capture".
  virtual std::uint64_t markWrites() { return 0; }

  /// Appends to `out`, ascending, the index of every `chunkBytes` chunk of
  /// serialize()'s output that may have been written since `mark`, and
  /// returns the size of that output.
  virtual std::size_t writtenChunks(std::uint64_t mark,
                                    std::uint32_t chunkBytes,
                                    std::vector<std::uint32_t>& out) const;

  /// Copies `out.size()` bytes of serialize()'s output, from `offset` on.
  virtual void readSerialized(std::size_t offset,
                              std::span<std::uint8_t> out) const;

  /// Overwrites the delta's chunks in the live state, which must hold the
  /// delta's base, so that it ends as deserialize() of the patched blob would
  /// leave it. Returns false, changing nothing, when the caller has to
  /// deserialize the whole blob instead.
  virtual bool patchSerialized(const PeStateDelta& /*delta*/) { return false; }
};

/// Built-in logic with tunable selectivity and state size; used by the
/// paper-reproduction experiments ("Inside the processing loop of each PE,
/// there is code that performs some synthesized computation. The PE
/// selectivity is 1.").
class SyntheticLogic : public PeLogic {
 public:
  explicit SyntheticLogic(double selectivity = 1.0,
                          std::size_t stateBytes = 2000);

  void process(const Element& in, std::vector<Emit>& out) override;
  std::vector<std::uint8_t> serialize() const override;
  void deserialize(const std::vector<std::uint8_t>& bytes) override;
  void reset() override;

  std::uint64_t processedCount() const { return count_; }
  std::uint64_t checksum() const { return checksum_; }

 private:
  double selectivity_;
  std::size_t state_bytes_;
  std::uint64_t count_ = 0;
  std::uint64_t checksum_ = 0;
  double carry_ = 0.0;  ///< Fractional-selectivity accumulator.
};

/// Keyed aggregation logic: the state is a table of fixed-size key regions
/// and each processed element updates exactly one region (key = seq mod key
/// count). Between two checkpoints only the touched regions differ, so the
/// serialized blob is chunk-diff friendly -- the workload delta checkpointing
/// (state/delta.hpp) is built for. SyntheticLogic, by contrast, derives its
/// whole body from the running checksum, so every checkpoint rewrites every
/// byte and deltas degenerate to full copies.
///
/// It tracks its writes: each key carries the epoch of its last write, so a
/// delta checkpoint reads the header chunk and the chunks of the keys written
/// since its base, and a replica that still holds a delta's base takes the
/// delta's chunks as a patch. The epochs are allocated at the first mark, so
/// a copy that is never checkpointed in delta mode (a replica) pays nothing.
class KeyedStateLogic : public PeLogic {
 public:
  KeyedStateLogic(double selectivity, std::size_t stateBytes,
                  std::size_t keyBytes);

  void process(const Element& in, std::vector<Emit>& out) override;
  std::vector<std::uint8_t> serialize() const override;
  void deserialize(const std::vector<std::uint8_t>& bytes) override;
  void reset() override;

  std::uint64_t markWrites() override;
  std::size_t writtenChunks(std::uint64_t mark, std::uint32_t chunkBytes,
                            std::vector<std::uint32_t>& out) const override;
  void readSerialized(std::size_t offset,
                      std::span<std::uint8_t> out) const override;
  bool patchSerialized(const PeStateDelta& delta) override;

  std::uint64_t processedCount() const { return count_; }

 private:
  /// count, checksum and carry precede the key regions.
  static constexpr std::size_t kHeaderBytes = 24;
  void writeHeader(std::uint8_t* out) const;
  void readHeader(const std::uint8_t* in);
  /// Records a write of keys [first, last].
  void noteWritten(std::size_t first, std::size_t last);

  double selectivity_;
  std::size_t key_bytes_;
  std::size_t key_count_;
  std::vector<std::uint8_t> state_;  ///< key_count_ regions of key_bytes_.
  std::uint64_t count_ = 0;
  std::uint64_t checksum_ = 0;
  double carry_ = 0.0;
  /// Per key, the write epoch of its last write; empty until the first mark.
  /// markWrites() returns the current epoch and starts the next one.
  std::vector<std::uint64_t> written_;
  std::uint64_t write_epoch_ = 0;
};

/// Callback interface handed to PeInstance::pause(); the paper's Checkpoint
/// Manager implements it ("When the PE has suspended, it calls the
/// ackPePause() method of the CM.").
class CheckpointController {
 public:
  virtual ~CheckpointController() = default;
  virtual void ackPePause(PeInstance& pe) = 0;
};

struct PeParams {
  LogicalPeId logicalId = -1;
  std::string name;
  double workPerElementUs = 300.0;
  std::vector<StreamId> outputStreams;  ///< One logical stream per port.
  std::uint32_t outputPayloadBytes = 100;
};

/// How a PE acknowledges its upstream output queues.
enum class AckPolicy : std::uint8_t {
  /// Ack as soon as an element is processed (NONE / active standby: there is
  /// no checkpoint to wait for). Flushed by the subjob's ack timer.
  kOnProcess,
  /// Acks are sent by the checkpoint manager only after the state reflecting
  /// the processing has been checkpointed (passive standby / hybrid).
  kOnCheckpoint,
};

class PeInstance {
 public:
  PeInstance(Machine& machine, Network& net, PeParams params,
             std::unique_ptr<PeLogic> logic);
  PeInstance(const PeInstance&) = delete;
  PeInstance& operator=(const PeInstance&) = delete;

  LogicalPeId logicalId() const { return params_.logicalId; }
  const std::string& name() const { return params_.name; }
  Machine& machine() { return machine_; }
  const PeParams& params() const { return params_; }

  InputQueue& input() { return input_; }
  OutputQueue& output(std::size_t port = 0) { return *outputs_.at(port); }
  std::size_t portCount() const { return outputs_.size(); }
  PeLogic& logic() { return *logic_; }

  // -- Paper control interfaces ---------------------------------------------

  /// Request quiescence at an element boundary; `controller.ackPePause(*this)`
  /// fires once the in-flight element (if any) completes.
  void pause(CheckpointController& controller);

  /// Resume after a pause() (checkpoint finished).
  void resume();
  bool paused() const { return paused_; }

  /// Withdraw a pause() issued by `controller` that has not completed its
  /// checkpoint. Without this, a checkpoint manager retired mid-handshake
  /// (standby redeploy under churn) leaves the request to complete into
  /// enterPaused() with nobody left to resume the processing loop.
  void cancelPause(const CheckpointController& controller);

  /// Capture checkpoint state. Output/input queue inclusion depends on the
  /// checkpointing variant (sweeping excludes input queues). Without
  /// `includeInternal` the logic is not serialized and `internal` stays
  /// empty: a delta checkpoint reads the logic's written chunks instead.
  PeState checkpoint(bool includeOutputQueues, bool includeInputQueue,
                     bool includeInternal = true) const;

  /// Like checkpoint(), but read-only: the version is NOT bumped (the state
  /// carries the current checkpoint version). Used by the delta-aware
  /// rollback restore to learn what the recovering primary already holds
  /// without perturbing the version sequence.
  PeState peekState(bool includeOutputQueues, bool includeInputQueue,
                    bool includeInternal = true) const;

  /// Overwrite state from a checkpoint or state-read ("Our PE implementation
  /// has an interface named storeJobState(jobState) to overwrite the old
  /// state with the new one."). Resets the input streams (dedup point and
  /// ack record) to the restored watermarks and restores output queues;
  /// stale pending input at or below the watermark is dropped. `patch`, when
  /// given, is the delta that produced `state` from the base this PE holds
  /// (the caller checks): the logic patches its chunks, or declines and
  /// deserializes `state.internal` as without it.
  void storeJobState(const PeState& state,
                     const PeStateDelta* patch = nullptr);

  // -- Standby suspension -----------------------------------------------------

  void suspend();
  void unsuspend();
  bool suspended() const { return suspended_; }

  /// Permanently stop (old primary shut down after a PS migration). Also
  /// disarms the input queue's ack resend.
  void terminate();
  bool terminated() const { return terminated_; }

  // -- Acknowledgments --------------------------------------------------------

  /// Acks themselves go through input().flushAcks (see InputQueue).
  void setAckPolicy(AckPolicy policy) { ack_policy_ = policy; }
  AckPolicy ackPolicy() const { return ack_policy_; }

  // -- Introspection ----------------------------------------------------------

  std::uint64_t processedCount() const { return processed_count_; }
  /// Counts the writes to the logic's state: processed elements and
  /// storeJobState loads. Equal counts mean nothing changed the state.
  std::uint64_t stateWrites() const { return state_writes_; }
  const std::map<StreamId, ElementSeq>& watermarks() const { return watermarks_; }
  bool inFlight() const { return in_flight_; }

  /// Poke the processing loop (wired as the input queue arrival listener).
  void maybeSchedule();

  /// flow/: whether any output port's backpressure gate is closed. The
  /// processing loop checks this before pulling the next element, so
  /// downstream congestion (an unacked backlog past the gate's threshold)
  /// stalls this PE and, through its own input queue filling up, propagates
  /// toward the source. Always false while flow control is off.
  bool outputsBlocked() const;

 private:
  void onProcessed(std::uint64_t epoch);
  void enterPaused();

  Machine& machine_;
  PeParams params_;
  std::unique_ptr<PeLogic> logic_;
  InputQueue input_;
  std::vector<std::unique_ptr<OutputQueue>> outputs_;

  bool suspended_ = false;
  bool paused_ = false;
  bool pause_requested_ = false;
  CheckpointController* pause_controller_ = nullptr;
  bool terminated_ = false;
  bool in_flight_ = false;
  std::uint64_t epoch_ = 0;

  AckPolicy ack_policy_ = AckPolicy::kOnProcess;
  std::map<StreamId, ElementSeq> watermarks_;      ///< Processed, per stream.
  std::uint64_t processed_count_ = 0;
  std::uint64_t state_writes_ = 0;
  std::uint64_t checkpoint_version_ = 0;
  std::vector<PeLogic::Emit> scratch_emits_;
};

}  // namespace streamha
