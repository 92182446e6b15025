// The job's terminal consumer.
//
// Records end-to-end element delay and acknowledges receipt every
// kAckFlushInterval through its input queue's ack ledger (a sink has no
// downstream, so its data never needs to be replayed; its acks are what
// start the sweeping-checkpoint cascade at the tail of the chain).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "cluster/machine.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "sim/timer.hpp"
#include "stream/queues.hpp"

namespace streamha {

class Sink {
 public:
  Sink(Simulator& sim, Machine& machine);
  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;

  InputQueue& input() { return input_; }
  MachineId machineId() const { return machine_.id(); }

  /// Subscribe to a logical stream.
  void subscribe(StreamId stream);

  /// Start the periodic ack flush.
  void start();
  void stop();

  std::uint64_t receivedCount() const { return received_; }

  /// Delay samples in milliseconds, in arrival order, built from series().
  SampleSet delays() const;

  /// Arrival-stamped delay series (simulated time, delay ms).
  const std::vector<std::pair<SimTime, double>>& series() const {
    return series_;
  }

  /// Mean delay (ms) of elements that arrived inside [from, to).
  double meanDelayBetween(SimTime from, SimTime to) const;

  /// Highest contiguous sequence received per stream.
  ElementSeq highestSeq(StreamId stream) const { return input_.expected(stream) - 1; }

  /// Deterministic checksum over received values (for replica-equivalence
  /// tests).
  std::uint64_t valueChecksum() const { return checksum_; }

  /// Reset delay statistics (e.g. after a warm-up period).
  void resetStats();

 private:
  void drain();

  Simulator& sim_;
  Machine& machine_;
  InputQueue input_;
  PeriodicTimer ack_timer_;
  std::uint64_t received_ = 0;
  std::uint64_t checksum_ = 0;
  std::vector<std::pair<SimTime, double>> series_;
  std::map<StreamId, ElementSeq> watermarks_;
};

}  // namespace streamha
