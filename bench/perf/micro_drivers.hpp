// Micro-drivers: the wall-clock cost of one call into a layer's public
// entry point, sized from what the traced workload run observed (heap depth,
// state size, dirty set, cluster size). Each returns the cost per operation
// of the fastest of several repetitions. The traced pass multiplies these by
// the run's operation counts to estimate each layer's share of run time.
#pragma once

#include <cstddef>

namespace streamha::perf {

/// Simulator::schedule + step with `depth` other events pending.
double scheduleFireNs(std::size_t depth);

/// Network::send of one data message plus its delivery.
double sendDeliverNs();

/// Network::sendReliable of one control message: delivery, ARQ ack, retire.
double reliableSendNs();

/// OutputQueue::produce + onAck of one element, delivery included.
double produceAckNs();

/// InputQueue::receive of one element and of its duplicate, then pop.
double receiveDedupNs();

/// serialize + deserialize of one PE's internal state (keyed logic when
/// keyBytes > 0, synthetic otherwise).
double serializeUs(std::size_t stateBytes, std::size_t keyBytes);

struct DeltaCosts {
  double encodeUs = 0;   ///< encodeDelta against the previous state.
  double applyUs = 0;    ///< applyDelta onto the base.
  double compactUs = 0;  ///< DeltaLog::compact of 8 such runs.
};
/// Delta-checkpoint costs at `stateBytes` with `dirtyKeys` regions of
/// `keyBytes` changed per checkpoint interval.
DeltaCosts deltaCosts(std::size_t stateBytes, std::size_t keyBytes,
                      std::size_t dirtyKeys);

/// PlacementPlanner::choose over a `machines`-machine cluster in `racks`
/// racks whose non-primary machines form the pool.
double chooseUs(std::size_t machines, int racks, int primaries);

}  // namespace streamha::perf
