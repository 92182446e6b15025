#include "state/telemetry.hpp"

namespace streamha {

StateTelemetry& StateTelemetry::operator+=(const StateTelemetry& other) {
  deltaShips += other.deltaShips;
  deltaShipBytes += other.deltaShipBytes;
  deltaFullBytes += other.deltaFullBytes;
  deltaChunksShipped += other.deltaChunksShipped;
  deltaApplies += other.deltaApplies;
  staleDeltaDrops += other.staleDeltaDrops;
  baseMisses += other.baseMisses;
  runsAppended += other.runsAppended;
  compactions += other.compactions;
  runsCompacted += other.runsCompacted;
  compactionBytesIn += other.compactionBytesIn;
  compactionBytesOut += other.compactionBytesOut;
  chunksDiscarded += other.chunksDiscarded;
  tierSpills += other.tierSpills;
  bytesWrittenDram += other.bytesWrittenDram;
  bytesWrittenSsd += other.bytesWrittenSsd;
  bytesWrittenHdd += other.bytesWrittenHdd;
  fullRestores += other.fullRestores;
  deltaRestores += other.deltaRestores;
  restoreFullBytes += other.restoreFullBytes;
  restoreDeltaBytes += other.restoreDeltaBytes;
  return *this;
}

}  // namespace streamha
