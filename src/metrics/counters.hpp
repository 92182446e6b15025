// End-of-run telemetry structs the scenario harness fills in.
#pragma once

#include <cstdint>

namespace streamha {

/// End-of-run flow-control/ARQ telemetry collected by the scenario harness
/// (flow/ + net/reliable.hpp). All zero when flow control is disabled.
struct FlowTelemetry {
  std::uint64_t pauses = 0;        ///< Pause credits sent to the source.
  std::uint64_t resumes = 0;       ///< Resume credits sent.
  std::uint64_t shedIntervals = 0; ///< Closed contiguous drop spans.
  std::uint64_t elementsShedAccounted = 0;  ///< Elements inside them.
  std::uint64_t arqParked = 0;        ///< Sends parked by a full window.
  std::uint64_t arqUnparked = 0;      ///< Parked sends later transmitted.
  std::uint64_t arqParkedEvicted = 0; ///< Backlog-cap evictions.
  std::uint64_t arqSuperseded = 0;    ///< Keyed sends evicted by newer ones.
  std::uint64_t arqPeakTracked = 0;   ///< Peak in-flight + parked (memory bound).
  bool sourcePausedAtEnd = false;     ///< Source still paused at collection.
};

/// End-of-run gray-failure/flap-damping telemetry aggregated over the HA
/// coordinators (ha/ FlapDamping). All zero when damping is disabled.
struct GrayFailureTelemetry {
  std::uint64_t flapsDetected = 0;  ///< Flap verdicts (cycle budget exceeded).
  std::uint64_t quarantines = 0;    ///< Nodes quarantined.
  std::uint64_t readmissions = 0;   ///< Nodes re-admitted after probing.
  std::uint64_t suspicionCrossings = 0;  ///< Accrual threshold crossings.
  std::uint64_t slowdownsApplied = 0;    ///< Injected slowdown faults.
  std::uint64_t slowdownDelays = 0;      ///< Messages jittered by slowdowns.
};

}  // namespace streamha
