// End-to-end backpressure and accounted shedding.
//
// FlowControl is the subsystem glue over the per-component mechanisms:
//
//  * InputQueue pressure thresholds (queues.hpp): a PE input queue crossing
//    `pauseThreshold` pending elements turns overloaded; FlowControl
//    refcounts overloaded queues cluster-wide and, on the 0 -> 1 edge, sends
//    the source a *pause credit* (a reliable control message); on the final
//    drain it sends a *resume credit*. Credits carry a monotonic sequence so
//    reordered delivery cannot wedge the source (stream/source.hpp).
//
//  * OutputQueue backpressure gates (queues.hpp): a producer whose unacked
//    backlog to live consumers exceeds `outputPauseBacklog` blocks its PE's
//    processing loop (pe.hpp consults flowBlocked() before scheduling). The
//    stalled PE stops draining its own input queue, which crosses the input
//    threshold in turn -- congestion anywhere propagates hop by hop back to
//    the source instead of ballooning queues silently.
//
//  * Accounted shedding: when shedding is enabled, every shed element is
//    folded into per-stream contiguous drop intervals and recorded as
//    kShedBegin/kShedEnd trace events, so the timeline analyzer and the
//    bounded-loss oracle can check the loss contract element by element.
//
// HA interplay: Subjob::releaseFlowPressure()/pokeFlowPressure() keep the
// overload flags honest across switchover, rollback and promotion (a dormant
// copy's backlog must not pin the source paused; an activated standby's
// backlog must throttle it).
//
// Each pressure signal clears at half its threshold. Everything is off by
// default: a FlowParams with every field 0 arms nothing, and fault-free runs
// stay bit-identical.
#pragma once

#include <cstdint>
#include <map>
#include <tuple>

#include "common/types.hpp"

namespace streamha {

class Runtime;
class Subjob;

namespace flow {

struct FlowParams {
  /// ARQ send window, forwarded into ReliableParams by the scenario harness
  /// (see net/reliable.hpp).
  std::size_t sendWindow = 0;
  /// PE input-queue depth that raises overload (0 = input pressure off).
  std::size_t pauseThreshold = 0;
  /// Producer unacked-backlog that blocks the PE emit path (0 = off).
  std::size_t outputPauseBacklog = 0;
  /// Shed threshold applied to every adopted input queue, copies
  /// instantiated mid-run included (0 = no shedding). Every shed element is
  /// accounted into a shed interval.
  std::size_t shedThreshold = 0;

  /// Flow control is armed when any field is nonzero.
  bool armed() const {
    return sendWindow != 0 || pauseThreshold != 0 || outputPauseBacklog != 0 ||
           shedThreshold != 0;
  }
};

struct FlowStats {
  std::uint64_t pauses = 0;         ///< Pause credits issued to the source.
  std::uint64_t resumes = 0;        ///< Resume credits issued.
  std::uint64_t overloadEdges = 0;  ///< Input queues turning overloaded.
  std::uint64_t blockEdges = 0;     ///< Output gates closing.
  std::uint64_t shedIntervals = 0;  ///< Closed per-stream drop intervals.
  std::uint64_t elementsShedAccounted = 0;  ///< Elements inside them.
};

class FlowControl {
 public:
  FlowControl(Runtime& rt, FlowParams params);

  /// Wire every existing instance and the source, and install the runtime
  /// instance listener so copies instantiated later are adopted too.
  void adoptAll();
  void adopt(Subjob& instance);

  /// Close every still-open shed interval into the trace (end of run).
  void flushShedIntervals();

  bool sourcePaused() const;
  std::size_t overloadedQueues() const { return overloaded_; }
  const FlowStats& stats() const { return stats_; }
  const FlowParams& params() const { return params_; }

 private:
  void onPressure(MachineId atMachine, bool overloaded);
  void sendCredit(MachineId from, bool pause);
  void onShed(MachineId machine, SubjobId subjob, StreamId stream,
              ElementSeq seq);

  struct OpenInterval {
    ElementSeq first = 0;
    ElementSeq last = 0;
    std::uint64_t count = 0;
    SimTime beganAt = 0;
  };

  void closeInterval(MachineId machine, SubjobId subjob, StreamId stream,
                     const OpenInterval& iv);

  Runtime& rt_;
  FlowParams params_;
  FlowStats stats_;
  std::size_t overloaded_ = 0;   ///< Cluster-wide overloaded-queue refcount.
  std::uint64_t credit_seq_ = 0;
  bool pause_outstanding_ = false;  ///< Last credit issued was a pause.
  /// Open shed intervals keyed deterministically (never by pointer: flush
  /// order must be identical across same-seed runs).
  std::map<std::tuple<MachineId, SubjobId, StreamId>, OpenInterval> open_;
};

}  // namespace flow
}  // namespace streamha
