#include "flow/flow_control.hpp"

#include "cluster/cluster.hpp"
#include "stream/runtime.hpp"
#include "trace/recorder.hpp"

namespace streamha::flow {

namespace {
constexpr std::size_t kCreditBytes = 32;  ///< Pause/resume credit wire size.
}  // namespace

FlowControl::FlowControl(Runtime& rt, FlowParams params)
    : rt_(rt), params_(params) {}

void FlowControl::adoptAll() {
  rt_.setInstanceListener([this](Subjob& instance) { adopt(instance); });
  for (const auto& instance : rt_.allInstances()) adopt(*instance);
  Source* src = rt_.source();
  if (src != nullptr && params_.outputPauseBacklog != 0) {
    // The source's own output queue has no PE loop to block; treat its
    // backlog as overload pressure directly (the last hop of propagation).
    const MachineId m = src->machineId();
    src->output().setBackpressure(
        params_.outputPauseBacklog, params_.outputPauseBacklog / 2,
        [this, m](bool blocked) {
          if (blocked) ++stats_.blockEdges;
          onPressure(m, blocked);
        });
  }
}

void FlowControl::adopt(Subjob& instance) {
  const MachineId machine = instance.machine().id();
  const SubjobId subjob = instance.logicalId();
  for (std::size_t i = 0; i < instance.peCount(); ++i) {
    PeInstance& pe = instance.pe(i);
    if (params_.shedThreshold != 0) {
      pe.input().setShedThreshold(params_.shedThreshold);
      pe.input().setShedListener(
          [this, machine, subjob](StreamId stream, ElementSeq seq) {
            onShed(machine, subjob, stream, seq);
          });
    }
    if (params_.pauseThreshold != 0) {
      pe.input().setPressure(params_.pauseThreshold,
                             params_.pauseThreshold / 2,
                             [this, machine](bool overloaded) {
                               if (overloaded) ++stats_.overloadEdges;
                               onPressure(machine, overloaded);
                             });
    }
    if (params_.outputPauseBacklog != 0) {
      PeInstance* pePtr = &pe;
      for (std::size_t port = 0; port < pe.portCount(); ++port) {
        pe.output(port).setBackpressure(
            params_.outputPauseBacklog, params_.outputPauseBacklog / 2,
            [this, pePtr](bool blocked) {
              if (blocked) {
                ++stats_.blockEdges;
              } else {
                // The gate reopened: the PE's input arrival listener will
                // not fire again on its own, so kick the loop here.
                pePtr->maybeSchedule();
              }
            });
      }
    }
  }
}

void FlowControl::onPressure(MachineId atMachine, bool overloaded) {
  if (overloaded) {
    ++overloaded_;
    if (!pause_outstanding_) {
      pause_outstanding_ = true;
      sendCredit(atMachine, true);
    }
  } else {
    if (overloaded_ > 0) --overloaded_;
    if (overloaded_ == 0 && pause_outstanding_) {
      pause_outstanding_ = false;
      sendCredit(atMachine, false);
    }
  }
}

void FlowControl::sendCredit(MachineId from, bool pause) {
  Source* src = rt_.source();
  if (src == nullptr) return;
  Network& net = rt_.cluster().network();
  const std::uint64_t seq = ++credit_seq_;
  if (pause) {
    ++stats_.pauses;
  } else {
    ++stats_.resumes;
  }
  if (auto* trace = net.trace(); trace != nullptr) {
    TraceEvent ev;
    ev.type = pause ? TraceEventType::kFlowPause : TraceEventType::kFlowResume;
    ev.at = net.now();
    ev.machine = src->machineId();
    ev.peer = from;
    ev.value = overloaded_;
    trace->record(ev);
  }
  // Per-link supersede key: a newer credit subsumes an older unacked one (the
  // source keeps only the latest decision anyway, by credit sequence).
  const std::uint64_t key =
      (1ULL << 62) | static_cast<std::uint32_t>(from);
  net.sendReliable(
      from, src->machineId(), MsgKind::kControl, kCreditBytes, 0,
      [src, seq, pause] { src->flowCredit(seq, pause); }, key);
}

void FlowControl::onShed(MachineId machine, SubjobId subjob, StreamId stream,
                         ElementSeq seq) {
  ++stats_.elementsShedAccounted;
  const auto key = std::make_tuple(machine, subjob, stream);
  auto it = open_.find(key);
  if (it != open_.end()) {
    if (seq == it->second.last + 1) {
      it->second.last = seq;
      ++it->second.count;
      return;
    }
    // Non-contiguous: the stream delivered in between. Close and reopen.
    closeInterval(machine, subjob, stream, it->second);
    open_.erase(it);
  }
  OpenInterval iv;
  iv.first = seq;
  iv.last = seq;
  iv.count = 1;
  iv.beganAt = rt_.cluster().network().now();
  open_.emplace(key, iv);
  if (auto* trace = rt_.cluster().network().trace(); trace != nullptr) {
    TraceEvent ev;
    ev.type = TraceEventType::kShedBegin;
    ev.at = iv.beganAt;
    ev.machine = machine;
    ev.subjob = subjob;
    ev.stream = stream;
    ev.value = seq;
    trace->record(ev);
  }
}

void FlowControl::closeInterval(MachineId machine, SubjobId subjob,
                                StreamId stream, const OpenInterval& iv) {
  ++stats_.shedIntervals;
  if (auto* trace = rt_.cluster().network().trace(); trace != nullptr) {
    TraceEvent ev;
    ev.type = TraceEventType::kShedEnd;
    ev.at = rt_.cluster().network().now();
    ev.machine = machine;
    ev.subjob = subjob;
    ev.stream = stream;
    ev.value = iv.last;
    ev.aux = iv.count;
    trace->record(ev);
  }
}

void FlowControl::flushShedIntervals() {
  for (const auto& [key, iv] : open_) {
    closeInterval(std::get<0>(key), std::get<1>(key), std::get<2>(key), iv);
  }
  open_.clear();
}

bool FlowControl::sourcePaused() const {
  return rt_.source() != nullptr && rt_.source()->flowPaused();
}

}  // namespace streamha::flow
