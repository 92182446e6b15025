#include "detect/detector.hpp"

#include "trace/recorder.hpp"

namespace streamha {

namespace {
constexpr double kProbeWorkUs = 50.0;  ///< Target CPU work to answer a probe.
constexpr std::size_t kProbeBytes = 64;
}  // namespace

void sendProbe(Simulator& sim, Network& net, MachineId monitor, Machine& target,
               MsgKind request, MsgKind reply,
               std::function<void(const ProbeReading&)> onReply) {
  const MachineId targetId = target.id();
  net.send(monitor, targetId, request, kProbeBytes, 0,
           [&sim, &net, &target, monitor, targetId, reply, onReply] {
             const ProbeReading reading{sim.now(), target.loadIntegral()};
             target.submitControl(
                 kProbeWorkUs, [&net, monitor, targetId, reply, reading,
                                onReply] {
                   net.send(targetId, monitor, reply, kProbeBytes, 0,
                            [reading, onReply] { onReply(reading); });
                 });
           });
}

FailureDetector::FailureDetector(Simulator& sim, Network& net,
                                 Machine& monitor, Machine& target,
                                 SimDuration interval, Callbacks callbacks)
    : sim_(sim),
      net_(net),
      monitor_(monitor),
      target_(target),
      callbacks_(std::move(callbacks)),
      timer_(sim, interval, [this] {
        if (monitor_.isUp()) tick();
      }) {}

void FailureDetector::probe(MsgKind request, MsgKind reply,
                            std::function<void(const ProbeReading&)> onReply) {
  ++pings_sent_;
  sendProbe(sim_, net_, monitor_.id(), target_, request, reply,
            [this, onReply = std::move(onReply)](const ProbeReading& reading) {
              ++replies_received_;
              onReply(reading);
            });
}

void FailureDetector::declare(bool failed, std::uint64_t value,
                              std::uint64_t aux) {
  failed_ = failed;
  if (failed) {
    ++failures_declared_;
    record(TraceEventType::kFailureConfirmed, value, aux);
    if (callbacks_.onFailure) callbacks_.onFailure(sim_.now());
  } else {
    record(TraceEventType::kFailureCleared, value, aux);
    if (callbacks_.onRecovery) callbacks_.onRecovery(sim_.now());
  }
}

void FailureDetector::record(TraceEventType type, std::uint64_t value,
                             std::uint64_t aux) {
  TraceRecorder* trace = net_.trace();
  if (trace == nullptr) return;
  TraceEvent ev;
  ev.type = type;
  ev.at = sim_.now();
  ev.machine = target_.id();
  ev.peer = monitor_.id();
  ev.value = value;
  ev.aux = aux;
  trace->record(ev);
}

}  // namespace streamha
