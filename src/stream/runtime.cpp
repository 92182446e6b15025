#include "stream/runtime.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

#include "common/logging.hpp"

namespace streamha {

namespace {

/// One channel per (producer queue, consumer PE or the sink).
bool sameChannel(const Runtime::Wire& a, const Runtime::Wire& b) {
  return a.oq == b.oq && a.consumerPe == b.consumerPe;
}

/// Local intra-instance channels are always active and gating; the others
/// take the inbound or outbound flags by the side `instance` is on.
Runtime::WireOpts optsFor(const Runtime::Wire& plan, const Subjob& instance,
                          Runtime::WireOpts inbound,
                          Runtime::WireOpts outbound) {
  if (plan.local) return Runtime::WireOpts{true, true};
  return plan.consumer == &instance ? inbound : outbound;
}

}  // namespace

Runtime::Runtime(Cluster& cluster, const JobSpec& spec)
    : cluster_(cluster),
      spec_(spec),
      loss_recovery_(cluster.network().hasFault()) {
  const std::string problem = spec_.validate();
  assert(problem.empty() && "invalid job spec");
  (void)problem;
}

Source& Runtime::addSource(MachineId machine, Source::Params params) {
  assert(source_ == nullptr);
  source_ = std::make_unique<Source>(
      cluster_.sim(), cluster_.machine(machine), cluster_.network(),
      spec_.sourceStream, params,
      cluster_.forkRng(stableHash("source") ^ static_cast<std::uint64_t>(spec_.id)));
  return *source_;
}

Sink& Runtime::addSink(MachineId machine) {
  assert(sink_ == nullptr);
  sink_ = std::make_unique<Sink>(cluster_.sim(), cluster_.machine(machine));
  for (StreamId stream : spec_.sinkStreams) sink_->subscribe(stream);
  if (loss_recovery_) sink_->input().armAckResend(cluster_.sim());
  return *sink_;
}

Subjob& Runtime::instantiate(SubjobId subjob, MachineId machine,
                             Replica replica) {
  const SubjobSpec& sjSpec = spec_.subjob(subjob);
  auto instance = std::make_unique<Subjob>(
      cluster_.sim(), cluster_.machine(machine), subjob, replica);
  for (LogicalPeId peId : sjSpec.pes) {
    const LogicalPeSpec& peSpec = spec_.pe(peId);
    PeParams params;
    params.logicalId = peSpec.id;
    params.name = peSpec.name;
    params.workPerElementUs = peSpec.workUs;
    params.outputStreams = peSpec.outputStreams;
    params.outputPayloadBytes = peSpec.payloadBytes;
    auto& pe = instance->addPe(std::make_unique<PeInstance>(
        cluster_.machine(machine), cluster_.network(), std::move(params),
        peSpec.makeLogic()));
    for (StreamId stream : peSpec.inputStreams) pe.input().subscribe(stream);
    if (loss_recovery_) pe.input().armAckResend(cluster_.sim());
  }
  instances_.push_back(std::move(instance));
  LOG_DEBUG(cluster_.sim().now(), "runtime")
      << "instantiated subjob " << subjob << " (" << toString(replica)
      << ") on machine " << machine;
  if (instance_listener_) instance_listener_(*instances_.back());
  return *instances_.back();
}

std::vector<Subjob*> Runtime::instancesOf(SubjobId subjob) const {
  std::vector<Subjob*> out;
  for (const auto& inst : instances_) {
    if (inst->logicalId() == subjob && !inst->terminated()) {
      out.push_back(inst.get());
    }
  }
  return out;
}

Subjob* Runtime::instanceOf(SubjobId subjob, Replica replica) const {
  for (const auto& inst : instances_) {
    if (inst->logicalId() == subjob && inst->replica() == replica &&
        !inst->terminated()) {
      return inst.get();
    }
  }
  return nullptr;
}

bool Runtime::wireExists(const Wire& plan) const {
  return std::any_of(wires_.begin(), wires_.end(), [&](const auto& wire) {
    return sameChannel(*wire, plan);
  });
}

std::vector<Runtime::Wire> Runtime::collectMissingWires(Subjob& instance) {
  std::vector<Wire> plans;
  auto plan = [&](const Wire& wire) {
    if (wire.oq == nullptr || wireExists(wire) ||
        std::any_of(plans.begin(), plans.end(), [&](const Wire& other) {
          return sameChannel(other, wire);
        })) {
      return;
    }
    plans.push_back(wire);
  };
  auto outputPortOf = [&](Subjob& inst, LogicalPeId peId,
                          StreamId stream) -> OutputQueue* {
    PeInstance* pe = inst.peByLogicalId(peId);
    if (pe == nullptr) return nullptr;
    for (std::size_t port = 0; port < pe->portCount(); ++port) {
      if (pe->output(port).stream() == stream) return &pe->output(port);
    }
    return nullptr;
  };

  // Inbound: channels feeding this instance's PEs.
  for (std::size_t i = 0; i < instance.peCount(); ++i) {
    PeInstance& pe = instance.pe(i);
    const LogicalPeSpec& peSpec = spec_.pe(pe.logicalId());
    for (StreamId stream : peSpec.inputStreams) {
      if (stream == spec_.sourceStream) {
        if (source_ != nullptr) {
          plan({.oq = &source_->output(), .stream = stream,
                .consumer = &instance, .consumerPe = &pe});
        }
        continue;
      }
      const LogicalPeId producerId = spec_.producerOf(stream);
      const SubjobId producerSj = spec_.subjobOf(producerId);
      if (producerSj == instance.logicalId()) {
        plan({.oq = outputPortOf(instance, producerId, stream),
              .stream = stream, .producer = &instance, .consumer = &instance,
              .consumerPe = &pe, .local = true});
      } else {
        for (Subjob* producer : instancesOf(producerSj)) {
          plan({.oq = outputPortOf(*producer, producerId, stream),
                .stream = stream, .producer = producer, .consumer = &instance,
                .consumerPe = &pe});
        }
      }
    }
  }

  // Outbound: channels this instance's PEs feed.
  for (std::size_t i = 0; i < instance.peCount(); ++i) {
    PeInstance& pe = instance.pe(i);
    const LogicalPeSpec& peSpec = spec_.pe(pe.logicalId());
    for (std::size_t port = 0; port < peSpec.outputStreams.size(); ++port) {
      const StreamId stream = peSpec.outputStreams[port];
      OutputQueue* oq = &pe.output(port);
      for (LogicalPeId consumerId : spec_.consumersOf(stream)) {
        const SubjobId consumerSj = spec_.subjobOf(consumerId);
        if (consumerSj == instance.logicalId()) {
          PeInstance* consumerPe = instance.peByLogicalId(consumerId);
          if (consumerPe != nullptr) {
            plan({.oq = oq, .stream = stream, .producer = &instance,
                  .consumer = &instance, .consumerPe = consumerPe,
                  .local = true});
          }
        } else {
          for (Subjob* consumer : instancesOf(consumerSj)) {
            PeInstance* consumerPe = consumer->peByLogicalId(consumerId);
            if (consumerPe != nullptr) {
              plan({.oq = oq, .stream = stream, .producer = &instance,
                    .consumer = consumer, .consumerPe = consumerPe});
            }
          }
        }
      }
      for (StreamId sinkStream : spec_.sinkStreams) {
        if (sinkStream == stream && sink_ != nullptr) {
          plan({.oq = oq, .stream = stream, .producer = &instance});
        }
      }
    }
  }
  return plans;
}

MachineId Runtime::producerMachine(const Wire& plan) const {
  if (plan.producer != nullptr) return plan.producer->machine().id();
  assert(source_ != nullptr);
  return source_->machineId();
}

void Runtime::wireInstance(Subjob& instance, WireOpts inbound,
                           WireOpts outbound) {
  for (const Wire& plan : collectMissingWires(instance)) {
    createWire(plan, optsFor(plan, instance, inbound, outbound));
  }
}

void Runtime::wireInstanceWithCost(Subjob& instance, WireOpts inbound,
                                   WireOpts outbound,
                                   std::function<void()> done) {
  const auto plans = collectMissingWires(instance);
  if (plans.empty()) {
    if (done) done();
    return;
  }
  auto remaining = std::make_shared<std::size_t>(plans.size());
  auto doneShared = std::make_shared<std::function<void()>>(std::move(done));
  Network* net = &cluster_.network();
  for (const Wire& plan : plans) {
    const MachineId producerM = producerMachine(plan);
    const MachineId initiatorM = instance.machine().id();
    Machine& producerMachineRef = cluster_.machine(producerM);
    const WireOpts opts = optsFor(plan, instance, inbound, outbound);
    auto finishOne = [this, plan, opts, remaining, doneShared] {
      // Re-check that the wire is still missing (another path may have
      // created it while the control exchange was in flight).
      if (!wireExists(plan)) createWire(plan, opts);
      if (--*remaining == 0 && *doneShared) (*doneShared)();
    };
    if (plan.local || producerM == initiatorM) {
      // Local setup: just the connection work on our own machine.
      instance.machine().submitData(kConnectWorkUs, finishOne);
    } else {
      // Control round-trip to the producer, connection work there, confirm.
      // Rides the reliable path: a lost leg would strand `remaining` above
      // zero and wedge the whole switchover/rewire, so both legs retry until
      // acked once the ARQ layer is armed.
      Machine* prodMachine = &producerMachineRef;
      net->sendReliable(
          initiatorM, producerM, MsgKind::kControl, kControlMsgBytes, 0,
          [net, prodMachine, initiatorM, producerM, finishOne] {
            prodMachine->submitData(
                kConnectWorkUs, [net, initiatorM, producerM, finishOne] {
                  net->sendReliable(producerM, initiatorM, MsgKind::kControl,
                                    kControlMsgBytes, 0, finishOne);
                });
          });
    }
  }
}

void Runtime::createWire(const Wire& plan, WireOpts opts) {
  InputQueue* iq =
      plan.consumerPe != nullptr ? &plan.consumerPe->input() : &sink_->input();
  const MachineId dstMachine = plan.consumer != nullptr
                                   ? plan.consumer->machine().id()
                                   : sink_->machineId();
  const MachineId srcMachine = producerMachine(plan);
  const int connId =
      plan.oq->addConnection(dstMachine, opts.active, opts.gatesTrim, *iq);
  Network* net = &cluster_.network();
  OutputQueue* oq = plan.oq;
  const AckRoute* route = &ack_routes_.emplace_back(AckRoute{oq, connId});
  InputQueue::AckFn ack = [net, srcMachine, dstMachine, route](
                              StreamId, ElementSeq upTo) {
    net->send(dstMachine, srcMachine, MsgKind::kAck, kAckBytes, 0,
              [route, upTo] { route->oq->onAck(route->connId, upTo); });
  };
  InputQueue::GapFn gap;
  if (loss_recovery_) {
    // Go-back-N NACK path: an out-of-order arrival asks this producer to
    // rewind the wire to the first missing element. Rate-limited per wire;
    // rides the reliable control plane so a lost NACK is retried instead of
    // waiting out a full stall-retransmit backoff round.
    auto lastNack = std::make_shared<SimTime>(-1);
    // Supersede key per wire: a newer gap request subsumes an older unacked
    // one (the rewind is accumulative-backward), so the ARQ layer may evict
    // the stale NACK instead of retrying both. The high bit keeps the key
    // nonzero; (stream, connId) makes it unique per wire on the link.
    const std::uint64_t nackKey =
        (1ULL << 63) |
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(plan.stream))
         << 32) |
        static_cast<std::uint32_t>(connId);
    gap = [net, srcMachine, dstMachine, oq, connId, lastNack, nackKey](
              StreamId, ElementSeq fromSeq) {
      const SimTime now = net->now();
      if (*lastNack >= 0 && now - *lastNack < kNackMinGap) return;
      *lastNack = now;
      net->sendReliable(
          dstMachine, srcMachine, MsgKind::kControl, kNackBytes, 0,
          [oq, connId, fromSeq] { oq->nack(connId, fromSeq); }, nackKey);
    };
  }
  auto wire = std::make_unique<Wire>(plan);
  wire->connId = connId;
  wire->iq = iq;
  wire->route = iq->addUpstream(plan.stream, std::move(ack), std::move(gap));
  wires_.push_back(std::move(wire));
}

std::vector<Runtime::Wire*> Runtime::wiresAt(Subjob* Wire::*end,
                                             const Subjob& instance,
                                             bool local) {
  std::vector<Wire*> out;
  for (const auto& wire : wires_) {
    if (wire->local == local && (*wire).*end == &instance) {
      out.push_back(wire.get());
    }
  }
  return out;
}

std::vector<Runtime::Wire*> Runtime::wiresInto(Subjob& instance) {
  return wiresAt(&Wire::consumer, instance, false);
}

std::vector<Runtime::Wire*> Runtime::wiresOutOf(Subjob& instance) {
  return wiresAt(&Wire::producer, instance, false);
}

std::vector<Runtime::Wire*> Runtime::localWiresInto(Subjob& instance) {
  return wiresAt(&Wire::consumer, instance, true);
}

void Runtime::removeWiresOf(Subjob& instance) {
  for (auto it = wires_.begin(); it != wires_.end();) {
    Wire& wire = **it;
    if (wire.producer == &instance || wire.consumer == &instance) {
      wire.oq->removeConnection(wire.connId);
      wire.iq->removeUpstream(wire.route);
      it = wires_.erase(it);
    } else {
      ++it;
    }
  }
}

ElementSeq Runtime::stateWatermark(const SubjobState& state,
                                   const PeInstance& consumerPe,
                                   StreamId stream) {
  const auto peIt = state.pes.find(consumerPe.logicalId());
  if (peIt == state.pes.end()) return 0;
  const auto recvIt = peIt->second.receivedWatermark.find(stream);
  if (recvIt != peIt->second.receivedWatermark.end()) return recvIt->second;
  const auto procIt = peIt->second.processedWatermark.find(stream);
  return procIt == peIt->second.processedWatermark.end() ? 0 : procIt->second;
}

void Runtime::activateRestoredInstance(Subjob& copy,
                                       const SubjobState& state) {
  for (Wire* wire : wiresInto(copy)) {
    const ElementSeq wm =
        wire->consumerPe == nullptr
            ? 0
            : stateWatermark(state, *wire->consumerPe, wire->stream);
    // Position the cursor while inactive (no send), then activate (pushes
    // from the cursor) and start gating upstream trimming.
    wire->oq->retransmitFrom(wire->connId, wm + 1);
    wire->oq->setConnectionActive(wire->connId, true);
    wire->oq->setConnectionGating(wire->connId, true);
  }
  // Local PE-to-PE wires are not in wiresInto, but need the same treatment:
  // an adoption may rewind a downstream PE below what it acked during an
  // earlier active window, and the stale ack record would let the next trim
  // discard the very span the PE has to reprocess -- an unfillable internal
  // gap, because nothing upstream retains a local wire's elements. Rewind
  // the ack gate to the restored watermark and replay from there.
  for (Wire* wire : localWiresInto(copy)) {
    if (wire->consumerPe == nullptr) continue;
    const ElementSeq wm = stateWatermark(state, *wire->consumerPe, wire->stream);
    wire->oq->rewindAck(wire->connId, wm);
    wire->oq->retransmitFrom(wire->connId, wm + 1);
  }
  for (Wire* wire : wiresOutOf(copy)) {
    wire->oq->setConnectionActive(wire->connId, true);
    wire->oq->setConnectionGating(wire->connId, true);
  }
  // The activated copy inherits whatever backlog its input queues hold
  // (standby queues keep receiving while dormant); re-evaluate the overload
  // flags so the source is throttled if that backlog is already past the
  // threshold (flow/).
  copy.pokeFlowPressure();
}

void Runtime::deactivateInstanceWires(Subjob& copy) {
  for (Wire* wire : wiresInto(copy)) {
    wire->oq->setConnectionActive(wire->connId, false);
    wire->oq->setConnectionGating(wire->connId, false);
  }
  for (Wire* wire : wiresOutOf(copy)) {
    wire->oq->setConnectionActive(wire->connId, false);
  }
  // Dormant again: its backlog must not keep the source paused (flow/).
  copy.releaseFlowPressure();
}

void Runtime::isolateInstance(Subjob& copy) {
  for (Wire* wire : wiresInto(copy)) {
    wire->oq->setConnectionGating(wire->connId, false);
    wire->oq->setConnectionActive(wire->connId, false);
  }
  copy.releaseFlowPressure();
}

void Runtime::deployPrimaries(const std::vector<MachineId>& placement) {
  assert(placement.size() == spec_.subjobCount());
  assert(source_ != nullptr && sink_ != nullptr);
  for (std::size_t i = 0; i < spec_.subjobCount(); ++i) {
    instantiate(static_cast<SubjobId>(i), placement[i], Replica::kPrimary);
  }
  for (const auto& inst : instances_) {
    wireInstance(*inst, WireOpts{true, true}, WireOpts{true, true});
  }
}

void Runtime::start() {
  assert(source_ != nullptr && sink_ != nullptr);
  for (const auto& inst : instances_) inst->startAckTimer();
  if (loss_recovery_ && retransmit_timer_ == nullptr) {
    retransmit_timer_ = std::make_unique<PeriodicTimer>(
        cluster_.sim(), kRetransmitScanInterval, [this] {
          source_->output().retransmitStalled(kRetransmitTimeout);
          for (const auto& inst : instances_) {
            if (inst->terminated() || !inst->machine().isUp()) continue;
            for (std::size_t i = 0; i < inst->peCount(); ++i) {
              PeInstance& pe = inst->pe(i);
              if (pe.terminated()) continue;
              for (std::size_t port = 0; port < pe.portCount(); ++port) {
                pe.output(port).retransmitStalled(kRetransmitTimeout);
              }
            }
          }
        });
    retransmit_timer_->start();
  }
  sink_->start();
  source_->start();
}

}  // namespace streamha
