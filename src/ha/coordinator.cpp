#include "ha/coordinator.hpp"

#include "common/logging.hpp"
#include "trace/recorder.hpp"

namespace streamha {

HaCoordinator::HaCoordinator(Runtime& rt, SubjobId subjob, HaParams params)
    : rt_(rt), subjob_(subjob), params_(params) {}

HaCoordinator::~HaCoordinator() {
  if (detector_ != nullptr) detector_->stop();
  if (cm_ != nullptr) cm_->stop();
}

Simulator& HaCoordinator::sim() { return rt_.cluster().sim(); }

Network& HaCoordinator::net() { return rt_.cluster().network(); }

TraceRecorder* HaCoordinator::trace() { return net().trace(); }

std::uint64_t HaCoordinator::beginTraceIncident() {
  TraceRecorder* tr = trace();
  return tr == nullptr ? 0 : tr->beginIncident();
}

void HaCoordinator::recordIncidentEvent(TraceEventType type,
                                        std::uint64_t incident,
                                        MachineId machine, MachineId peer,
                                        std::uint64_t value,
                                        std::uint64_t aux) {
  TraceRecorder* tr = trace();
  if (tr == nullptr) return;
  TraceEvent ev;
  ev.type = type;
  ev.at = sim().now();
  ev.machine = machine;
  ev.peer = peer;
  ev.subjob = subjob_;
  ev.incident = incident;
  ev.value = value;
  ev.aux = aux;
  tr->record(ev);
}

std::unique_ptr<FailureDetector> HaCoordinator::startDetector(
    Machine& monitor, Machine& target, FailureDetector::Callbacks callbacks) {
  std::unique_ptr<FailureDetector> detector;
  if (params_.detectorFactory) {
    detector = params_.detectorFactory(sim(), net(), monitor, target,
                                       std::move(callbacks));
  } else {
    detector = std::make_unique<HeartbeatDetector>(
        sim(), net(), monitor, target, params_.heartbeat, std::move(callbacks));
  }
  detector->start();
  started_detectors_.push_back(detector.get());
  return detector;
}

std::size_t HaCoordinator::openIncident(TraceEventType type,
                                        SimTime detectedAt, MachineId machine,
                                        MachineId peer) {
  RecoveryTimeline timeline;
  timeline.incidentId = beginTraceIncident();
  timeline.detectedAt = detectedAt;
  recoveries_.push_back(timeline);
  recordIncidentEvent(type, timeline.incidentId, machine, peer);
  return recoveries_.size() - 1;
}

void HaCoordinator::markRedeployDone(std::size_t timelineIdx,
                                     MachineId machine) {
  recoveries_[timelineIdx].redeployDoneAt = sim().now();
  recordIncidentEvent(TraceEventType::kRedeployDone,
                      recoveries_[timelineIdx].incidentId, machine, kNoMachine);
}

void HaCoordinator::markConnectionsReady(std::size_t timelineIdx,
                                         MachineId machine) {
  recoveries_[timelineIdx].connectionsReadyAt = sim().now();
  recordIncidentEvent(TraceEventType::kConnectionsReady,
                      recoveries_[timelineIdx].incidentId, machine, kNoMachine);
}

void HaCoordinator::replaceStore(Machine& host) {
  retire(std::move(store_));
  store_ = std::make_unique<StateStore>(sim(), host, params_.store, trace());
}

void HaCoordinator::startCheckpointing() {
  retire(std::move(cm_));
  switch (params_.checkpointKind) {
    case CheckpointKind::kSweeping:
      cm_ = std::make_unique<SweepingCheckpointManager>(
          sim(), net(), *primary_, *store_, params_.checkpoint);
      break;
    case CheckpointKind::kSynchronous:
      cm_ = std::make_unique<SynchronousCheckpointManager>(
          sim(), net(), *primary_, *store_, params_.checkpoint);
      break;
    case CheckpointKind::kIndividual:
      cm_ = std::make_unique<IndividualCheckpointManager>(
          sim(), net(), *primary_, *store_, params_.checkpoint);
      break;
  }
  cm_->start();
}

void HaCoordinator::tearDown(Subjob& copy) {
  rt_.isolateInstance(copy);
  copy.terminateAll();
  rt_.removeWiresOf(copy);
}

bool HaCoordinator::stateAdvances(const SubjobState& state, Subjob& instance) {
  for (std::size_t i = 0; i < instance.peCount(); ++i) {
    PeInstance& pe = instance.pe(i);
    const auto peIt = state.pes.find(pe.logicalId());
    if (peIt == state.pes.end()) return false;
    for (const auto& [stream, current] : pe.watermarks()) {
      const auto it = peIt->second.processedWatermark.find(stream);
      const ElementSeq candidate =
          it == peIt->second.processedWatermark.end() ? 0 : it->second;
      if (candidate < current) return false;
    }
  }
  return true;
}

void HaCoordinator::watchFirstOutput(Subjob& copy, std::size_t timelineIdx,
                                     ElementSeq baseline) {
  OutputQueue& out = copy.lastPe().output(0);
  baseline = std::max(baseline, out.nextSeq());
  const MachineId copyMachine = copy.machine().id();
  out.setProduceListener([this, &out, baseline, timelineIdx,
                          copyMachine](ElementSeq seq) {
    if (seq < baseline) return;
    if (timelineIdx < recoveries_.size() &&
        recoveries_[timelineIdx].firstOutputAt == kTimeNever) {
      recoveries_[timelineIdx].firstOutputAt = sim().now();
      recordIncidentEvent(TraceEventType::kSwitchoverEnd,
                          recoveries_[timelineIdx].incidentId, copyMachine,
                          kNoMachine, seq);
    }
    out.setProduceListener(nullptr);
  });
}

void HaCoordinator::retire(std::unique_ptr<CheckpointManager> cm) {
  if (cm == nullptr) return;
  cm->stop();
  retired_cms_.push_back(std::move(cm));
}

void HaCoordinator::retire(std::unique_ptr<FailureDetector> detector) {
  if (detector == nullptr) return;
  detector->stop();
  retired_detectors_.push_back(std::move(detector));
}

void HaCoordinator::retire(std::unique_ptr<StateStore> store) {
  if (store == nullptr) return;
  retired_stores_.push_back(std::move(store));
}

std::uint64_t HaCoordinator::suspicionCrossings() const {
  std::uint64_t total = 0;
  for (const FailureDetector* detector : started_detectors_) {
    total += detector->suspicionCrossings();
  }
  return total;
}

StateTelemetry HaCoordinator::stateTelemetry() const {
  StateTelemetry total;
  if (store_ != nullptr) total += store_->telemetry();
  for (const auto& store : retired_stores_) total += store->telemetry();
  return total;
}

}  // namespace streamha
