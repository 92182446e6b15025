#include "stream/subjob.hpp"

#include <cassert>

namespace streamha {

Subjob::Subjob(Simulator& sim, Machine& machine, SubjobId logicalId,
               Replica replica)
    : sim_(sim), machine_(machine), logical_id_(logicalId), replica_(replica) {}

PeInstance& Subjob::addPe(std::unique_ptr<PeInstance> pe) {
  assert(pe != nullptr);
  pes_.push_back(std::move(pe));
  if (suspended_) pes_.back()->suspend();
  return *pes_.back();
}

PeInstance* Subjob::peByLogicalId(LogicalPeId id) {
  for (auto& pe : pes_) {
    if (pe->logicalId() == id) return pe.get();
  }
  return nullptr;
}

void Subjob::suspendAll() {
  suspended_ = true;
  for (auto& pe : pes_) pe->suspend();
  releaseFlowPressure();
}

void Subjob::unsuspendAll() {
  suspended_ = false;
  for (auto& pe : pes_) pe->unsuspend();
  pokeFlowPressure();
}

void Subjob::terminateAll() {
  terminated_ = true;
  stopAckTimer();
  for (auto& pe : pes_) pe->terminate();
}

void Subjob::setAckPolicy(AckPolicy policy) {
  for (auto& pe : pes_) pe->setAckPolicy(policy);
}

void Subjob::startAckTimer() {
  ack_timer_ = std::make_unique<PeriodicTimer>(sim_, kAckFlushInterval, [this] {
    if (!alive()) return;
    for (auto& pe : pes_) {
      if (pe->ackPolicy() == AckPolicy::kOnProcess) {
        pe->input().flushAcks(pe->watermarks());
      }
    }
  });
  ack_timer_->start();
}

void Subjob::stopAckTimer() { ack_timer_.reset(); }

SubjobState Subjob::captureState(bool includeOutputQueues,
                                 bool includeInputQueues) const {
  SubjobState state;
  state.subjob = logical_id_;
  state.version = ++const_cast<Subjob*>(this)->state_version_;
  for (const auto& pe : pes_) {
    state.pes[pe->logicalId()] =
        pe->checkpoint(includeOutputQueues, includeInputQueues);
  }
  return state;
}

SubjobState Subjob::peekState(bool includeOutputQueues,
                              bool includeInputQueues) const {
  SubjobState state;
  state.subjob = logical_id_;
  state.version = state_version_;
  for (const auto& pe : pes_) {
    state.pes[pe->logicalId()] =
        pe->peekState(includeOutputQueues, includeInputQueues);
  }
  return state;
}

void Subjob::applyState(const SubjobState& state) {
  for (auto& pe : pes_) {
    const auto it = state.pes.find(pe->logicalId());
    if (it != state.pes.end()) pe->storeJobState(it->second);
  }
}

void Subjob::releaseFlowPressure() {
  for (auto& pe : pes_) pe->input().releasePressure();
}

void Subjob::pokeFlowPressure() {
  for (auto& pe : pes_) pe->input().pokePressure();
}

std::uint64_t Subjob::processedCount() const {
  std::uint64_t total = 0;
  for (const auto& pe : pes_) total += pe->processedCount();
  return total;
}

}  // namespace streamha
