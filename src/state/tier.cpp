#include "state/tier.hpp"

#include <cmath>

#include "sim/simulator.hpp"
#include "trace/recorder.hpp"

namespace streamha {

TieredBackend::TieredBackend(const Simulator& sim, TieredBackendParams params,
                             MachineId machine, TraceRecorder* trace)
    : sim_(sim), params_(params), machine_(machine), trace_(trace) {}

TierWriteResult TieredBackend::write(std::uint64_t allocation,
                                     std::uint64_t bytes) {
  free(allocation);
  TierWriteResult result;
  // Fastest tier with room wins; the last tier takes anything (HDD capacity
  // defaults to unbounded, and even a configured bound must not lose state --
  // an overfull slowest tier just models an over-budget store).
  std::size_t chosen = kStorageTierCount - 1;
  for (std::size_t i = 0; i < kStorageTierCount; ++i) {
    if (used_[i] + bytes <= params_.tiers[i].capacityBytes) {
      chosen = i;
      break;
    }
    result.spilled = true;
  }
  if (chosen == kStorageTierCount - 1 &&
      used_[chosen] + bytes > params_.tiers[chosen].capacityBytes) {
    result.spilled = true;
  }
  result.tier = static_cast<StorageTier>(chosen);
  result.cost = readCost(result.tier, bytes);
  used_[chosen] += bytes;
  written_[chosen] += bytes;
  allocations_[allocation] = Allocation{result.tier, bytes};
  if (result.spilled) {
    ++spills_;
    if (trace_ != nullptr) {
      TraceEvent ev;
      ev.type = TraceEventType::kTierSpill;
      ev.at = sim_.now();
      ev.machine = machine_;
      ev.value = static_cast<std::uint64_t>(chosen);
      ev.aux = bytes;
      trace_->record(ev);
    }
  }
  return result;
}

void TieredBackend::free(std::uint64_t allocation) {
  auto it = allocations_.find(allocation);
  if (it == allocations_.end()) return;
  const std::size_t tier = static_cast<std::size_t>(it->second.tier);
  used_[tier] -= std::min(used_[tier], it->second.bytes);
  allocations_.erase(it);
}

SimDuration TieredBackend::readCost(StorageTier tier,
                                    std::uint64_t bytes) const {
  const TierSpec& s = spec(tier);
  const double micros =
      s.latencyUs + (s.bytesPerMicro > 0.0
                         ? static_cast<double>(bytes) / s.bytesPerMicro
                         : 0.0);
  return static_cast<SimDuration>(std::ceil(micros));
}

}  // namespace streamha
