// Tiered storage backend for checkpoint state.
//
// Models a DRAM / SSD / HDD hierarchy the way the external-merge-sort
// exemplar models its device stack: each tier has an access latency, an
// effective bandwidth for checkpoint-sized writes, and a capacity budget.
// Writes land in the fastest tier with room; when a tier is full the write
// spills to the next slower one (emitting a kTierSpill trace event). Frees
// return capacity so compaction makes room for future fast-tier writes.
//
// The backend is a *cost and placement* model, not a byte store: the
// StateStore keeps the actual state objects and asks the backend what each
// write costs and where it landed. That keeps the default in-memory mode
// bit-identical (the backend is simply not consulted).
#pragma once

#include <array>
#include <cstdint>
#include <map>

#include "common/types.hpp"

namespace streamha {

class Simulator;
class TraceRecorder;

enum class StorageTier : std::uint8_t { kDram = 0, kSsd = 1, kHdd = 2 };

inline constexpr std::size_t kStorageTierCount = 3;

/// Named storage-tier presets (DRAM / SSD / HDD): each tier has an access
/// latency, a sequential bandwidth, an *effective* bandwidth for the small
/// random writes a checkpoint stream produces, and a capacity. These are the
/// single source for every storage constant in the tree: the tier specs below
/// are built from them, and the store's disk penalty and the disk-store
/// bench's penalty knobs reference them by name instead of repeating the
/// numbers.
struct TierPreset {
  const char* name;
  double latencyUs;                 ///< Per-access latency.
  double bytesPerMicro;             ///< Sequential bandwidth (~MB/s).
  double checkpointBytesPerMicro;   ///< Effective small-random-write bandwidth.
  std::uint64_t capacityBytes;      ///< Default capacity budget for the tier.
};

inline constexpr TierPreset kTierDram{
    "dram", 0.1, 10000.0, 10000.0, 512ull * 1024 * 1024};   // ~10 GB/s, 512 MB
inline constexpr TierPreset kTierSsd{
    "ssd", 100.0, 500.0, 250.0, 10ull * 1024 * 1024 * 1024};  // ~500 MB/s, 10 GB
inline constexpr TierPreset kTierHdd{
    "hdd", 10000.0, 100.0, 5.0,
    ~std::uint64_t{0}};  // ~100 MB/s sequential, ~5 MB/s checkpoint-effective,
                         // unbounded capacity.

/// One tier's simulated characteristics. Defaults come from the presets
/// above so the bench, the store and the backend agree on what "SSD" means.
struct TierSpec {
  double latencyUs = 0.0;
  double bytesPerMicro = 0.0;      ///< Effective checkpoint-write bandwidth.
  std::uint64_t capacityBytes = 0;

  static TierSpec fromPreset(const TierPreset& preset) {
    return TierSpec{preset.latencyUs, preset.checkpointBytesPerMicro,
                    preset.capacityBytes};
  }
};

struct TieredBackendParams {
  TierSpec tiers[kStorageTierCount] = {
      TierSpec::fromPreset(kTierDram),
      TierSpec::fromPreset(kTierSsd),
      TierSpec::fromPreset(kTierHdd),
  };
};

/// Placement + cost decision for one write.
struct TierWriteResult {
  StorageTier tier = StorageTier::kDram;
  /// Simulated write completion delay (latency + bytes / bandwidth).
  SimDuration cost = 0;
  /// True when the fastest tier with room was not the first choice.
  bool spilled = false;
};

class TieredBackend {
 public:
  TieredBackend(const Simulator& sim, TieredBackendParams params,
                MachineId machine, TraceRecorder* trace);

  /// Account `bytes` for `allocation` (a stable caller-chosen id, e.g. a
  /// delta-log run id). Re-writing an allocation frees its old bytes first.
  TierWriteResult write(std::uint64_t allocation, std::uint64_t bytes);

  /// Release an allocation's bytes back to its tier.
  void free(std::uint64_t allocation);

  /// Access cost (latency + bytes / bandwidth) of `bytes` on `tier`; a
  /// write pays the same.
  SimDuration readCost(StorageTier tier, std::uint64_t bytes) const;

  std::uint64_t usedBytes(StorageTier tier) const {
    return used_[static_cast<std::size_t>(tier)];
  }
  std::uint64_t bytesWritten(StorageTier tier) const {
    return written_[static_cast<std::size_t>(tier)];
  }
  std::uint64_t spillCount() const { return spills_; }

  const TieredBackendParams& params() const { return params_; }

 private:
  struct Allocation {
    StorageTier tier = StorageTier::kDram;
    std::uint64_t bytes = 0;
  };

  const TierSpec& spec(StorageTier tier) const {
    return params_.tiers[static_cast<std::size_t>(tier)];
  }

  const Simulator& sim_;
  TieredBackendParams params_;
  MachineId machine_ = kNoMachine;
  TraceRecorder* trace_ = nullptr;
  std::array<std::uint64_t, kStorageTierCount> used_{};
  std::array<std::uint64_t, kStorageTierCount> written_{};
  std::uint64_t spills_ = 0;
  std::map<std::uint64_t, Allocation> allocations_;
};

}  // namespace streamha
