#include "micro_drivers.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "checkpoint/state.hpp"
#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "net/network.hpp"
#include "place/planner.hpp"
#include "sim/simulator.hpp"
#include "state/delta.hpp"
#include "stream/pe.hpp"
#include "stream/queues.hpp"

namespace streamha::perf {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kReps = 7;

double nsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Fastest of kReps timed repetitions (after one untimed warm-up) of the
/// per-operation cost of `ops` calls to `body`, in nanoseconds. Other work
/// on the machine only slows a repetition down, so the fastest is the
/// steady estimate.
template <typename Body>
double fastestNsPerOp(int ops, Body&& body) {
  for (int i = 0; i < ops; ++i) body();
  double fastest = 0;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < ops; ++i) body();
    const double perOp = nsSince(t0) / ops;
    fastest = r == 0 ? perOp : std::min(fastest, perOp);
  }
  return fastest;
}

}  // namespace

double scheduleFireNs(std::size_t depth) {
  Simulator sim;
  // Far-future events hold the heap at the observed depth; each timed
  // schedule is the earliest event, so step() fires exactly it.
  for (std::size_t i = 0; i < depth; ++i) {
    sim.schedule(static_cast<SimDuration>(1'000'000'000'000 + i), [] {});
  }
  std::uint64_t i = 0;
  return fastestNsPerOp(100'000, [&] {
    sim.schedule(static_cast<SimDuration>(1 + i++ % 97), [] {});
    sim.step();
  });
}

double sendDeliverNs() {
  Simulator sim;
  Network net(sim, Network::Params{}, nullptr);
  return fastestNsPerOp(50'000, [&] {
    net.send(0, 1, MsgKind::kData, 132, 1, [] {});
    sim.runAll();
  });
}

double reliableSendNs() {
  Simulator sim;
  Network net(sim, Network::Params{}, nullptr);
  net.enableReliable(ReliableParams{});
  return fastestNsPerOp(10'000, [&] {
    net.sendReliable(0, 1, MsgKind::kControl, 64, 0, [] {});
    sim.runAll();
  });
}

double produceAckNs() {
  Simulator sim;
  Network net(sim, Network::Params{}, nullptr);
  OutputQueue oq(net, 1, 0);
  const int conn =
      oq.addConnection(1, true, true, [](std::vector<Element>) {});
  ElementSeq seq = 0;
  return fastestNsPerOp(30'000, [&] {
    seq = oq.produce(0, seq, 100);
    oq.onAck(conn, seq);
    sim.runAll();
  });
}

double receiveDedupNs() {
  InputQueue iq;
  iq.subscribe(1);
  std::vector<Element> batch(1);
  batch[0].stream = 1;
  ElementSeq seq = 1;
  return fastestNsPerOp(200'000, [&] {
    batch[0].seq = seq++;
    iq.receive(batch);
    iq.receive(batch);
    iq.pop();
  });
}

double serializeUs(std::size_t stateBytes, std::size_t keyBytes) {
  auto make = [&]() -> std::unique_ptr<PeLogic> {
    if (keyBytes > 0) {
      return std::make_unique<KeyedStateLogic>(1.0, stateBytes, keyBytes);
    }
    return std::make_unique<SyntheticLogic>(1.0, stateBytes);
  };
  std::unique_ptr<PeLogic> logic = make();
  std::unique_ptr<PeLogic> other = make();
  const int ops = stateBytes >= 64 * 1024 ? 200 : 2'000;
  return fastestNsPerOp(ops, [&] { other->deserialize(logic->serialize()); }) /
         1000.0;
}

DeltaCosts deltaCosts(std::size_t stateBytes, std::size_t keyBytes,
                      std::size_t dirtyKeys) {
  const std::uint32_t chunkBytes = 64;
  const std::size_t regionBytes = keyBytes > 0 ? keyBytes : chunkBytes;
  const std::size_t regions =
      std::max<std::size_t>(1, stateBytes / regionBytes);
  Rng rng(7);
  // One checkpoint interval: `dirtyKeys` regions rewritten.
  auto advance = [&](const PeState& from) {
    PeState next = from;
    ++next.version;
    for (std::size_t k = 0; k < dirtyKeys; ++k) {
      const auto region = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(regions) - 1));
      const std::size_t at = region * regionBytes;
      for (std::size_t b = at; b < at + regionBytes && b < next.internal.size();
           ++b) {
        next.internal[b] = static_cast<std::uint8_t>(rng.nextU64());
      }
    }
    return next;
  };
  PeState base;
  base.pe = 0;
  base.version = 1;
  base.internal.assign(stateBytes, 0);
  const PeState next = advance(base);

  DeltaCosts out;
  PeStateDelta delta;
  out.encodeUs = fastestNsPerOp(50, [&] {
                   delta = encodeDelta(&base, next, chunkBytes);
                 }) /
                 1000.0;
  out.applyUs = fastestNsPerOp(50, [&] {
                  const PeState applied = applyDelta(base, delta);
                  if (applied.version != next.version) std::abort();
                }) /
                1000.0;

  // Eight runs of successive intervals, the store's default compaction depth.
  std::vector<PeStateDelta> runs;
  PeState prev = base;
  for (int r = 0; r < 8; ++r) {
    PeState cur = advance(prev);
    runs.push_back(encodeDelta(&prev, cur, chunkBytes));
    prev = std::move(cur);
  }
  for (int r = 0; r <= kReps; ++r) {
    DeltaLog log(0);
    for (const PeStateDelta& d : runs) log.append(d);
    std::vector<std::uint64_t> freed;
    const auto t0 = Clock::now();
    log.compact(&freed);
    const double us = nsSince(t0) / 1000.0;
    if (r == 1 || (r > 1 && us < out.compactUs)) out.compactUs = us;
  }
  return out;
}

double chooseUs(std::size_t machines, int racks, int primaries) {
  Cluster::Params cp;
  cp.machineCount = machines;
  cp.topology.racks = racks;
  Cluster cluster(cp);
  std::vector<MachineId> pool;
  for (std::size_t m = static_cast<std::size_t>(primaries) + 1; m < machines;
       ++m) {
    pool.push_back(static_cast<MachineId>(m));
  }
  PlacementPlanner planner(cluster, cp.topology, true, pool);
  PlacementPlanner::Request request;
  request.avoidMachines = {1};
  request.preferDisjointFrom = {1};
  return fastestNsPerOp(1'000, [&] {
           const MachineId m = planner.choose(request);
           if (m != kNoMachine) planner.noteReleased(m);
         }) /
         1000.0;
}

}  // namespace streamha::perf
