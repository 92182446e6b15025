// Micro-benchmarks of the substrate (google-benchmark): event loop, queue
// operations, state serialization, network path, RNG. The end-to-end
// seeds-per-minute number lives in bench/perf (chaos_sweep.seeds_per_min).
#include <benchmark/benchmark.h>

#include <vector>

#include "checkpoint/state.hpp"
#include "cluster/machine.hpp"
#include "common/rng.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "stream/pe.hpp"
#include "stream/queues.hpp"

namespace streamha {
namespace {

void BM_SimulatorScheduleFire(benchmark::State& state) {
  Simulator sim;
  for (auto _ : state) {
    sim.schedule(1, [] {});
    sim.step();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorScheduleFire);

void BM_SimulatorTimerWheel(benchmark::State& state) {
  // A batch of interleaved timers, as a loaded cluster run would create. The
  // Simulator lives outside the timing loop -- constructing one is not what
  // this measures, and hoisting it keeps the slot pool warm, which is the
  // steady state every long run settles into.
  Simulator sim;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      sim.schedule(i % 97, [] {});
    }
    sim.runAll();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorTimerWheel);

void BM_SimulatorScheduleCancel(benchmark::State& state) {
  // The timer-reset pattern (ARQ retries, pump reschedules): schedule, cancel
  // before firing, schedule again. Exercises slot release at cancel time.
  Simulator sim;
  for (auto _ : state) {
    EventHandle h = sim.schedule(1000, [] {});
    h.cancel();
    sim.schedule(1, [] {});
    sim.step();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorScheduleCancel);

void BM_OutputQueueProduceAck(benchmark::State& state) {
  Simulator sim;
  Network net(sim, Network::Params{}, nullptr);
  OutputQueue oq(net, 1, 0);
  const int conn = oq.addConnection(1, true, true, [](std::vector<Element>) {});
  ElementSeq seq = 0;
  for (auto _ : state) {
    seq = oq.produce(0, seq, 100);
    oq.onAck(conn, seq);
    sim.runAll();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OutputQueueProduceAck);

void BM_InputQueueReceiveDedup(benchmark::State& state) {
  InputQueue iq;
  iq.subscribe(1);
  std::vector<Element> batch(1);
  batch[0].stream = 1;
  ElementSeq seq = 1;
  for (auto _ : state) {
    batch[0].seq = seq++;
    iq.receive(batch);
    iq.receive(batch);  // Duplicate path.
    iq.pop();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InputQueueReceiveDedup);

void BM_SyntheticLogicProcess(benchmark::State& state) {
  SyntheticLogic logic(1.0, 2000);
  std::vector<PeLogic::Emit> out;
  Element e;
  e.stream = 1;
  for (auto _ : state) {
    ++e.seq;
    out.clear();
    logic.process(e, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SyntheticLogicProcess);

void BM_StateSerializeRoundTrip(benchmark::State& state) {
  SyntheticLogic logic(1.0, static_cast<std::size_t>(state.range(0)));
  SyntheticLogic other(1.0, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto bytes = logic.serialize();
    other.deserialize(bytes);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(state.iterations() * (24 + state.range(0)));
}
BENCHMARK(BM_StateSerializeRoundTrip)->Arg(256)->Arg(2640)->Arg(65536);

void BM_NetworkSendDeliver(benchmark::State& state) {
  Simulator sim;
  Network net(sim, Network::Params{}, nullptr);
  for (auto _ : state) {
    net.send(0, 1, MsgKind::kData, 132, 1, [] {});
    sim.runAll();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkSendDeliver);

void BM_NetworkControlBurst(benchmark::State& state) {
  // A burst of zero-transmit control messages on one link: they all arrive at
  // the same instant, so batched delivery coalesces the 64 into one
  // scheduled event.
  Simulator sim;
  Network net(sim, Network::Params{}, nullptr);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      net.send(0, 1, MsgKind::kControl, 0, 0, [] {});
    }
    sim.runAll();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_NetworkControlBurst);

void BM_MachineDataTask(benchmark::State& state) {
  Simulator sim;
  Machine machine(sim, 0, Rng(1));
  for (auto _ : state) {
    machine.submitData(10.0, [] {});
    sim.runAll();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MachineDataTask);

void BM_RngNextU64(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.nextU64());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngNextU64);

void BM_RngExponential(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.exponential(10.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngExponential);

}  // namespace
}  // namespace streamha

BENCHMARK_MAIN();
