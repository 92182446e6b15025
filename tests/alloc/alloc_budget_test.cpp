// The data path's heap-allocation budget, and the checkpoint path's byte
// budget.
//
// A stream element's hop from an OutputQueue to the consumer's InputQueue is
// the simulator's hot path, and it is meant to allocate nothing in steady
// state. A delta checkpoint of a large keyed state is meant to copy only the
// chunks written since its base, never the whole state. These tests count
// every allocation the process makes, and its bytes: with a replaced global
// operator new, or, under a sanitizer (whose own allocator must stay in
// place), with the sanitizer's malloc hook. The replacement covers the whole
// executable, which is why these tests have one of their own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>

#include "exp/scenario.hpp"
#include "net/network.hpp"
#include "perf/workloads.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define STREAMHA_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define STREAMHA_SANITIZED 1
#endif
#endif

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};
}  // namespace

#ifdef STREAMHA_SANITIZED
// From <sanitizer/allocator_interface.h>, which GCC does not install.
extern "C" int __sanitizer_install_malloc_and_free_hooks(
    void (*malloc_hook)(const volatile void*, std::size_t),
    void (*free_hook)(const volatile void*));

namespace {
void countMalloc(const volatile void*, std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
}
void ignoreFree(const volatile void*) {}
// The runtime refuses a null hook.
[[maybe_unused]] const int g_hooked =
    __sanitizer_install_malloc_and_free_hooks(countMalloc, ignoreFree);
}  // namespace
#else
// operator new[] and the nothrow forms call this one by default.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line: inlined into a caller that does not inline operator new as
// well, the free() reads to GCC's -Wmismatched-new-delete as a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
#endif

namespace streamha {
namespace {

template <typename F>
std::uint64_t allocationsDuring(F&& body) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  body();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

template <typename F>
std::uint64_t bytesAllocatedDuring(F&& body) {
  const std::uint64_t before = g_bytes.load(std::memory_order_relaxed);
  body();
  return g_bytes.load(std::memory_order_relaxed) - before;
}

/// Consumes data messages and keeps nothing but their element count.
struct CountingReceiver final : ElementReceiver {
  void receive(std::span<const Element> batch) override {
    received += batch.size();
  }
  std::uint64_t received = 0;
};

int* volatile g_escaped = nullptr;  ///< Keeps an allocation from being elided.

TEST(AllocationBudget, CounterSeesAllocations) {
  EXPECT_EQ(allocationsDuring([] { g_escaped = new int(7); }), 1u);
  delete g_escaped;
  EXPECT_EQ(bytesAllocatedDuring([] { g_escaped = new int(7); }),
            sizeof(int));
  delete g_escaped;
}

TEST(AllocationBudget, SingleElementMessagesAllocateNothingAfterWarmUp) {
  Simulator sim;
  Network net(sim, Network::Params{}, [](MachineId) { return true; });
  CountingReceiver receiver;
  Element e;
  e.stream = 1;
  // 1000 messages in flight at once, then delivered: the link heap, the
  // event slots and the event queue reach their size in the warm-up round.
  const auto round = [&](MachineId dst) {
    for (int i = 0; i < 1000; ++i) {
      ++e.seq;
      net.sendElements(0, dst, receiver, e);
    }
    sim.runAll();
  };
  round(1);
  round(0);
  EXPECT_EQ(allocationsDuring([&] { round(1); }), 0u) << "cross-machine";
  EXPECT_EQ(allocationsDuring([&] { round(0); }), 0u) << "loopback";
  EXPECT_EQ(receiver.received, 4000u);
}

TEST(AllocationBudget, PaperHybridRunStaysUnderBudget) {
  // bench/perf's paper_hybrid workload, seed 1, cut to 10 s.
  const perf::Workload* workload = perf::findWorkload("paper_hybrid");
  ASSERT_NE(workload, nullptr);
  const ScenarioParams p = workload->params(1, 10 * kSecond);
  Scenario s(p);
  s.build();
  s.start();
  s.startFailures();
  Simulator& sim = s.cluster().sim();
  const std::uint64_t firedBefore = sim.firedEvents();
  const std::uint64_t allocations =
      allocationsDuring([&] { s.run(p.duration); });
  const std::uint64_t events = sim.firedEvents() - firedBefore;
  ASSERT_GT(events, 100'000u);
  const double perEvent =
      static_cast<double>(allocations) / static_cast<double>(events);
  RecordProperty("allocations", std::to_string(allocations));
  RecordProperty("events", std::to_string(events));
  EXPECT_LE(perEvent, 0.3) << allocations << " allocations over " << events
                           << " fired events";
}

TEST(AllocationBudget, KeyedStateRunAllocatesUnderHalfAStatePerDeltaShip) {
  // bench/perf's keyed_state workload, seed 1, cut to 10 s: 256 KB of keyed
  // state per PE, shipped as delta checkpoints. A steady-state ship reads,
  // compares and copies only the chunks written since its base, so it must
  // not allocate anything near a whole state; one serialize(), one full
  // diff or one full replica reload per ship would each cost 256 KB.
  const perf::Workload* workload = perf::findWorkload("keyed_state");
  ASSERT_NE(workload, nullptr);
  const ScenarioParams p = workload->params(1, 10 * kSecond);
  Scenario s(p);
  s.build();
  s.start();
  s.startFailures();
  const std::uint64_t bytes = bytesAllocatedDuring([&] { s.run(p.duration); });
  const ScenarioResult r = s.collect();
  ASSERT_GT(r.state.deltaShips, 1000u);
  const std::uint64_t perShip = bytes / r.state.deltaShips;
  RecordProperty("bytes", std::to_string(bytes));
  RecordProperty("delta_ships", std::to_string(r.state.deltaShips));
  EXPECT_LE(perShip, 128u * 1024u)
      << bytes << " bytes over " << r.state.deltaShips << " delta ships";
}

}  // namespace
}  // namespace streamha
