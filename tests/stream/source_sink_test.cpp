#include <gtest/gtest.h>

#include "stream/sink.hpp"
#include "stream/source.hpp"

namespace streamha {
namespace {

struct SourceSinkFixture : ::testing::Test {
  Simulator sim;
  Network net{sim, Network::Params{}, [](MachineId) { return true; }};
  Rng rng{9};
  std::unique_ptr<Machine> m0 = std::make_unique<Machine>(sim, 0, rng.fork(0));
  std::unique_ptr<Machine> m1 = std::make_unique<Machine>(sim, 1, rng.fork(1));
};

TEST_F(SourceSinkFixture, ConstantRateGeneratesExpectedCount) {
  Source::Params params;
  params.ratePerSec = 1000;
  params.pattern = Source::Pattern::kConstant;
  Source source(sim, *m0, net, 5, params, rng.fork(2));
  source.start();
  sim.runUntil(2 * kSecond);
  EXPECT_EQ(source.generatedCount(), 2000u);
  EXPECT_EQ(source.output().nextSeq(), 2001u);
}

TEST_F(SourceSinkFixture, PoissonRateApproximatesTarget) {
  Source::Params params;
  params.ratePerSec = 1000;
  params.pattern = Source::Pattern::kPoisson;
  Source source(sim, *m0, net, 5, params, rng.fork(3));
  source.start();
  sim.runUntil(20 * kSecond);
  EXPECT_NEAR(static_cast<double>(source.generatedCount()), 20000.0, 600.0);
}

TEST_F(SourceSinkFixture, BurstyPreservesLongRunAverage) {
  Source::Params params;
  params.ratePerSec = 1000;
  params.pattern = Source::Pattern::kBursty;
  Source source(sim, *m0, net, 5, params, rng.fork(4));
  source.start();
  sim.runUntil(40 * kSecond);
  EXPECT_NEAR(static_cast<double>(source.generatedCount()), 40000.0, 3000.0);
}

TEST_F(SourceSinkFixture, ShapingCapsEmissionRate) {
  Source::Params params;
  params.ratePerSec = 1000;
  params.pattern = Source::Pattern::kBursty;
  params.shapeRatePerSec = 1100;  // Just above the long-run average.
  Source source(sim, *m0, net, 5, params, rng.fork(7));
  std::vector<SimTime> arrivals;
  source.output().addConnection(
      1, true, true, [&](std::vector<Element> batch) {
        arrivals.insert(arrivals.end(), batch.size(), sim.now());
      });
  source.start();
  sim.runUntil(10 * kSecond);
  // No two emissions closer than the shaped gap (within delivery jitter of
  // the shared link; compare consecutive arrivals).
  const SimDuration minGap = kSecond / 1100;
  std::size_t violations = 0;
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    if (arrivals[i] - arrivals[i - 1] < minGap - 2) ++violations;
  }
  EXPECT_EQ(violations, 0u);
  // Long-run throughput preserved.
  EXPECT_NEAR(static_cast<double>(source.generatedCount()), 10000.0, 1200.0);
}

TEST_F(SourceSinkFixture, ShapingPreservesCreationTimestamps) {
  Source::Params params;
  params.ratePerSec = 2000;
  params.pattern = Source::Pattern::kConstant;
  params.shapeRatePerSec = 1000;  // Half the offered rate: backlog grows.
  Source source(sim, *m0, net, 5, params, rng.fork(8));
  SimTime lastSourceTs = 0;
  SimTime lastEmit = 0;
  source.output().addConnection(1, true, true,
                                [&](std::vector<Element> batch) {
                                  lastSourceTs = batch.back().sourceTs;
                                  lastEmit = sim.now();
                                });
  source.start();
  sim.runUntil(2 * kSecond);
  EXPECT_GT(source.shaperBacklog(), 500u);   // ~1000/s deficit for 2 s... half.
  // The element released around t=2s was created around t=1s: shaping delay
  // is charged to the element.
  EXPECT_GT(lastEmit - lastSourceTs, 500 * kMillisecond);
}

TEST_F(SourceSinkFixture, StopHaltsGeneration) {
  Source::Params params;
  params.ratePerSec = 1000;
  Source source(sim, *m0, net, 5, params, rng.fork(5));
  source.start();
  sim.runUntil(kSecond);
  source.stop();
  const auto count = source.generatedCount();
  sim.runUntil(3 * kSecond);
  EXPECT_EQ(source.generatedCount(), count);
}

TEST_F(SourceSinkFixture, SinkRecordsDelaysAndAcks) {
  Source::Params params;
  params.ratePerSec = 100;
  Source source(sim, *m0, net, 5, params, rng.fork(6));
  Sink sink(sim, *m1);
  sink.subscribe(5);
  source.output().addConnection(
      1, true, true,
      [&sink](std::vector<Element> batch) { sink.input().receive(batch); });
  // Ack path back to the source queue.
  OutputQueue* oq = &source.output();
  sink.input().addUpstream(5, [oq](StreamId, ElementSeq upTo) {
    oq->onAck(1, upTo);
  });
  sink.start();
  source.start();
  sim.runUntil(2 * kSecond);
  source.stop();
  sim.runUntil(2 * kSecond + 100 * kMillisecond);  // Let the tail land.
  EXPECT_GT(sink.receivedCount(), 150u);
  EXPECT_GT(sink.delays().mean(), 0.0);
  EXPECT_LT(sink.delays().mean(), 5.0);  // Network latency only, ~0.1ms.
  // Acks flowed: the source queue trims.
  EXPECT_GT(oq->trimmedUpTo(), 100u);
  EXPECT_EQ(sink.highestSeq(5), source.generatedCount());
}

TEST_F(SourceSinkFixture, SinkMeanDelayBetweenWindows) {
  Sink sink(sim, *m1);
  sink.subscribe(5);
  auto deliver = [&](ElementSeq seq, SimTime sourceTs) {
    Element e;
    e.stream = 5;
    e.seq = seq;
    e.sourceTs = sourceTs;
    sink.input().receive({e});
  };
  sim.runUntil(kSecond);
  deliver(1, sim.now() - 10 * kMillisecond);  // 10ms at t=1s.
  sim.runUntil(2 * kSecond);
  deliver(2, sim.now() - 30 * kMillisecond);  // 30ms at t=2s.
  EXPECT_DOUBLE_EQ(sink.meanDelayBetween(0, 1500 * kMillisecond), 10.0);
  EXPECT_DOUBLE_EQ(sink.meanDelayBetween(1500 * kMillisecond, kTimeNever), 30.0);
  EXPECT_DOUBLE_EQ(sink.meanDelayBetween(0, kTimeNever), 20.0);
}

TEST_F(SourceSinkFixture, SinkResetStatsKeepsWatermarks) {
  Sink sink(sim, *m1);
  sink.subscribe(5);
  Element e;
  e.stream = 5;
  e.seq = 1;
  sink.input().receive({e});
  EXPECT_EQ(sink.receivedCount(), 1u);
  sink.resetStats();
  EXPECT_EQ(sink.receivedCount(), 0u);
  EXPECT_TRUE(sink.delays().empty());
  EXPECT_EQ(sink.highestSeq(5), 1u);  // Dedup state survives the reset.
}

TEST_F(SourceSinkFixture, SinkChecksumIsOrderSensitiveDeterministic) {
  Sink a(sim, *m1);
  Sink b(sim, *m1);
  a.subscribe(5);
  b.subscribe(5);
  for (ElementSeq s = 1; s <= 10; ++s) {
    Element e;
    e.stream = 5;
    e.seq = s;
    e.value = s * 3;
    a.input().receive({e});
    b.input().receive({e});
  }
  EXPECT_EQ(a.valueChecksum(), b.valueChecksum());
  EXPECT_NE(a.valueChecksum(), 0u);
}

}  // namespace
}  // namespace streamha
