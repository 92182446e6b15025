#include "cluster/load_trace.hpp"

#include <gtest/gtest.h>

namespace streamha {
namespace {

TEST(AnalyzeLoadTrace, NoSpikes) {
  std::vector<double> trace(100, 0.4);
  const auto stats = analyzeLoadTrace(trace, 0.25);
  EXPECT_EQ(stats.spikeCount, 0);
  EXPECT_EQ(stats.avgDurationSec, 0.0);
  EXPECT_EQ(stats.avgInterFailureSec, 0.0);
}

TEST(AnalyzeLoadTrace, SingleSpikeDuration) {
  std::vector<double> trace(100, 0.4);
  for (int i = 10; i < 18; ++i) trace[i] = 0.99;  // 8 samples = 2 s.
  const auto stats = analyzeLoadTrace(trace, 0.25);
  EXPECT_EQ(stats.spikeCount, 1);
  EXPECT_DOUBLE_EQ(stats.avgDurationSec, 2.0);
  EXPECT_EQ(stats.avgInterFailureSec, 0.0);  // Needs >= 2 spikes.
}

TEST(AnalyzeLoadTrace, InterFailureTimeIsStartToStart) {
  std::vector<double> trace(200, 0.2);
  trace[10] = trace[11] = 1.0;   // Spike 1 starts at sample 10.
  trace[50] = trace[51] = 1.0;   // Spike 2 starts at sample 50.
  trace[130] = trace[131] = 1.0; // Spike 3 starts at sample 130.
  const auto stats = analyzeLoadTrace(trace, 0.25);
  EXPECT_EQ(stats.spikeCount, 3);
  // Start gaps: 40 and 80 samples -> mean 60 samples = 15 s.
  EXPECT_DOUBLE_EQ(stats.avgInterFailureSec, 15.0);
  EXPECT_DOUBLE_EQ(stats.avgDurationSec, 0.5);
}

TEST(AnalyzeLoadTrace, ThresholdBoundary) {
  std::vector<double> trace(10, 0.949);
  EXPECT_EQ(analyzeLoadTrace(trace, 0.25, 0.95).spikeCount, 0);
  std::vector<double> trace2(10, 0.95);
  EXPECT_EQ(analyzeLoadTrace(trace2, 0.25, 0.95).spikeCount, 1);
}

TEST(AnalyzeLoadTrace, SpikeRunningIntoTraceEndCounts) {
  std::vector<double> trace(20, 0.3);
  for (int i = 16; i < 20; ++i) trace[i] = 1.0;
  const auto stats = analyzeLoadTrace(trace, 0.25);
  EXPECT_EQ(stats.spikeCount, 1);
  EXPECT_DOUBLE_EQ(stats.avgDurationSec, 1.0);
}

}  // namespace
}  // namespace streamha
