#include "detect/detector_stats.hpp"

#include <gtest/gtest.h>

namespace streamha {
namespace {

TEST(DetectorScorer, ScoresDetectionsAndFalseAlarms) {
  DetectorScorer scorer(100 * kMillisecond);
  std::vector<std::pair<SimTime, SimTime>> spikes = {
      {1 * kSecond, 2 * kSecond},
      {5 * kSecond, 6 * kSecond},
      {9 * kSecond, 10 * kSecond},
  };
  scorer.onDeclared(1200 * kMillisecond);  // Inside spike 1.
  scorer.onDeclared(3 * kSecond);          // False alarm.
  scorer.onDeclared(5500 * kMillisecond);  // Inside spike 2.
  scorer.onDeclared(5800 * kMillisecond);  // Spike 2 again (one credit).
  const auto score = scorer.score(spikes);
  EXPECT_EQ(score.spikesTotal, 3u);
  EXPECT_EQ(score.spikesDetected, 2u);
  EXPECT_NEAR(score.detectionRatio, 2.0 / 3.0, 1e-9);
  EXPECT_EQ(score.declarations, 4u);
  EXPECT_EQ(score.falseAlarms, 1u);
  EXPECT_NEAR(score.falseAlarmRatio, 0.25, 1e-9);
  // Delays: 200 ms and 500 ms -> mean 350 ms.
  EXPECT_NEAR(score.avgDetectionDelayMs, 350.0, 1e-6);
}

TEST(DetectorScorer, GracePeriodCreditsLateDeclarations) {
  DetectorScorer scorer(300 * kMillisecond);
  std::vector<std::pair<SimTime, SimTime>> spikes = {{kSecond, 2 * kSecond}};
  scorer.onDeclared(2200 * kMillisecond);  // 200 ms after the spike ended.
  const auto score = scorer.score(spikes);
  EXPECT_EQ(score.spikesDetected, 1u);
  EXPECT_EQ(score.falseAlarms, 0u);
}

TEST(DetectorScorer, WindowFiltersSpikesAndDeclarations) {
  DetectorScorer scorer(0);
  std::vector<std::pair<SimTime, SimTime>> spikes = {
      {1 * kSecond, 2 * kSecond},
      {10 * kSecond, 11 * kSecond},
  };
  scorer.onDeclared(1500 * kMillisecond);
  scorer.onDeclared(10500 * kMillisecond);
  const auto score = scorer.score(spikes, 5 * kSecond, 20 * kSecond);
  EXPECT_EQ(score.spikesTotal, 1u);
  EXPECT_EQ(score.spikesDetected, 1u);
  EXPECT_EQ(score.declarations, 1u);
}

TEST(DetectorScorer, NoDeclarationsNoFalseAlarmRatio) {
  DetectorScorer scorer;
  std::vector<std::pair<SimTime, SimTime>> spikes = {{kSecond, 2 * kSecond}};
  const auto score = scorer.score(spikes);
  EXPECT_EQ(score.detectionRatio, 0.0);
  EXPECT_EQ(score.falseAlarmRatio, 0.0);
  EXPECT_EQ(score.avgDetectionDelayMs, 0.0);
}

TEST(DetectorScorer, ResetClearsDeclarations) {
  DetectorScorer scorer;
  scorer.onDeclared(kSecond);
  scorer.reset();
  EXPECT_TRUE(scorer.declarations().empty());
}

}  // namespace
}  // namespace streamha
