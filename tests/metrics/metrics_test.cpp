#include <gtest/gtest.h>

#include <sstream>

#include "metrics/latency.hpp"
#include "metrics/recovery.hpp"
#include "metrics/report.hpp"

namespace streamha {
namespace {

TEST(RecoveryTimeline, Decomposition) {
  RecoveryTimeline t;
  t.failureStart = 1000 * kMillisecond;
  t.detectedAt = 1300 * kMillisecond;
  t.redeployDoneAt = 1800 * kMillisecond;
  t.firstOutputAt = 2000 * kMillisecond;
  EXPECT_TRUE(t.complete());
  EXPECT_DOUBLE_EQ(t.detectionMs(), 300.0);
  EXPECT_DOUBLE_EQ(t.redeployMs(), 500.0);
  EXPECT_DOUBLE_EQ(t.retransmitMs(), 200.0);
  EXPECT_DOUBLE_EQ(t.totalMs(), 1000.0);
  EXPECT_DOUBLE_EQ(t.switchoverMs(), 700.0);
}

TEST(RecoveryTimeline, IncompleteYieldsZeroes) {
  RecoveryTimeline t;
  t.detectedAt = kSecond;
  EXPECT_FALSE(t.complete());
  EXPECT_DOUBLE_EQ(t.detectionMs(), 0.0);
  EXPECT_DOUBLE_EQ(t.totalMs(), 0.0);
}

TEST(RecoveryTimeline, RollbackWindow) {
  RecoveryTimeline t;
  t.rollbackStartAt = 5 * kSecond;
  t.rollbackDoneAt = 5 * kSecond + 40 * kMillisecond;
  EXPECT_DOUBLE_EQ(t.rollbackMs(), 40.0);
}

TEST(RecoveryBreakdown, AveragesOnlyCompleteTimelines) {
  RecoveryBreakdown b;
  RecoveryTimeline complete;
  complete.failureStart = 0;
  complete.detectedAt = 100 * kMillisecond;
  complete.redeployDoneAt = 200 * kMillisecond;
  complete.firstOutputAt = 250 * kMillisecond;
  RecoveryTimeline incomplete;
  incomplete.detectedAt = kSecond;
  b.addAll({complete, incomplete});
  EXPECT_EQ(b.count, 1u);
  EXPECT_DOUBLE_EQ(b.detectionMs.mean(), 100.0);
  EXPECT_DOUBLE_EQ(b.totalMs.mean(), 250.0);
}

TEST(DelaySplit, SplitsByWindows) {
  std::vector<std::pair<SimTime, double>> series = {
      {1 * kSecond, 10.0},
      {2 * kSecond, 100.0},
      {3 * kSecond, 12.0},
  };
  std::vector<std::pair<SimTime, SimTime>> windows = {
      {1900 * kMillisecond, 2100 * kMillisecond}};
  const auto split = splitDelaysByWindows(series, windows);
  EXPECT_EQ(split.overall.count(), 3u);
  EXPECT_DOUBLE_EQ(split.duringFailure.mean(), 100.0);
  EXPECT_DOUBLE_EQ(split.outsideFailure.mean(), 11.0);
  EXPECT_NEAR(split.failureInflation(), 100.0 / 11.0, 1e-9);
}

TEST(DelaySplit, RespectsRange) {
  std::vector<std::pair<SimTime, double>> series = {
      {1 * kSecond, 10.0}, {5 * kSecond, 20.0}};
  const auto split =
      splitDelaysByWindows(series, {}, 2 * kSecond, kTimeNever);
  EXPECT_EQ(split.overall.count(), 1u);
  EXPECT_DOUBLE_EQ(split.overall.mean(), 20.0);
}

TEST(MergeWindows, MergesOverlapsAcrossLists) {
  auto merged = mergeWindows({
      {{0, 10}, {20, 30}},
      {{5, 15}, {40, 50}},
  });
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0], (std::pair<SimTime, SimTime>{0, 15}));
  EXPECT_EQ(merged[1], (std::pair<SimTime, SimTime>{20, 30}));
  EXPECT_EQ(merged[2], (std::pair<SimTime, SimTime>{40, 50}));
}

TEST(MergeWindows, TouchingWindowsMerge) {
  auto merged = mergeWindows({{{0, 10}, {10, 20}}});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].second, 20);
}

TEST(Table, PrintsAlignedColumns) {
  Table table({"mode", "delay"});
  table.addRow({"Hybrid", Table::num(12.3456, 1)});
  table.addRow({"PS", Table::num(99.9, 1)});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("mode"), std::string::npos);
  EXPECT_NE(text.find("12.3"), std::string::npos);
  EXPECT_NE(text.find("Hybrid"), std::string::npos);
  EXPECT_NE(text.find("----"), std::string::npos);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(3.0, 0), "3");
  EXPECT_EQ(Table::integer(42), "42");
}

TEST(Table, CsvEscapesSpecialCharacters) {
  Table table({"name", "value"});
  table.addRow({"plain", "1"});
  table.addRow({"with,comma", "say \"hi\""});
  std::ostringstream out;
  table.writeCsv(out);
  EXPECT_EQ(out.str(),
            "name,value\n"
            "plain,1\n"
            "\"with,comma\",\"say \"\"hi\"\"\"\n");
}

TEST(Table, CsvFileRequiresDirectory) {
  Table table({"a"});
  EXPECT_FALSE(table.writeCsvFile("", "x"));
  EXPECT_FALSE(table.writeCsvFile("/nonexistent-dir-zz", "x"));
}

TEST(Table, ShortRowsArePadded) {
  Table table({"a", "b", "c"});
  table.addRow({"x"});
  std::ostringstream out;
  table.print(out);
  EXPECT_NE(out.str().find('x'), std::string::npos);
}

}  // namespace
}  // namespace streamha
