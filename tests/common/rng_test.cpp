#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace streamha {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.nextU64(), b.nextU64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.nextU64() == b.nextU64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  Rng parent(7);
  Rng childA = parent.fork(1);
  Rng childB = parent.fork(2);
  Rng childA2 = Rng(7).fork(1);
  EXPECT_EQ(childA.nextU64(), childA2.nextU64());
  EXPECT_NE(childA.nextU64(), childB.nextU64());
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.nextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformIntStaysInBoundsAndCoversRange) {
  Rng rng(4);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniformInt(3, 8);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 8);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(Rng, UniformIntSingleValue) {
  Rng rng(5);
  EXPECT_EQ(rng.uniformInt(9, 9), 9);
}

TEST(Rng, UniformRealRange) {
  Rng rng(6);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniformReal(-2.0, 3.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng(8);
  double total = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) total += rng.exponential(5.0);
  EXPECT_NEAR(total / n, 5.0, 0.15);
}

TEST(Rng, ExponentialIsPositive) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.exponential(1.0), 0.0);
}

TEST(Rng, NormalMeanAndStddev) {
  Rng rng(10);
  const int n = 50000;
  double sum = 0, sumsq = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, LogNormalPositive) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.logNormal(0.0, 1.0), 0.0);
}

TEST(Rng, ChanceProbability) {
  Rng rng(12);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, StableHashIsStableAndDiscriminates) {
  EXPECT_EQ(stableHash("source"), stableHash("source"));
  EXPECT_NE(stableHash("source"), stableHash("sink"));
  EXPECT_NE(stableHash(""), stableHash("a"));
}

}  // namespace
}  // namespace streamha
