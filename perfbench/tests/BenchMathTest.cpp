//===- perfbench/tests/BenchMathTest.cpp - Harness math tests -------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the benchmark's own measuring math: percentiles, the seeded
/// Poisson schedule, and span self times.
///
//===----------------------------------------------------------------------===//

#include "BenchMath.h"

#include <gtest/gtest.h>

#include <numeric>

using namespace pb;

TEST(Percentile, InterpolatesBetweenClosestRanks) {
  std::vector<double> V = {40, 10, 30, 20}; // sorted: 10 20 30 40
  EXPECT_DOUBLE_EQ(percentile(V, 0), 10);
  EXPECT_DOUBLE_EQ(percentile(V, 100), 40);
  EXPECT_DOUBLE_EQ(percentile(V, 50), 25);       // rank 1.5
  EXPECT_DOUBLE_EQ(percentile(V, 25), 17.5);     // rank 0.75
  EXPECT_NEAR(percentile(V, 99), 39.7, 1e-9);    // rank 2.97
}

TEST(Percentile, EdgeCases) {
  EXPECT_EQ(percentile({}, 50), 0);
  EXPECT_EQ(percentile({7}, 99), 7);
  EXPECT_EQ(percentile({1, 2}, 150), 2); // clamped
}

TEST(Percentile, P99OfOneToThousand) {
  std::vector<double> V(1000);
  std::iota(V.begin(), V.end(), 1.0);
  EXPECT_NEAR(percentile(V, 99), 990.01, 1e-9); // rank 989.01
}

TEST(Windows, SplitByCompletionTime) {
  // [100, 200] in 4 windows of 25 ns; samples at/after the end land last.
  std::vector<TimedSample> S = {{100, 1}, {124, 2}, {125, 3}, {180, 4},
                                {200, 5}, {250, 6}, {90, 7}};
  auto W = splitWindows(S, 100, 200, 4);
  ASSERT_EQ(W.size(), 4u);
  EXPECT_EQ(W[0], (std::vector<double>{1, 2, 7})); // before start -> first
  EXPECT_EQ(W[1], (std::vector<double>{3}));
  EXPECT_TRUE(W[2].empty());
  EXPECT_EQ(W[3], (std::vector<double>{4, 5, 6}));
}

TEST(Windows, OneWindowHoldsEverything) {
  std::vector<TimedSample> S = {{5, 1}, {50, 2}};
  auto W = splitWindows(S, 0, 10, 1);
  EXPECT_EQ(W[0].size(), 2u);
}

TEST(Poisson, SameSeedSameSchedule) {
  EXPECT_EQ(poissonArrivals(7, 100, 5), poissonArrivals(7, 100, 5));
  EXPECT_NE(poissonArrivals(7, 100, 5), poissonArrivals(8, 100, 5));
}

TEST(Poisson, ArrivalsAreOrderedAndInsideHorizon) {
  std::vector<double> A = poissonArrivals(3, 50, 10);
  ASSERT_FALSE(A.empty());
  EXPECT_GT(A.front(), 0);
  EXPECT_LT(A.back(), 10);
  EXPECT_TRUE(std::is_sorted(A.begin(), A.end()));
}

TEST(Poisson, RateAndExponentialGaps) {
  // 200/s over 100 s: 20000 expected arrivals, sd ~141.
  std::vector<double> A = poissonArrivals(11, 200, 100);
  EXPECT_NEAR(static_cast<double>(A.size()), 20000, 600);
  // Exponential gaps: mean 1/rate, and P(gap > mean) = e^-1.
  double Sum = 0;
  std::size_t Long = 0;
  for (std::size_t I = 1; I != A.size(); ++I) {
    double Gap = A[I] - A[I - 1];
    Sum += Gap;
    Long += Gap > 1.0 / 200;
  }
  double N = static_cast<double>(A.size() - 1);
  EXPECT_NEAR(Sum / N, 1.0 / 200, 0.0002);
  EXPECT_NEAR(static_cast<double>(Long) / N, std::exp(-1.0), 0.015);
}

TEST(Poisson, ZeroRateIsEmpty) { EXPECT_TRUE(poissonArrivals(1, 0, 10).empty()); }

namespace {
Span mk(const char *Name, std::uint64_t Id, std::uint64_t Parent,
        std::uint64_t Start, std::uint64_t End) {
  return {Name, Id, Parent, 0, Start, End};
}
} // namespace

TEST(SelfTime, LeafIsItsDuration) {
  auto Self = selfTimesNs({mk("a", 1, 0, 100, 250)});
  EXPECT_EQ(Self[0], 150u);
}

TEST(SelfTime, SubtractsDisjointChildren) {
  auto Self = selfTimesNs({mk("root", 1, 0, 0, 100), mk("c1", 2, 1, 10, 30),
                           mk("c2", 3, 1, 50, 60)});
  EXPECT_EQ(Self[0], 70u);
  EXPECT_EQ(Self[1], 20u);
  EXPECT_EQ(Self[2], 10u);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Children [10,40) and [30,70) and nested [35,38): union is [10,70).
  auto Self = selfTimesNs({mk("c2", 3, 1, 30, 70), mk("root", 1, 0, 0, 100),
                           mk("c1", 2, 1, 10, 40), mk("c3", 4, 1, 35, 38)});
  EXPECT_EQ(Self[1], 40u);
}

TEST(SelfTime, ChildrenClippedToParent) {
  // A child that outlives its parent only covers the parent's interval.
  auto Self = selfTimesNs({mk("root", 1, 0, 0, 100), mk("c", 2, 1, 80, 300)});
  EXPECT_EQ(Self[0], 80u);
  EXPECT_EQ(Self[1], 220u);
}

TEST(SelfTime, OnlyDirectChildrenSubtract) {
  auto Self = selfTimesNs({mk("root", 1, 0, 0, 100), mk("mid", 2, 1, 0, 50),
                           mk("leaf", 3, 2, 0, 50)});
  EXPECT_EQ(Self[0], 50u);
  EXPECT_EQ(Self[1], 0u);
  EXPECT_EQ(Self[2], 50u);
}

TEST(SelfTime, UnknownParentIsIgnored) {
  auto Self = selfTimesNs({mk("orphan", 2, 99, 0, 10)});
  EXPECT_EQ(Self[0], 10u);
}

TEST(SpanLog, IdsAreUniqueAndNonZero) {
  SpanLog L;
  std::uint64_t A = L.newId(), B = L.newId();
  EXPECT_NE(A, 0u);
  EXPECT_NE(A, B);
  L.record(mk("x", A, 0, 1, 2));
  EXPECT_EQ(L.spans().size(), 1u);
}
