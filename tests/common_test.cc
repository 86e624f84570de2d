#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/clock.h"
#include "common/enum_option.h"
#include "common/heap.h"
#include "common/ids.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table.h"

namespace xar {
namespace {

// --- Status / Result ---------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("no such ride");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "no such ride");
  EXPECT_EQ(s.ToString(), "NotFound: no such ride");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::Internal("x"), Status::Internal("x"));
  EXPECT_FALSE(Status::Internal("x") == Status::Internal("y"));
  EXPECT_FALSE(Status::Internal("x") == Status::NotFound("x"));
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status UsesReturnIfError(int x) {
  XAR_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(UsesReturnIfError(1).ok());
  EXPECT_EQ(UsesReturnIfError(-1).code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r = Status::NotFound("gone");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r = std::vector<int>{1, 2, 3};
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

// --- Strong ids ---------------------------------------------------------------

TEST(StrongIdTest, InvalidByDefault) {
  NodeId n;
  EXPECT_FALSE(n.valid());
  EXPECT_EQ(n, NodeId::Invalid());
}

TEST(StrongIdTest, ComparisonAndHash) {
  RideId a(1), b(2), c(1);
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
  EXPECT_EQ(std::hash<RideId>()(a), std::hash<RideId>()(c));
}

// --- Rng -----------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.Uniform(-5.0, 5.0);
    EXPECT_GE(x, -5.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(2);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    std::int64_t x = rng.UniformInt(3, 7);
    EXPECT_GE(x, 3);
    EXPECT_LE(x, 7);
    saw_lo |= x == 3;
    saw_hi |= x == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalHasRoughMoments) {
  Rng rng(3);
  StatAccumulator acc;
  for (int i = 0; i < 20000; ++i) acc.Add(rng.Normal(10.0, 2.0));
  EXPECT_NEAR(acc.mean(), 10.0, 0.1);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.1);
}

TEST(RngTest, PoissonMeanMatches) {
  Rng rng(4);
  StatAccumulator acc;
  for (int i = 0; i < 20000; ++i) acc.Add(rng.Poisson(3.5));
  EXPECT_NEAR(acc.mean(), 3.5, 0.1);
}

TEST(RngTest, WeightedRespectsWeights) {
  Rng rng(5);
  std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.Weighted(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.4);
}

TEST(RngTest, BernoulliProbability) {
  Rng rng(6);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.25);
  EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

// --- Stats ----------------------------------------------------------------------

TEST(StatAccumulatorTest, BasicMoments) {
  StatAccumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.Add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_NEAR(acc.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(StatAccumulatorTest, EmptyIsZero) {
  StatAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
}

TEST(PercentileTrackerTest, ExactPercentiles) {
  PercentileTracker t;
  for (int i = 100; i >= 1; --i) t.Add(i);  // 1..100
  EXPECT_DOUBLE_EQ(t.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(t.Percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(t.Percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(t.Percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(t.min(), 1.0);
  EXPECT_DOUBLE_EQ(t.max(), 100.0);
  EXPECT_DOUBLE_EQ(t.mean(), 50.5);
}

TEST(PercentileTrackerTest, FractionAtMost) {
  PercentileTracker t;
  for (int i = 1; i <= 10; ++i) t.Add(i);
  EXPECT_DOUBLE_EQ(t.FractionAtMost(0.5), 0.0);
  EXPECT_DOUBLE_EQ(t.FractionAtMost(5.0), 0.5);
  EXPECT_DOUBLE_EQ(t.FractionAtMost(10.0), 1.0);
  EXPECT_DOUBLE_EQ(t.FractionAtMost(100.0), 1.0);
}

TEST(PercentileTrackerTest, InterleavedAddAndQuery) {
  PercentileTracker t;
  t.Add(5);
  EXPECT_DOUBLE_EQ(t.Percentile(50), 5.0);
  t.Add(1);
  t.Add(9);
  EXPECT_DOUBLE_EQ(t.Percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(t.max(), 9.0);
}

// --- Heap -------------------------------------------------------------------------

TEST(IndexedMinHeapTest, PopsInOrder) {
  IndexedMinHeap heap(10);
  heap.Push(3, 5.0);
  heap.Push(1, 2.0);
  heap.Push(7, 8.0);
  heap.Push(2, 1.0);
  EXPECT_EQ(heap.size(), 4u);
  EXPECT_EQ(heap.PopMin(), 2u);
  EXPECT_EQ(heap.PopMin(), 1u);
  EXPECT_EQ(heap.PopMin(), 3u);
  EXPECT_EQ(heap.PopMin(), 7u);
  EXPECT_TRUE(heap.empty());
}

TEST(IndexedMinHeapTest, DecreaseKeyReorders) {
  IndexedMinHeap heap(10);
  heap.Push(0, 10.0);
  heap.Push(1, 20.0);
  heap.Push(2, 30.0);
  heap.DecreaseKey(2, 5.0);
  EXPECT_EQ(heap.PopMin(), 2u);
  heap.DecreaseKey(1, 50.0);  // not lower: no-op
  EXPECT_EQ(heap.PopMin(), 0u);
  EXPECT_EQ(heap.PopMin(), 1u);
}

TEST(IndexedMinHeapTest, RandomizedAgainstSort) {
  Rng rng(7);
  IndexedMinHeap heap(500);
  std::vector<std::pair<double, std::size_t>> expect;
  for (std::size_t i = 0; i < 500; ++i) {
    double key = rng.Uniform(0, 1000);
    heap.PushOrDecrease(i, key);
    expect.emplace_back(key, i);
  }
  // Randomly decrease some keys.
  for (int i = 0; i < 200; ++i) {
    std::size_t id = rng.NextIndex(500);
    double nk = rng.Uniform(0, expect[id].first);
    heap.DecreaseKey(id, nk);
    expect[id].first = std::min(expect[id].first, nk);
  }
  std::sort(expect.begin(), expect.end());
  for (const auto& [key, id] : expect) {
    EXPECT_DOUBLE_EQ(heap.MinKey(), key);
    EXPECT_EQ(heap.PopMin(), id);
  }
}

TEST(IndexedMinHeapTest, ClearIsReusable) {
  IndexedMinHeap heap(4);
  heap.Push(0, 1.0);
  heap.Push(1, 2.0);
  heap.Clear();
  EXPECT_TRUE(heap.empty());
  EXPECT_FALSE(heap.Contains(0));
  heap.Push(0, 9.0);
  EXPECT_EQ(heap.PopMin(), 0u);
}

// --- Table / clock ------------------------------------------------------------------

TEST(TextTableTest, AlignsColumns) {
  TextTable t({"a", "long_header"});
  t.AddRow({"xxxxx", "1"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("long_header"), std::string::npos);
  EXPECT_NE(s.find("xxxxx"), std::string::npos);
  // Header, separator, one row.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 3);
}

TEST(TextTableTest, NumFormatsPrecision) {
  EXPECT_EQ(TextTable::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::Num(2.0, 0), "2");
}

enum class Flavor { kVanilla, kMint };

TEST(EnumOptionTest, ParsesKnownSpellings) {
  Result<Flavor> v = ParseEnumOption<Flavor>(
      "flavor", "vanilla", {{"vanilla", Flavor::kVanilla}, {"mint", Flavor::kMint}});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), Flavor::kVanilla);
  Result<Flavor> m = ParseEnumOption<Flavor>(
      "flavor", "mint", {{"vanilla", Flavor::kVanilla}, {"mint", Flavor::kMint}});
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.value(), Flavor::kMint);
}

TEST(EnumOptionTest, UnknownValueGetsUniformMessage) {
  Result<Flavor> r = ParseEnumOption<Flavor>(
      "flavor", "pistachio",
      {{"vanilla", Flavor::kVanilla}, {"mint", Flavor::kMint}});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.status().message(),
            "unknown flavor \"pistachio\" (valid: vanilla, mint)");
}

TEST(EnumOptionTest, MatchIsCaseSensitiveAndExact) {
  // No silent fall-through: near-misses are hard errors.
  for (const char* bad : {"Vanilla", "VANILLA", "vanilla ", ""}) {
    Result<Flavor> r = ParseEnumOption<Flavor>(
        "flavor", bad, {{"vanilla", Flavor::kVanilla}});
    EXPECT_FALSE(r.ok()) << "\"" << bad << "\" should not parse";
  }
}

TEST(ClockTest, VirtualClockMonotone) {
  VirtualClock clock;
  clock.AdvanceTo(100);
  clock.AdvanceTo(50);  // cannot go backwards
  EXPECT_DOUBLE_EQ(clock.Now(), 100.0);
  clock.AdvanceTo(200);
  EXPECT_DOUBLE_EQ(clock.Now(), 200.0);
}

TEST(ClockTest, FormatTimeOfDay) {
  char buf[16];
  FormatTimeOfDay(8 * 3600 + 5 * 60 + 9, buf);
  EXPECT_STREQ(buf, "08:05:09");
  FormatTimeOfDay(25 * 3600, buf);  // wraps
  EXPECT_STREQ(buf, "01:00:00");
}

TEST(ClockTest, StopwatchAdvances) {
  Stopwatch w;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  double s = w.ElapsedSeconds();
  EXPECT_GT(s, 0.0);
  // Millis/micros read the clock again, so only a lower bound holds.
  EXPECT_GE(w.ElapsedMillis(), s * 1e3);
  EXPECT_GE(w.ElapsedMicros(), s * 1e6);
}

}  // namespace
}  // namespace xar
