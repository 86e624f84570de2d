// Tests of the benchmark's own decision logic: the percentile rule, self
// time over overlapping children, the capacity ladder and the ledger check.

#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "bench_logic.h"
#include "trace.h"

namespace perfbench {
namespace {

TEST(PercentileRule, HighestQuantileKeepsTenSamplesBeyond) {
  EXPECT_EQ(HighestSupportedQuantile(9), 0.0);
  EXPECT_EQ(HighestSupportedQuantile(20), 0.5);
  EXPECT_EQ(HighestSupportedQuantile(99), 0.5);
  EXPECT_EQ(HighestSupportedQuantile(100), 0.9);
  EXPECT_EQ(HighestSupportedQuantile(999), 0.9);
  EXPECT_EQ(HighestSupportedQuantile(1000), 0.99);
  EXPECT_EQ(HighestSupportedQuantile(10000), 0.999);
  EXPECT_EQ(HighestSupportedQuantile(100000), 0.9999);
}

TEST(PercentileRule, SummaryReportsCountAndNearestRank) {
  std::vector<double> samples;
  for (int i = 1000; i >= 1; --i) samples.push_back(i);  // unsorted input
  const LatencySummary s = Summarize(samples);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.p50_us, 500.0);
  EXPECT_EQ(s.p99_us, 990.0);
  EXPECT_TRUE(s.p99_supported());
  EXPECT_EQ(s.tail_q, 0.99);
  EXPECT_FALSE(Summarize(std::vector<double>(999, 1.0)).p99_supported());
}

TEST(SelfTime, OverlappingChildrenAreCountedOnce) {
  // root [0, 100]; children [10, 40] and [30, 60] overlap on [30, 40], and
  // [90, 120] sticks out past the root. Covered: [10, 60] + [90, 100] = 60.
  // The grandchild [15, 20] belongs to child 1 only.
  std::vector<Span> spans(5);
  spans[0] = {"root", -1, 1, 0, 100};
  spans[1] = {"a", 0, 1, 10, 40};
  spans[2] = {"b", 0, 1, 30, 60};
  spans[3] = {"c", 0, 1, 90, 120};
  spans[4] = {"d", 1, 1, 15, 20};
  const std::vector<std::int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 40);
  EXPECT_EQ(self[1], 25);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 5);
}

TEST(SelfTime, RecorderNestsByCallStack) {
  SpanRecorder recorder(8);
  {
    ScopedSpan outer(&recorder, "outer", 7);
    { ScopedSpan inner(&recorder, "inner"); }
  }
  { ScopedSpan next(&recorder, "next", 9); }
  const std::vector<Span> spans = recorder.Spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].request, 7u);  // inherited from the open span
  EXPECT_EQ(spans[2].parent, -1);
  EXPECT_EQ(spans[2].request, 9u);
  for (const Span& s : spans) EXPECT_GE(s.end_ns, s.start_ns);
}

TEST(SelfTime, FullRecorderDropsInsteadOfOverflowing) {
  SpanRecorder recorder(1);
  { ScopedSpan a(&recorder, "a"); }
  { ScopedSpan b(&recorder, "b"); }
  EXPECT_EQ(recorder.Spans().size(), 1u);
  EXPECT_EQ(recorder.dropped(), 1u);
}

/// M/M/1-like synthetic server: p99 grows as 1 / (1 - rate / capacity);
/// past capacity the queue sheds and backs up.
RungResult SyntheticRung(double rate, double capacity, double base_us) {
  RungResult r;
  r.rate_rps = rate;
  r.sent = static_cast<std::size_t>(rate);
  if (rate >= capacity) {
    r.failed = static_cast<std::size_t>(rate - capacity) + 1;
    r.backlog = 500;
    r.p99_us = std::numeric_limits<double>::infinity();
  } else {
    r.p99_us = base_us / (1.0 - rate / capacity);
  }
  return r;
}

TEST(CapacityLadder, BisectionFindsTheHighestRungUnderTheLimit) {
  const double limit_us = 2000.0;
  // base 200 us: p99 reaches 2 ms at 90% of a 10k rps capacity = 9000 rps.
  const std::vector<double> ladder = LadderRates(4000, 1.05, 24);
  ASSERT_EQ(ladder[1], 4200.0);
  std::vector<double> probed;
  auto passes = [&](double rate) {
    probed.push_back(rate);
    return RungPasses(SyntheticRung(rate, 10000, 200), limit_us, 4);
  };
  // The highest rung below 9000 rps: 4000 * 1.05^16 = 8731.
  EXPECT_EQ(BisectCapacity(ladder, passes), 8731.0);
  EXPECT_LE(probed.size(), 5u);  // log2(24) probes, not a linear climb

  // Past capacity the queue sheds, which fails a rung whatever its p99.
  RungResult shed = SyntheticRung(12000, 10000, 200);
  EXPECT_FALSE(RungPasses(shed, 1e12, 4));
  // A backlog that is still growing fails a rung even when p99 looks fine.
  RungResult backlog = SyntheticRung(5000, 10000, 200);
  EXPECT_TRUE(RungPasses(backlog, limit_us, 4));
  backlog.backlog = 1000;
  EXPECT_FALSE(RungPasses(backlog, limit_us, 4));

  // Nothing passes when the lowest rung fails.
  EXPECT_EQ(BisectCapacity(ladder, [](double) { return false; }), 0.0);
  EXPECT_EQ(BisectCapacity(ladder, [](double) { return true; }),
            ladder.back());
}

TEST(Ledger, AcceptsAConsistentRun) {
  std::vector<ServerRideState> rides = {{0, 3, 1, 700.0, 4000.0},
                                        {1, 3, 3, 0.0, 4000.0}};
  std::map<std::uint32_t, ClientRideLedger> client;
  client[0] = {2, 700.0};
  TrafficLedger traffic{10, 10, 0, 2, 8, 8, 2};
  EXPECT_TRUE(CheckLedger(rides, client, traffic, 1000.0).empty());
}

TEST(Ledger, RejectsHandMadeViolations) {
  std::vector<ServerRideState> rides = {{0, 3, 1, 700.0, 4000.0}};
  std::map<std::uint32_t, ClientRideLedger> client;
  TrafficLedger traffic{10, 10, 0, 2, 8, 8, 2};

  client[0] = {1, 700.0};  // two seats used, one booking seen
  EXPECT_EQ(CheckLedger(rides, client, traffic, 1000.0).size(), 1u);

  client[0] = {2, 650.0};  // budget charged differs from the wire detours
  EXPECT_EQ(CheckLedger(rides, client, traffic, 1000.0).size(), 1u);

  client[0] = {2, 9000.0};
  rides[0].detour_used_m = 9000.0;  // beyond limit + 4 eps = 8000
  EXPECT_EQ(CheckLedger(rides, client, traffic, 1000.0).size(), 1u);

  rides[0].detour_used_m = 700.0;
  client[0] = {2, 700.0};
  traffic.client_answered = 9;  // a tag never answered
  traffic.client_duplicate_answers = 1;  // and one answered twice
  traffic.server_completed = 7;  // an accepted request never completed
  EXPECT_EQ(CheckLedger(rides, client, traffic, 1000.0).size(), 3u);

  traffic = {10, 10, 0, 1, 8, 8, 2};  // BUSY seen != shed
  EXPECT_EQ(CheckLedger(rides, client, traffic, 1000.0).size(), 1u);

  traffic = {10, 10, 0, 2, 8, 8, 2};
  client[5] = {1, 10.0};  // a booking on a ride the server does not have
  EXPECT_EQ(CheckLedger(rides, client, traffic, 1000.0).size(), 1u);
}

}  // namespace
}  // namespace perfbench
