#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "graph/generator.h"
#include "graph/oracle.h"
#include "graph/oracle_cache.h"

namespace xar {
namespace {

RoadGraph SmallCity() {
  CityOptions opt;
  opt.rows = 8;
  opt.cols = 8;
  opt.seed = 15;
  return GenerateCity(opt);
}

// Regression for the old single-uint64 packing (from << 34 | to << 2 |
// metric): for node ids >= 2^30 the top bits of `from` fell off the word,
// aliasing distinct (from, to) pairs onto one cache slot.
TEST(OracleCacheKeyTest, LargeNodeIdsDoNotCollide) {
  const NodeId big(1u << 30);
  const NodeId zero(0);
  const NodeId other(5);
  // Old packing: (2^30 << 34) overflows to 0, colliding with from == 0.
  EXPECT_FALSE(MakeOracleCacheKey(big, other, Metric::kDriveDistance) ==
               MakeOracleCacheKey(zero, other, Metric::kDriveDistance));
  // Full 32-bit ids survive on both sides.
  const NodeId max_id(0xFFFFFFFEu);
  EXPECT_FALSE(MakeOracleCacheKey(max_id, other, Metric::kDriveDistance) ==
               MakeOracleCacheKey(NodeId(0x7FFFFFFEu), other,
                                  Metric::kDriveDistance));
}

TEST(OracleCacheKeyTest, DirectionAndMetricDisambiguate) {
  const NodeId a(3);
  const NodeId b(7);
  EXPECT_FALSE(MakeOracleCacheKey(a, b, Metric::kDriveDistance) ==
               MakeOracleCacheKey(b, a, Metric::kDriveDistance));
  EXPECT_FALSE(MakeOracleCacheKey(a, b, Metric::kDriveDistance) ==
               MakeOracleCacheKey(a, b, Metric::kDriveTime));
  EXPECT_TRUE(MakeOracleCacheKey(a, b, Metric::kWalkDistance) ==
              MakeOracleCacheKey(a, b, Metric::kWalkDistance));
}

TEST(OracleConcurrencyTest, ParallelQueriesMatchSerialReference) {
  RoadGraph g = SmallCity();
  const std::size_t n = g.NumNodes();

  // Serial reference distances from a fresh oracle.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    pairs.emplace_back(
        NodeId(static_cast<NodeId::underlying_type>(rng.NextIndex(n))),
        NodeId(static_cast<NodeId::underlying_type>(rng.NextIndex(n))));
  }
  GraphOracle reference(g);
  std::vector<double> expected;
  expected.reserve(pairs.size());
  for (const auto& [from, to] : pairs) {
    expected.push_back(reference.DriveDistance(from, to));
  }

  // Hammer a shared oracle from several threads, every thread walking the
  // same pair list (maximal cache contention), and compare all results.
  GraphOracle shared(g);
  constexpr int kThreads = 4;
  std::vector<std::vector<double>> got(kThreads,
                                       std::vector<double>(pairs.size()));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        got[t][i] = shared.DriveDistance(pairs[i].first, pairs[i].second);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_DOUBLE_EQ(got[t][i], expected[i]) << "thread " << t << " pair "
                                               << i;
    }
  }
  // Hits + real computations account for every query made.
  EXPECT_EQ(shared.computation_count() + shared.cache_hit_count(),
            kThreads * pairs.size());
}

// Many-thread mixed hit/insert/evict torture for the lock-free CLOCK cache
// itself (runs under the TSan job with the rest of this suite). The table is
// much smaller than the key pool, so every thread continuously races
// lookups against inserts and CLOCK evictions. A hit must always return
// exactly the value deterministically derived from its key — a torn read,
// an ABA slot reuse or a misplaced entry all surface as a value mismatch.
TEST(OracleConcurrencyTest, ClockCacheTortureLoop) {
  OracleClockCache cache(128);
  constexpr std::size_t kKeyPool = 1024;
  constexpr int kThreads = 8;
  constexpr int kIterations = 20000;

  // Value is a pure function of the key, so any (key -> value) pairing that
  // survives publication is either exactly right or a protocol bug.
  auto value_of = [](std::uint32_t from, std::uint32_t to) {
    return static_cast<double>(from) * 4096.0 + static_cast<double>(to);
  };

  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::size_t> hits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0xC0FFEEu + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kIterations; ++i) {
        std::uint32_t from =
            static_cast<std::uint32_t>(rng.NextIndex(kKeyPool));
        std::uint32_t to = static_cast<std::uint32_t>(rng.NextIndex(64));
        OracleCacheKey key =
            MakeOracleCacheKey(NodeId(from), NodeId(to),
                               Metric::kDriveDistance);
        if (std::optional<double> got = cache.Lookup(key)) {
          hits.fetch_add(1, std::memory_order_relaxed);
          if (*got != value_of(from, to)) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          cache.Insert(key, value_of(from, to));
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(hits.load(), 0u);
  EXPECT_LE(cache.occupied(), cache.capacity());
  OracleCacheCounters c = cache.counters();
  EXPECT_GT(c.insertions, 0u);
  EXPECT_LE(c.evictions, c.insertions);
  // Post-quiescence the table still answers exactly for whatever survived.
  std::size_t surviving = 0;
  for (std::uint32_t from = 0; from < kKeyPool; ++from) {
    for (std::uint32_t to = 0; to < 64; ++to) {
      OracleCacheKey key = MakeOracleCacheKey(NodeId(from), NodeId(to),
                                              Metric::kDriveDistance);
      if (std::optional<double> got = cache.Lookup(key)) {
        ++surviving;
        ASSERT_EQ(*got, value_of(from, to));
      }
    }
  }
  EXPECT_LE(surviving, cache.capacity());
}

// The GraphOracle-level differential under eviction/drop churn: a tiny
// CLOCK cache shared by several threads walking the same pair list must
// still produce bit-identical distances to a fresh uncached oracle, and the
// hits-plus-computations accounting must cover every query even when racing
// inserts are dropped.
TEST(OracleConcurrencyTest, ClockPolicyParallelMatchesSerialUnderEviction) {
  RoadGraph g = SmallCity();
  const std::size_t n = g.NumNodes();
  std::vector<std::pair<NodeId, NodeId>> pairs;
  Rng rng(123);
  for (int i = 0; i < 300; ++i) {
    pairs.emplace_back(
        NodeId(static_cast<NodeId::underlying_type>(rng.NextIndex(n))),
        NodeId(static_cast<NodeId::underlying_type>(rng.NextIndex(n))));
  }
  GraphOracle reference(g, /*cache_capacity=*/0);
  std::vector<double> expected;
  expected.reserve(pairs.size());
  for (const auto& [from, to] : pairs) {
    expected.push_back(reference.DriveDistance(from, to));
  }

  // Capacity far below the working set keeps the CLOCK hand moving.
  GraphOracle shared(g, /*cache_capacity=*/32, RoutingBackendKind::kCh);
  constexpr int kThreads = 8;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        std::size_t j = (i + static_cast<std::size_t>(t) * 37) % pairs.size();
        double d = shared.DriveDistance(pairs[j].first, pairs[j].second);
        if (d != expected[j]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(shared.computation_count() + shared.cache_hit_count(),
            kThreads * pairs.size());
  OracleCacheCounters c = shared.cache_counters();
  EXPECT_GT(c.evictions, 0u) << "capacity 32 over 300 pairs must churn";
}

TEST(OracleConcurrencyTest, ConcurrentRoutesAreIndependent) {
  RoadGraph g = SmallCity();
  GraphOracle oracle(g);
  Path serial = oracle.DriveRoute(NodeId(2), NodeId(40));
  ASSERT_TRUE(serial.Found());

  std::vector<Path> routes(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back(
        [&, t] { routes[t] = oracle.DriveRoute(NodeId(2), NodeId(40)); });
  }
  for (std::thread& th : threads) th.join();
  for (const Path& p : routes) {
    ASSERT_TRUE(p.Found());
    EXPECT_DOUBLE_EQ(p.length_m, serial.length_m);
    EXPECT_EQ(p.nodes.size(), serial.nodes.size());
  }
}

}  // namespace
}  // namespace xar
