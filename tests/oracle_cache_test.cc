// Unit + differential suite for the oracle's CLOCK distance cache.
//
// Unit half: the lock-free CLOCK cache's slot protocol — CAS claim,
// occupancy bound, second-chance eviction, duplicate handling — exercised
// deterministically through a capacity-8 table (its probe window covers the
// whole table, so eviction pressure is forced without hash engineering).
//
// Differential half: a lossy cache is only safe if it can never change an
// answer. The CLOCK-cached oracle and the uncached one (capacity 0, the
// reference) must return bit-identical distances across all three metrics —
// including after a RefreshDiscretization epoch swap onto a perturbed graph.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "graph/generator.h"
#include "graph/oracle.h"
#include "tests/test_helpers.h"
#include "workload/trip_generator.h"
#include "xar/concurrent_xar.h"

namespace xar {
namespace {

using InsertOutcome = OracleClockCache::InsertOutcome;

OracleCacheKey Key(std::uint32_t from, std::uint32_t to,
                   Metric metric = Metric::kDriveDistance) {
  return MakeOracleCacheKey(NodeId(from), NodeId(to), metric);
}

TEST(OracleClockCacheTest, LookupOnEmptyCacheMisses) {
  OracleClockCache cache(64);
  EXPECT_FALSE(cache.Lookup(Key(1, 2)).has_value());
  EXPECT_EQ(cache.occupied(), 0u);
}

TEST(OracleClockCacheTest, InsertThenLookupIsBitIdentical) {
  OracleClockCache cache(64);
  const double values[] = {0.0, -0.0, 1234.5678,
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::denorm_min()};
  std::uint32_t to = 0;
  for (double v : values) {
    OracleCacheKey key = Key(7, ++to);
    EXPECT_EQ(cache.Insert(key, v), InsertOutcome::kInserted);
    std::optional<double> got = cache.Lookup(key);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*got),
              std::bit_cast<std::uint64_t>(v));
  }
  EXPECT_EQ(cache.occupied(), std::size(values));
  EXPECT_EQ(cache.counters().insertions, std::size(values));
}

TEST(OracleClockCacheTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(OracleClockCache(10).capacity(), 16u);
  EXPECT_EQ(OracleClockCache(64).capacity(), 64u);
  // Tiny capacities clamp to the minimum table (and the probe window never
  // exceeds the table).
  OracleClockCache tiny(1);
  EXPECT_EQ(tiny.capacity(), 8u);
  EXPECT_EQ(tiny.probe_window(), 8u);
}

TEST(OracleClockCacheTest, DuplicateInsertKeepsFirstEntryAndCountsRace) {
  OracleClockCache cache(64);
  OracleCacheKey key = Key(3, 9, Metric::kWalkDistance);
  EXPECT_EQ(cache.Insert(key, 100.0), InsertOutcome::kInserted);
  // In production the duplicate is a racing thread that computed the same
  // (from, to, metric) first — values are identical, so keeping the first
  // entry is correct. The unit test uses a different value to prove it is
  // the *first* write that survives.
  EXPECT_EQ(cache.Insert(key, 200.0), InsertOutcome::kAlreadyPresent);
  EXPECT_EQ(*cache.Lookup(key), 100.0);
  EXPECT_EQ(cache.occupied(), 1u);
  EXPECT_EQ(cache.counters().races, 1u);
}

TEST(OracleClockCacheTest, MetricAndDirectionKeySeparation) {
  OracleClockCache cache(64);
  ASSERT_EQ(cache.Insert(Key(1, 2, Metric::kDriveDistance), 10.0),
            InsertOutcome::kInserted);
  ASSERT_EQ(cache.Insert(Key(1, 2, Metric::kDriveTime), 20.0),
            InsertOutcome::kInserted);
  ASSERT_EQ(cache.Insert(Key(2, 1, Metric::kDriveDistance), 30.0),
            InsertOutcome::kInserted);
  EXPECT_EQ(*cache.Lookup(Key(1, 2, Metric::kDriveDistance)), 10.0);
  EXPECT_EQ(*cache.Lookup(Key(1, 2, Metric::kDriveTime)), 20.0);
  EXPECT_EQ(*cache.Lookup(Key(2, 1, Metric::kDriveDistance)), 30.0);
  EXPECT_FALSE(cache.Lookup(Key(2, 1, Metric::kDriveTime)).has_value());
}

// Capacity 8 => the probe window is the whole table, so 40 distinct keys
// force CLOCK eviction. Occupancy must stay bounded, single-threaded
// insertion can never drop, and every surviving entry answers exactly.
TEST(OracleClockCacheTest, EvictionBoundsOccupancy) {
  OracleClockCache cache(8);
  ASSERT_EQ(cache.capacity(), 8u);
  constexpr std::uint32_t kKeys = 40;
  auto value_of = [](std::uint32_t i) { return 1000.0 + i; };
  std::size_t evicted_outcomes = 0;
  for (std::uint32_t i = 0; i < kKeys; ++i) {
    InsertOutcome outcome = cache.Insert(Key(100, i), value_of(i));
    ASSERT_NE(outcome, InsertOutcome::kDropped)
        << "single-threaded insertion must always find a victim";
    if (outcome == InsertOutcome::kEvicted) ++evicted_outcomes;
  }
  EXPECT_EQ(cache.occupied(), 8u);
  OracleCacheCounters c = cache.counters();
  EXPECT_EQ(c.insertions, kKeys);
  EXPECT_EQ(c.evictions, kKeys - 8);
  EXPECT_EQ(c.evictions, evicted_outcomes);
  EXPECT_EQ(c.drops, 0u);
  // Whatever survived answers bit-identically; the rest miss cleanly.
  std::size_t hits = 0;
  for (std::uint32_t i = 0; i < kKeys; ++i) {
    if (std::optional<double> got = cache.Lookup(Key(100, i))) {
      ++hits;
      EXPECT_EQ(*got, value_of(i));
    }
  }
  EXPECT_EQ(hits, 8u);
}

// The reference bit is a real second chance: a slot touched by a hit
// survives the next eviction sweep whenever any unreferenced slot exists.
TEST(OracleClockCacheTest, ReferencedSlotSurvivesEvictionSweep) {
  OracleClockCache cache(8);
  for (std::uint32_t i = 0; i < 8; ++i) {
    ASSERT_EQ(cache.Insert(Key(200, i), 1.0 * i), InsertOutcome::kInserted);
  }
  // Evict once: the sweep clears every fresh reference bit, then claims a
  // victim — leaving most slots unreferenced.
  ASSERT_EQ(cache.Insert(Key(200, 100), -1.0), InsertOutcome::kEvicted);
  // Find a survivor among the originals and reference it via a hit.
  std::optional<std::uint32_t> survivor;
  for (std::uint32_t i = 0; i < 8 && !survivor; ++i) {
    if (cache.Lookup(Key(200, i)).has_value()) survivor = i;
  }
  ASSERT_TRUE(survivor.has_value());
  // Two more evicting inserts: with unreferenced slots available, the
  // referenced survivor must never be the victim.
  ASSERT_EQ(cache.Insert(Key(200, 101), -2.0), InsertOutcome::kEvicted);
  ASSERT_TRUE(cache.Lookup(Key(200, *survivor)).has_value());  // re-reference
  ASSERT_EQ(cache.Insert(Key(200, 102), -3.0), InsertOutcome::kEvicted);
  EXPECT_TRUE(cache.Lookup(Key(200, *survivor)).has_value());
  EXPECT_EQ(cache.occupied(), 8u);
}

// ---------------------------------------------------------------------------
// Differential suite: the cache may only ever change *when* a distance is
// computed, never *what* is returned.

RoadGraph DifferentialCity() {
  CityOptions opt;
  opt.rows = 8;
  opt.cols = 8;
  opt.seed = 15;
  return GenerateCity(opt);
}

std::vector<std::pair<NodeId, NodeId>> RandomPairs(const RoadGraph& g,
                                                   std::size_t count,
                                                   std::uint64_t seed) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    pairs.emplace_back(
        NodeId(static_cast<NodeId::underlying_type>(rng.NextIndex(g.NumNodes()))),
        NodeId(static_cast<NodeId::underlying_type>(rng.NextIndex(g.NumNodes()))));
  }
  return pairs;
}

/// Queries every pair under every metric — twice in immediate succession on
/// `lhs`, so a cached oracle serves the repeat from its cache before
/// eviction pressure can clear it — and asserts `lhs` and `rhs` agree
/// bit-for-bit, cold and cached alike.
void ExpectBitIdenticalDistances(DistanceOracle& lhs, DistanceOracle& rhs,
                                 const std::vector<std::pair<NodeId, NodeId>>&
                                     pairs) {
  for (const auto& [from, to] : pairs) {
    const double cold[3] = {lhs.DriveDistance(from, to),
                            lhs.DriveTime(from, to),
                            lhs.WalkDistance(from, to)};
    const double warm[3] = {lhs.DriveDistance(from, to),
                            lhs.DriveTime(from, to),
                            lhs.WalkDistance(from, to)};
    const double b[3] = {rhs.DriveDistance(from, to),
                         rhs.DriveTime(from, to),
                         rhs.WalkDistance(from, to)};
    for (int m = 0; m < 3; ++m) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(cold[m]),
                std::bit_cast<std::uint64_t>(warm[m]))
          << "cached re-query diverged; metric " << m << " from "
          << from.value() << " to " << to.value();
      ASSERT_EQ(std::bit_cast<std::uint64_t>(cold[m]),
                std::bit_cast<std::uint64_t>(b[m]))
          << "metric " << m << " from " << from.value() << " to "
          << to.value();
    }
  }
}

TEST(OracleCacheDifferentialTest, ClockCachedVsUncachedBitIdentical) {
  RoadGraph g = DifferentialCity();
  // Tiny capacity keeps the CLOCK cache under eviction pressure throughout.
  GraphOracle cached(g, /*cache_capacity=*/64, RoutingBackendKind::kAlt);
  GraphOracle uncached(g, /*cache_capacity=*/0, RoutingBackendKind::kAlt);
  ExpectBitIdenticalDistances(cached, uncached, RandomPairs(g, 250, 7));
  EXPECT_GT(cached.cache_hit_count(), 0u);
  EXPECT_EQ(uncached.cache_hit_count(), 0u);
  EXPECT_STREQ(cached.cache_policy_name(), "clock");
  EXPECT_STREQ(uncached.cache_policy_name(), "none");
}

/// Replays `requests` as Search + Book-first-match on both systems and
/// asserts identical match lists and bit-identical booking records.
void ExpectIdenticalReplay(ConcurrentXarSystem& a, ConcurrentXarSystem& b,
                           const std::vector<RideRequest>& requests) {
  std::size_t bookings = 0;
  for (const RideRequest& req : requests) {
    std::vector<RideMatch> ma = a.Search(req);
    std::vector<RideMatch> mb = b.Search(req);
    ASSERT_EQ(ma.size(), mb.size()) << "request " << req.id.value();
    for (std::size_t i = 0; i < ma.size(); ++i) {
      ASSERT_EQ(ma[i].ride, mb[i].ride);
      ASSERT_EQ(ma[i].detour_estimate_m, mb[i].detour_estimate_m);
    }
    if (ma.empty()) continue;
    Result<BookingRecord> ba = a.Book(ma.front().ride, req, ma.front());
    Result<BookingRecord> bb = b.Book(mb.front().ride, req, mb.front());
    ASSERT_EQ(ba.ok(), bb.ok()) << "request " << req.id.value();
    if (!ba.ok()) continue;
    ++bookings;
    EXPECT_EQ(ba->actual_detour_m, bb->actual_detour_m);
    EXPECT_EQ(ba->estimated_detour_m, bb->estimated_detour_m);
    EXPECT_EQ(ba->pickup_eta_s, bb->pickup_eta_s);
    EXPECT_EQ(ba->dropoff_eta_s, bb->dropoff_eta_s);
    EXPECT_EQ(ba->walk_m, bb->walk_m);
  }
  EXPECT_GT(bookings, 0u);
}

// Full-system differential, CLOCK-cached vs uncached, through a
// RefreshDiscretization epoch swap onto a perturbed graph: the lossy cache
// must never change a match, a booking or a post-refresh route.
TEST(OracleCacheDifferentialTest,
     CachedAndUncachedAgreeThroughRefreshEpochSwap) {
  testing::TestCity& city = testing::SharedCity();
  GraphOracle clock_oracle(city.graph, 1 << 12, RoutingBackendKind::kAlt);
  GraphOracle plain_oracle(city.graph, /*cache_capacity=*/0,
                           RoutingBackendKind::kAlt);
  ConcurrentXarSystem clock_sys(city.graph, *city.spatial, *city.region,
                                clock_oracle, {}, /*num_shards=*/1);
  ConcurrentXarSystem plain_sys(city.graph, *city.spatial, *city.region,
                                plain_oracle, {}, /*num_shards=*/1);

  WorkloadOptions wopt;
  wopt.num_trips = 500;
  wopt.seed = 77;
  std::vector<RideRequest> requests;
  for (const TaxiTrip& t : GenerateTrips(city.graph.bounds(), wopt)) {
    if (t.id.value() % 3 == 0) {
      RideOffer offer;
      offer.source = t.pickup;
      offer.destination = t.dropoff;
      offer.departure_time_s = t.pickup_time_s;
      Result<RideId> ra = clock_sys.CreateRide(offer);
      Result<RideId> rb = plain_sys.CreateRide(offer);
      ASSERT_EQ(ra.ok(), rb.ok());
    } else {
      RideRequest req;
      req.id = t.id;
      req.source = t.pickup;
      req.destination = t.dropoff;
      req.earliest_departure_s = t.pickup_time_s;
      req.latest_departure_s = t.pickup_time_s + 900;
      requests.push_back(req);
    }
  }
  std::vector<RideRequest> before(requests.begin(),
                                  requests.begin() + requests.size() / 2);
  std::vector<RideRequest> after(requests.begin() + requests.size() / 2,
                                 requests.end());
  ExpectIdenticalReplay(clock_sys, plain_sys, before);

  // Swap epochs onto a perturbed metric, each system refreshing onto a
  // fresh oracle with its own cache setting.
  RoadGraph perturbed = PerturbEdgeWeights(city.graph, 0.25, 4242);
  GraphOracle clock_oracle2(perturbed, 1 << 12, RoutingBackendKind::kAlt);
  GraphOracle plain_oracle2(perturbed, /*cache_capacity=*/0,
                            RoutingBackendKind::kAlt);
  GraphDelta clock_delta;
  clock_delta.graph = &perturbed;
  clock_delta.oracle = &clock_oracle2;
  GraphDelta plain_delta;
  plain_delta.graph = &perturbed;
  plain_delta.oracle = &plain_oracle2;
  ASSERT_EQ(clock_sys.RefreshDiscretization(clock_delta).epoch, 1u);
  ASSERT_EQ(plain_sys.RefreshDiscretization(plain_delta).epoch, 1u);

  ExpectIdenticalReplay(clock_sys, plain_sys, after);

  // The replay alone may not repeat any (from, to, metric); probe a fixed
  // pair twice to prove the post-refresh CLOCK oracle really serves hits.
  std::size_t hits_before = clock_oracle2.cache_hit_count();
  double d1 = clock_oracle2.DriveDistance(NodeId(0), NodeId(1));
  double d2 = clock_oracle2.DriveDistance(NodeId(0), NodeId(1));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(d1), std::bit_cast<std::uint64_t>(d2));
  EXPECT_GT(clock_oracle2.cache_hit_count(), hits_before);
}

}  // namespace
}  // namespace xar
