// Randomized differential fuzz harness: seed-parameterized TripGenerator
// workloads replayed through every (system, oracle cache) combination —
// XarSystem vs ConcurrentXarSystem, CLOCK-cached vs uncached oracle.
// The configurations must be observationally identical: same ride ids, same
// match lists, same booking outcomes, bit-identical detours — and every
// booking must respect the paper's 4-epsilon detour guarantee.
//
// The tier-1 binary runs a small fixed seed set; the stress binary
// (compiled with XAR_FUZZ_WIDE, ctest label `stress`, TSan job) sweeps a
// wide seed range and adds heavier workloads. Every assertion carries the
// reproducing seed so a failure is a one-line repro:
//   ./differential_fuzz_test --gtest_filter='*/<seed-index>'.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "graph/oracle.h"
#include "tests/test_helpers.h"
#include "workload/trip_generator.h"
#include "xar/concurrent_xar.h"
#include "xar/xar_system.h"

namespace xar {
namespace {

#ifdef XAR_FUZZ_WIDE
constexpr std::uint64_t kSeedBegin = 1;
constexpr std::uint64_t kSeedEnd = 17;  // exclusive
constexpr std::size_t kTripsPerSeed = 600;
#else
constexpr std::uint64_t kSeedBegin = 1;
constexpr std::uint64_t kSeedEnd = 4;  // exclusive
constexpr std::size_t kTripsPerSeed = 260;
#endif

std::vector<std::uint64_t> FuzzSeeds() {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = kSeedBegin; s < kSeedEnd; ++s) seeds.push_back(s);
  return seeds;
}

/// Deterministic shard count: hardware_concurrency would make the replay
/// machine-dependent (ride ids are dense across shards for any fixed count,
/// but the count must not float).
constexpr std::size_t kShards = 4;

/// CLOCK capacity of the cached configurations: small enough that the
/// workload evicts.
constexpr std::size_t kCacheCapacity = 1 << 10;

struct Workload {
  std::vector<RideOffer> offers;
  std::vector<RideRequest> requests;
};

Workload MakeWorkload(std::uint64_t seed) {
  WorkloadOptions wopt;
  wopt.num_trips = kTripsPerSeed;
  wopt.seed = seed * 0x9e3779b97f4a7c15ULL + 1;
  Workload w;
  for (const TaxiTrip& t : GenerateTrips(testing::SharedCity().graph.bounds(),
                                         wopt)) {
    if (t.id.value() % 3 == 0) {
      RideOffer offer;
      offer.source = t.pickup;
      offer.destination = t.dropoff;
      offer.departure_time_s = t.pickup_time_s;
      w.offers.push_back(offer);
    } else {
      RideRequest req;
      req.id = t.id;
      req.source = t.pickup;
      req.destination = t.dropoff;
      req.earliest_departure_s = t.pickup_time_s;
      req.latest_departure_s = t.pickup_time_s + 1200;
      w.requests.push_back(req);
    }
  }
  return w;
}

/// One system-under-test: its own oracle (CLOCK-cached, or uncached when
/// `cache_capacity` is 0) over the shared city, wrapped in either a plain
/// XarSystem or a sharded concurrent one.
/// Both are driven through the same serial Search/Book interface here; the
/// threaded phase exercises ConcurrentXarSystem::SearchAndBook separately.
class Config {
 public:
  Config(std::size_t cache_capacity, bool concurrent)
      : oracle_(testing::SharedCity().graph, cache_capacity,
                RoutingBackendKind::kAlt) {
    testing::TestCity& city = testing::SharedCity();
    if (concurrent) {
      concurrent_ = std::make_unique<ConcurrentXarSystem>(
          city.graph, *city.spatial, *city.region, oracle_, XarOptions{},
          kShards);
    } else {
      plain_ = std::make_unique<XarSystem>(city.graph, *city.spatial,
                                           *city.region, oracle_);
    }
  }

  Result<RideId> CreateRide(const RideOffer& offer) {
    return plain_ ? plain_->CreateRide(offer) : concurrent_->CreateRide(offer);
  }
  std::vector<RideMatch> Search(const RideRequest& req) const {
    return plain_ ? plain_->Search(req) : concurrent_->Search(req);
  }
  Result<BookingRecord> Book(RideId ride, const RideRequest& req,
                             const RideMatch& match) {
    return plain_ ? plain_->Book(ride, req, match)
                  : concurrent_->Book(ride, req, match);
  }

 private:
  GraphOracle oracle_;
  std::unique_ptr<XarSystem> plain_;
  std::unique_ptr<ConcurrentXarSystem> concurrent_;
};

class DifferentialFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialFuzzTest, AllConfigurationsAgree) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE(::testing::Message() << "reproducing seed = " << seed);
  Workload w = MakeWorkload(seed);
  ASSERT_FALSE(w.offers.empty());
  ASSERT_FALSE(w.requests.empty());

  // Reference config first; every other config must match it exactly.
  std::vector<std::unique_ptr<Config>> configs;
  for (bool concurrent : {false, true}) {
    configs.push_back(std::make_unique<Config>(kCacheCapacity, concurrent));
    configs.push_back(std::make_unique<Config>(/*cache_capacity=*/0,
                                               concurrent));
  }

  for (const RideOffer& offer : w.offers) {
    Result<RideId> ref = configs[0]->CreateRide(offer);
    for (std::size_t c = 1; c < configs.size(); ++c) {
      Result<RideId> got = configs[c]->CreateRide(offer);
      ASSERT_EQ(ref.ok(), got.ok()) << "config " << c;
      if (ref.ok()) {
        // Sharded ride-id assignment (offset + stride round-robin) must
        // produce the same dense ids as the standalone system.
        ASSERT_EQ(ref.value(), got.value()) << "config " << c;
      }
    }
  }

  const testing::TestCity& city = testing::SharedCity();
  const double slack = 4 * city.region->epsilon() +
                       2 * city.region->options().max_drive_to_landmark_m;
  std::size_t bookings = 0;
  std::size_t matched_requests = 0;
  for (const RideRequest& req : w.requests) {
    SCOPED_TRACE(::testing::Message() << "request " << req.id.value());
    std::vector<RideMatch> ref = configs[0]->Search(req);
    for (std::size_t c = 1; c < configs.size(); ++c) {
      std::vector<RideMatch> got = configs[c]->Search(req);
      ASSERT_EQ(ref.size(), got.size()) << "config " << c;
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(ref[i].ride, got[i].ride) << "config " << c << " rank " << i;
        ASSERT_EQ(ref[i].detour_estimate_m, got[i].detour_estimate_m)
            << "config " << c << " rank " << i;
        ASSERT_EQ(ref[i].TotalWalkM(), got[i].TotalWalkM())
            << "config " << c << " rank " << i;
      }
    }
    if (ref.empty()) continue;
    ++matched_requests;

    Result<BookingRecord> ref_booking =
        configs[0]->Book(ref.front().ride, req, ref.front());
    for (std::size_t c = 1; c < configs.size(); ++c) {
      std::vector<RideMatch> got = configs[c]->Search(req);
      ASSERT_FALSE(got.empty());
      Result<BookingRecord> booking =
          configs[c]->Book(got.front().ride, req, got.front());
      ASSERT_EQ(ref_booking.ok(), booking.ok()) << "config " << c;
      if (!ref_booking.ok()) continue;
      ASSERT_EQ(ref_booking->actual_detour_m, booking->actual_detour_m)
          << "config " << c;
      ASSERT_EQ(ref_booking->estimated_detour_m, booking->estimated_detour_m)
          << "config " << c;
      ASSERT_EQ(ref_booking->walk_m, booking->walk_m) << "config " << c;
      ASSERT_EQ(ref_booking->pickup_eta_s, booking->pickup_eta_s)
          << "config " << c;
    }
    if (ref_booking.ok()) {
      ++bookings;
      // Theorem 6 detour guarantee, same slack as search_property_test.
      EXPECT_LE(ref_booking->actual_detour_m,
                ref_booking->estimated_detour_m + slack + 1e-6);
    }
  }
  EXPECT_GT(matched_requests, 0u) << "workload produced no matches";
  EXPECT_GT(bookings, 0u) << "workload produced no bookings";
}

// Threaded phase: the same workload pushed through the optimistic
// SearchAndBook path from many threads on the CLOCK-cached oracle. Exact
// equality is meaningless under concurrent interleaving, so this phase
// checks invariants instead: every success respects the detour bound, the
// books+unmatched+failed accounting covers every request, and (under TSan)
// the CLOCK cache's lock-free path is race-free.
TEST_P(DifferentialFuzzTest, ThreadedSearchAndBookInvariants) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE(::testing::Message() << "reproducing seed = " << seed);
  Workload w = MakeWorkload(seed);
  testing::TestCity& city = testing::SharedCity();
  const double slack = 4 * city.region->epsilon() +
                       2 * city.region->options().max_drive_to_landmark_m;

  GraphOracle oracle(city.graph, kCacheCapacity, RoutingBackendKind::kAlt);
  ConcurrentXarSystem sys(city.graph, *city.spatial, *city.region, oracle,
                          XarOptions{}, kShards);
  for (const RideOffer& offer : w.offers) {
    ASSERT_TRUE(sys.CreateRide(offer).ok());
  }

  constexpr std::size_t kThreads = 4;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> booked{0};
  std::atomic<std::size_t> bound_violations{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (;;) {
        std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= w.requests.size()) return;
        Result<BookingRecord> booking = sys.SearchAndBook(w.requests[i]);
        if (!booking.ok()) continue;
        booked.fetch_add(1, std::memory_order_relaxed);
        if (booking->actual_detour_m >
            booking->estimated_detour_m + slack + 1e-6) {
          bound_violations.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(bound_violations.load(), 0u);
  EXPECT_GT(booked.load(), 0u);
  RetryStats stats = sys.retry_stats();
  // Every request is accounted for exactly once: booked in some round, or
  // unmatched after the final one.
  const std::size_t total_booked =
      stats.booked_first_try + stats.booked_after_research;
  EXPECT_EQ(total_booked + stats.unmatched, w.requests.size());
  EXPECT_EQ(total_booked, booked.load());
  // Cache-counter sanity: every eviction replaced an earlier successful
  // insertion, and the lossy path may drop but never fabricate entries.
  OracleCacheCounters cc = oracle.cache_counters();
  EXPECT_LE(cc.evictions, cc.insertions);
  EXPECT_LE(cc.insertions, oracle.computation_count());
}

INSTANTIATE_TEST_SUITE_P(
#ifdef XAR_FUZZ_WIDE
    WideSeeds,
#else
    Tier1Seeds,
#endif
    DifferentialFuzzTest, ::testing::ValuesIn(FuzzSeeds()),
    [](const ::testing::TestParamInfo<std::uint64_t>& info) {
      return "Seed" + std::to_string(info.param);
    });

}  // namespace
}  // namespace xar
