// Refreshable-discretization suite: rebuild + epoch swap must preserve
// live rides' matchability (no-op refresh is invisible to search), expose
// accurate refresh stats, reject cross-epoch matches as stale, and leave the
// event sim's matched/created counts untouched when run mid-simulation.

#include <gtest/gtest.h>

#include <vector>

#include "discretize/region_snapshot.h"
#include "sim/event_sim.h"
#include "tests/test_helpers.h"
#include "workload/trip_generator.h"
#include "xar/concurrent_xar.h"

namespace xar {
namespace {

using testing::SharedCity;
using testing::TestCity;

class RegionRefreshTest : public ::testing::Test {
 protected:
  RegionRefreshTest()
      : city_(SharedCity()),
        xar_(city_.graph, *city_.spatial, *city_.region, *city_.oracle, {},
             /*num_shards=*/1) {}

  std::vector<TaxiTrip> Trips(std::size_t n, std::uint64_t seed) const {
    WorkloadOptions opt;
    opt.num_trips = n;
    opt.seed = seed;
    return GenerateTrips(city_.graph.bounds(), opt);
  }

  void LoadRides(ConcurrentXarSystem& xar, std::size_t n,
                 std::uint64_t seed) const {
    for (const TaxiTrip& t : Trips(n, seed)) {
      RideOffer offer;
      offer.source = t.pickup;
      offer.destination = t.dropoff;
      offer.departure_time_s = t.pickup_time_s;
      (void)xar.CreateRide(offer);
    }
  }

  std::vector<RideRequest> Probes(std::size_t n, std::uint64_t seed) const {
    std::vector<RideRequest> out;
    for (const TaxiTrip& t : Trips(n, seed)) {
      RideRequest req;
      req.id = t.id;
      req.source = t.pickup;
      req.destination = t.dropoff;
      req.earliest_departure_s = t.pickup_time_s;
      req.latest_departure_s = t.pickup_time_s + 900;
      out.push_back(req);
    }
    return out;
  }

  TestCity& city_;
  ConcurrentXarSystem xar_;
};

// The tentpole differential: a no-op refresh rebuilds identical tables under
// a new epoch, so every live ride must stay exactly as matchable as in a
// fresh system built up front — field for field, across many probes.
TEST_F(RegionRefreshTest, NoOpRefreshPreservesSearchResults) {
  LoadRides(xar_, 300, 21);
  std::vector<RideRequest> probes = Probes(120, 22);

  std::vector<std::vector<RideMatch>> before;
  for (const RideRequest& req : probes) before.push_back(xar_.Search(req));

  RefreshStats stats = xar_.RefreshDiscretization();
  EXPECT_EQ(stats.epoch, 1u);
  EXPECT_EQ(xar_.epoch(), 1u);

  // Differential reference: a fresh system over the same inputs and rides.
  ConcurrentXarSystem fresh(city_.graph, *city_.spatial, *city_.region,
                            *city_.oracle, {}, /*num_shards=*/1);
  LoadRides(fresh, 300, 21);

  std::size_t total_matches = 0;
  for (std::size_t p = 0; p < probes.size(); ++p) {
    std::vector<RideMatch> after = xar_.Search(probes[p]);
    std::vector<RideMatch> reference = fresh.Search(probes[p]);
    ASSERT_EQ(after.size(), before[p].size()) << "probe " << p;
    ASSERT_EQ(after.size(), reference.size()) << "probe " << p;
    total_matches += after.size();
    for (std::size_t i = 0; i < after.size(); ++i) {
      EXPECT_EQ(after[i].ride, before[p][i].ride);
      EXPECT_DOUBLE_EQ(after[i].TotalWalkM(), before[p][i].TotalWalkM());
      EXPECT_DOUBLE_EQ(after[i].eta_source_s, before[p][i].eta_source_s);
      EXPECT_DOUBLE_EQ(after[i].detour_estimate_m,
                       before[p][i].detour_estimate_m);
      EXPECT_EQ(after[i].source_cluster, before[p][i].source_cluster);
      EXPECT_EQ(after[i].dest_cluster, before[p][i].dest_cluster);
      // Only the epoch stamp may differ from the fresh-built system.
      EXPECT_EQ(after[i].ride, reference[i].ride);
      EXPECT_DOUBLE_EQ(after[i].detour_estimate_m,
                       reference[i].detour_estimate_m);
      EXPECT_EQ(after[i].epoch, 1u);
      EXPECT_EQ(reference[i].epoch, 0u);
    }
  }
  EXPECT_GT(total_matches, 0u);
}

TEST_F(RegionRefreshTest, RefreshStatsAndEpochAreMonotone) {
  LoadRides(xar_, 50, 31);
  const std::size_t live = xar_.NumActiveRides();
  ASSERT_GT(live, 0u);

  for (std::uint64_t round = 1; round <= 3; ++round) {
    RefreshStats stats = xar_.RefreshDiscretization();
    EXPECT_EQ(stats.epoch, round);
    EXPECT_EQ(stats.refreshes, round);
    EXPECT_EQ(stats.last_rides_rehomed, live);
    EXPECT_EQ(stats.total_rides_rehomed, live * round);
    EXPECT_GE(stats.last_rebuild_ms, 0.0);
  }
  EXPECT_EQ(xar_.epoch(), 3u);
  EXPECT_EQ(xar_.refresh_stats().epoch, 3u);
}

TEST_F(RegionRefreshTest, StaleEpochMatchIsRejectedAndReSearchBooks) {
  LoadRides(xar_, 300, 41);
  std::vector<RideMatch> matches;
  RideRequest hit;
  for (const RideRequest& req : Probes(120, 42)) {
    matches = xar_.Search(req);
    if (!matches.empty()) {
      hit = req;
      break;
    }
  }
  ASSERT_FALSE(matches.empty()) << "workload produced no matchable probe";

  (void)xar_.RefreshDiscretization();

  // The pre-refresh match carries epoch-0 ids; Book must refuse it.
  Result<BookingRecord> stale = xar_.Book(matches[0].ride, hit, matches[0]);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kFailedPrecondition);

  // Re-searching on the new epoch restores the booking path.
  std::vector<RideMatch> rematches = xar_.Search(hit);
  ASSERT_FALSE(rematches.empty());
  EXPECT_EQ(rematches[0].epoch, 1u);
  EXPECT_TRUE(xar_.Book(rematches[0].ride, hit, rematches[0]).ok());
}

TEST_F(RegionRefreshTest, PerturbedGraphRefreshKeepsServing) {
  LoadRides(xar_, 300, 51);

  RoadGraph perturbed = PerturbEdgeWeights(city_.graph, 0.2, 7);
  GraphOracle oracle(perturbed);
  GraphDelta delta;
  delta.graph = &perturbed;
  delta.oracle = &oracle;
  RefreshStats stats = xar_.RefreshDiscretization(delta);
  EXPECT_EQ(stats.epoch, 1u);
  EXPECT_EQ(stats.last_rides_rehomed, xar_.NumActiveRides());

  std::size_t booked = 0;
  for (const RideRequest& req : Probes(120, 52)) {
    std::vector<RideMatch> matches = xar_.Search(req);
    if (matches.empty()) continue;
    Result<BookingRecord> booking = xar_.Book(matches[0].ride, req, matches[0]);
    if (!booking.ok()) continue;
    ++booked;
    EXPECT_GE(booking->actual_detour_m, 0.0);
    Result<Ride> ride = xar_.GetRide(booking->ride);
    ASSERT_TRUE(ride.ok());
    EXPECT_TRUE(ride->active);
  }
  EXPECT_GT(booked, 0u);
}

// Acceptance criterion: refreshes executed mid-simulation by the event sim
// yield the same matched/created counts as a run whose index was built up
// front and never swapped (identical, since zero congestion leaves every
// refresh graph's weights unchanged).
TEST(RegionRefreshSimTest, MidSimRefreshMatchesUpfrontCounts) {
  TestCity& city = SharedCity();
  WorkloadOptions wopt;
  wopt.num_trips = 400;
  wopt.seed = 11;
  std::vector<TaxiTrip> trips = GenerateTrips(city.graph.bounds(), wopt);

  ScenarioConfig config;
  config.traffic.load_alpha = 0.0;
  config.traffic.rush_amplitude = 0.0;

  GraphOracle oracle_upfront(city.graph);
  ConcurrentXarSystem upfront(city.graph, *city.spatial, *city.region,
                              oracle_upfront, {}, 4);
  EventSim upfront_sim(city.graph, XarOptions{}, config);
  EventSimResult baseline = RunEventSim(upfront, upfront_sim, trips);

  GraphOracle oracle_refreshed(city.graph);
  ConcurrentXarSystem refreshed(city.graph, *city.spatial, *city.region,
                                oracle_refreshed, {}, 4);
  ScenarioConfig with_refresh = config;
  with_refresh.refresh_period_s = 4 * 3600.0;
  EventSim refreshed_sim(city.graph, XarOptions{}, with_refresh);
  EventSimResult mid = RunEventSim(refreshed, refreshed_sim, trips);

  EXPECT_GE(refreshed.epoch(), 2u);
  EXPECT_GT(baseline.matched, 0u);
  EXPECT_EQ(mid.requests, baseline.requests);
  EXPECT_EQ(mid.matched, baseline.matched);
  EXPECT_EQ(mid.rides_created, baseline.rides_created);
}

}  // namespace
}  // namespace xar
