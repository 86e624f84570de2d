// Property suite for the Search operation semantics: for sweeps of random
// request streams against a loaded system, every returned match satisfies
// the paper's Section VII contract, top-k behaves like a prefix of the full
// result, the meeting-points widening (XarOptions::meeting_points) keeps
// the classic matches and the 4-epsilon detour guarantee, and SearchAndBook
// books the first bookable match in walk order, serial and sharded alike.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "tests/test_helpers.h"
#include "workload/trip_generator.h"
#include "xar/concurrent_xar.h"
#include "xar/xar_system.h"

namespace xar {
namespace {

using testing::SharedCity;
using testing::TestCity;

/// (workload seed, request walk threshold in meters).
using Params = std::tuple<std::uint64_t, double>;

std::vector<TaxiTrip> Trips(std::size_t n, std::uint64_t seed) {
  WorkloadOptions opt;
  opt.num_trips = n;
  opt.seed = seed;
  return GenerateTrips(SharedCity().graph.bounds(), opt);
}

RideRequest ToRequest(const TaxiTrip& t) {
  RideRequest req;
  req.id = t.id;
  req.source = t.pickup;
  req.destination = t.dropoff;
  req.earliest_departure_s = t.pickup_time_s;
  req.latest_departure_s = t.pickup_time_s + 900;
  return req;
}

/// Offers one ride per trip drawn from `seed`.
void Seed(XarSystem* xar, std::size_t n, std::uint64_t seed) {
  for (const TaxiTrip& t : Trips(n, seed)) {
    RideOffer offer;
    offer.source = t.pickup;
    offer.destination = t.dropoff;
    offer.departure_time_s = t.pickup_time_s;
    (void)xar->CreateRide(offer);
  }
}

/// A system over the shared city loaded with 800 rides drawn from `seed`,
/// probed by requests drawn from `seed` + 1000 with a walk threshold of
/// `walk_limit_m`.
class LoadedSystem {
 protected:
  LoadedSystem(std::uint64_t seed, double walk_limit_m)
      : seed_(seed),
        walk_limit_m_(walk_limit_m),
        city_(SharedCity()),
        xar_(city_.graph, *city_.spatial, *city_.region, *city_.oracle) {
    Seed(&xar_, 800, seed_);
  }

  std::vector<RideRequest> Probes(std::size_t count) {
    std::vector<RideRequest> out;
    for (const TaxiTrip& t : Trips(count, seed_ + 1000)) {
      RideRequest req = ToRequest(t);
      req.walk_limit_m = walk_limit_m_;
      out.push_back(req);
    }
    return out;
  }

  std::uint64_t seed_;
  double walk_limit_m_;
  TestCity& city_;
  XarSystem xar_;
};

class SearchPropertyTest : public ::testing::TestWithParam<Params>,
                           protected LoadedSystem {
 protected:
  SearchPropertyTest()
      : LoadedSystem(std::get<0>(GetParam()), std::get<1>(GetParam())) {}
};

/// Seeds only, at the widest walk limit: one refresh per seed is enough to
/// exercise the bound, and the walk limit does not change the refresh.
class PerturbedRefreshTest : public ::testing::TestWithParam<std::uint64_t>,
                             protected LoadedSystem {
 protected:
  PerturbedRefreshTest() : LoadedSystem(GetParam(), 1000.0) {}
};

TEST_P(SearchPropertyTest, EveryMatchSatisfiesTheContract) {
  double walk_limit = std::get<1>(GetParam());
  std::size_t total_matches = 0;
  for (const RideRequest& req : Probes(200)) {
    for (const RideMatch& m : xar_.Search(req)) {
      ++total_matches;
      const Ride* ride = xar_.GetRide(m.ride);
      ASSERT_NE(ride, nullptr);
      // Ride is usable.
      EXPECT_TRUE(ride->active);
      EXPECT_GE(ride->seats_available, req.seats);
      // Walking threshold is strict (paper: "strictly met").
      EXPECT_LE(m.TotalWalkM(), walk_limit + 1e-9);
      EXPECT_GE(m.walk_source_m, 0.0);
      EXPECT_GE(m.walk_dest_m, 0.0);
      // Temporal sanity: pickup within the (slack-widened) window, before
      // the drop-off.
      EXPECT_LE(m.eta_source_s, m.eta_dest_s + 1e-9);
      EXPECT_GE(m.eta_source_s, req.earliest_departure_s -
                                    xar_.options().eta_window_slack_s - 1e-9);
      EXPECT_LE(m.eta_source_s, req.latest_departure_s +
                                    xar_.options().eta_window_slack_s + 1e-9);
      // Detour estimate within the ride's remaining budget.
      EXPECT_GE(m.detour_estimate_m, 0.0);
      EXPECT_LE(m.detour_estimate_m, ride->RemainingDetourBudget() + 1e-9);
      // Clusters and landmarks resolve consistently.
      EXPECT_NE(m.source_cluster, m.dest_cluster);
      EXPECT_EQ(city_.region->ClusterOfLandmark(m.pickup_landmark),
                m.source_cluster);
      EXPECT_EQ(city_.region->ClusterOfLandmark(m.dropoff_landmark),
                m.dest_cluster);
    }
  }
  // The sweep must actually exercise matches for most parameterizations.
  if (walk_limit >= 500) {
    EXPECT_GT(total_matches, 0u);
  }
}

TEST_P(SearchPropertyTest, ResultsSortedByLeastWalking) {
  for (const RideRequest& req : Probes(100)) {
    std::vector<RideMatch> matches = xar_.Search(req);
    for (std::size_t i = 1; i < matches.size(); ++i) {
      EXPECT_LE(matches[i - 1].TotalWalkM(), matches[i].TotalWalkM() + 1e-9);
    }
  }
}

TEST_P(SearchPropertyTest, TopKIsPrefixOfFullResult) {
  for (const RideRequest& req : Probes(60)) {
    std::vector<RideMatch> all = xar_.Search(req);
    for (std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{10}}) {
      std::vector<RideMatch> topk = xar_.SearchTopK(req, k);
      ASSERT_EQ(topk.size(), std::min(k, all.size()));
      for (std::size_t i = 0; i < topk.size(); ++i) {
        EXPECT_EQ(topk[i].ride, all[i].ride);
      }
    }
  }
}

TEST_P(SearchPropertyTest, TighterWalkLimitShrinksResults) {
  for (RideRequest req : Probes(60)) {
    req.walk_limit_m = 900;
    std::size_t wide = xar_.Search(req).size();
    req.walk_limit_m = 300;
    std::size_t narrow = xar_.Search(req).size();
    EXPECT_LE(narrow, wide);
  }
}

TEST_P(SearchPropertyTest, SearchIsReadOnly) {
  std::vector<RideRequest> probes = Probes(50);
  std::size_t mem_before = xar_.MemoryFootprint();
  std::size_t rides_before = xar_.NumActiveRides();
  for (const RideRequest& req : probes) (void)xar_.Search(req);
  EXPECT_EQ(xar_.MemoryFootprint(), mem_before);
  EXPECT_EQ(xar_.NumActiveRides(), rides_before);
  // Repeating a search yields identical results.
  std::vector<RideMatch> a = xar_.Search(probes[0]);
  std::vector<RideMatch> b = xar_.Search(probes[0]);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ride, b[i].ride);
    EXPECT_DOUBLE_EQ(a[i].detour_estimate_m, b[i].detour_estimate_m);
  }
}

// The 4-epsilon detour guarantee is a property of whatever discretization a
// booking was computed on — so it must survive a refresh onto a *different*
// metric. Perturb every edge weight by a random factor, rebuild the region
// over the perturbed graph, and check bookings against the new region's
// epsilon. The refresh re-contracts the hierarchies the shared oracle has
// built in their old node order, so the bookings route on those.
TEST_P(PerturbedRefreshTest, DetourGuaranteeHoldsAfterPerturbedRefresh) {
  city_.oracle->Prewarm();
  RoadGraph perturbed = PerturbEdgeWeights(city_.graph, 0.25, seed_);
  GraphOracle oracle(perturbed);
  GraphDelta delta;
  delta.graph = &perturbed;
  delta.oracle = &oracle;
  RefreshStats stats = xar_.RefreshDiscretization(delta);
  ASSERT_EQ(stats.epoch, 1u);
  const std::vector<PreprocessTiming> timings =
      oracle.backend().preprocess_timings();
  ASSERT_EQ(timings.size(), 3u);
  for (const PreprocessTiming& t : timings) {
    EXPECT_EQ(t.source, PreprocessSource::kReordered) << MetricName(t.metric);
  }

  // Same sweep bound as integration/stress: 4*epsilon from Theorem 6 plus
  // the 2*Delta grid->landmark association slack — but epsilon and Delta of
  // the *rebuilt* region over the perturbed metric.
  const double slack = 4 * xar_.region().epsilon() +
                       2 * xar_.region().options().max_drive_to_landmark_m;
  std::size_t booked = 0;
  for (const RideRequest& req : Probes(60)) {
    std::vector<RideMatch> matches = xar_.Search(req);
    if (matches.empty()) continue;
    Result<BookingRecord> booking =
        xar_.Book(matches.front().ride, req, matches.front());
    if (!booking.ok()) continue;
    ++booked;
    EXPECT_LE(booking->actual_detour_m,
              booking->estimated_detour_m + slack + 1e-6)
        << "request " << req.id.value();
  }
  EXPECT_GT(booked, 0u);
}

// meeting_points with one candidate per side is the classic scenario,
// match for match; more candidates can only widen the result set.
TEST(MeetingPointsTest, OneCandidateReproducesClassicSearch) {
  TestCity& city = SharedCity();
  XarOptions classic;
  XarOptions mp1;
  mp1.meeting_points = true;
  mp1.meeting_point_candidates = 1;
  XarOptions mp4;
  mp4.meeting_points = true;
  mp4.meeting_point_candidates = 4;
  XarSystem xar_classic(city.graph, *city.spatial, *city.region, *city.oracle,
                        classic);
  XarSystem xar_mp1(city.graph, *city.spatial, *city.region, *city.oracle,
                    mp1);
  XarSystem xar_mp4(city.graph, *city.spatial, *city.region, *city.oracle,
                    mp4);
  Seed(&xar_classic, 220, 440);
  Seed(&xar_mp1, 220, 440);
  Seed(&xar_mp4, 220, 440);

  std::size_t nonempty = 0;
  std::size_t widened = 0;
  for (const TaxiTrip& t : Trips(120, 441)) {
    RideRequest req = ToRequest(t);
    std::vector<RideMatch> base = xar_classic.Search(req);
    std::vector<RideMatch> k1 = xar_mp1.Search(req);
    ASSERT_EQ(base.size(), k1.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(base[i].ride, k1[i].ride);
      EXPECT_DOUBLE_EQ(base[i].TotalWalkM(), k1[i].TotalWalkM());
      EXPECT_EQ(base[i].pickup_landmark, k1[i].pickup_landmark);
      EXPECT_EQ(base[i].dropoff_landmark, k1[i].dropoff_landmark);
    }
    std::vector<RideMatch> k4 = xar_mp4.Search(req);
    EXPECT_GE(k4.size(), base.size())
        << "meeting points may only widen the candidate set";
    if (!base.empty()) ++nonempty;
    if (k4.size() > base.size()) ++widened;
  }
  EXPECT_GT(nonempty, 0u);
  EXPECT_GT(widened, 0u) << "expected at least one request to gain a "
                            "meeting-point alternative";
}

// The paper's detour guarantee survives the meeting-points widening: every
// emitted combination passes the same cluster-level threshold checks, so
// each booking stays within estimated + 4*epsilon (+ the 2*Delta
// grid->landmark association slack).
TEST(MeetingPointsTest, DetourGuaranteeHoldsWithMeetingPoints) {
  TestCity& city = SharedCity();
  GraphOracle oracle(city.graph);
  XarOptions opt;
  opt.meeting_points = true;
  opt.meeting_point_candidates = 4;
  XarSystem xar(city.graph, *city.spatial, *city.region, oracle, opt);
  Seed(&xar, 250, 450);

  const double slack = 4 * xar.region().epsilon() +
                       2 * xar.region().options().max_drive_to_landmark_m;
  std::size_t booked = 0;
  for (const TaxiTrip& t : Trips(200, 451)) {
    Result<BookingRecord> booking = xar.SearchAndBook(ToRequest(t));
    if (!booking.ok()) continue;
    ++booked;
    EXPECT_LE(booking->actual_detour_m,
              booking->estimated_detour_m + slack + 1e-6)
        << "4-epsilon bound violated on a meeting-point booking";
    EXPECT_LE(booking->shortest_path_computations, 4u);
  }
  EXPECT_GT(booked, 5u);
}

// SearchAndBook is Search followed by Book of each match in walk order
// until one lands: a twin system driven by hand books the same ride at the
// same detour and walk for every request.
TEST(SearchAndBookTest, BooksFirstBookableMatchInWalkOrder) {
  TestCity& city = SharedCity();
  GraphOracle oracle_a(city.graph);
  GraphOracle oracle_b(city.graph);
  XarSystem xar(city.graph, *city.spatial, *city.region, oracle_a);
  XarSystem twin(city.graph, *city.spatial, *city.region, oracle_b);
  Seed(&xar, 220, 430);
  Seed(&twin, 220, 430);

  std::size_t booked = 0;
  for (const TaxiTrip& t : Trips(150, 431)) {
    RideRequest req = ToRequest(t);
    Result<BookingRecord> a = xar.SearchAndBook(req);
    Result<BookingRecord> b = Status::NotFound("no bookable ride");
    for (const RideMatch& match : twin.Search(req)) {
      b = twin.Book(match.ride, req, match);
      if (b.ok()) break;
    }
    ASSERT_EQ(a.ok(), b.ok()) << "request " << req.id.value();
    if (!a.ok()) continue;
    EXPECT_EQ(a->ride, b->ride);
    EXPECT_DOUBLE_EQ(a->actual_detour_m, b->actual_detour_m);
    EXPECT_DOUBLE_EQ(a->walk_m, b->walk_m);
    ++booked;
  }
  EXPECT_GT(booked, 0u);
}

// With one caller, the sharded SearchAndBook books exactly what a serial
// system over the same offers books (ride ids and merged search order are
// shard-independent), and the retry stats account for every request.
TEST(SearchAndBookTest, ShardedSystemBooksAsSerialSystem) {
  TestCity& city = SharedCity();
  GraphOracle serial_oracle(city.graph);
  GraphOracle sharded_oracle(city.graph);
  XarSystem serial(city.graph, *city.spatial, *city.region, serial_oracle);
  ConcurrentXarSystem sharded(city.graph, *city.spatial, *city.region,
                              sharded_oracle, {}, /*num_shards=*/4);
  Seed(&serial, 250, 460);
  for (const TaxiTrip& t : Trips(250, 460)) {
    RideOffer offer;
    offer.source = t.pickup;
    offer.destination = t.dropoff;
    offer.departure_time_s = t.pickup_time_s;
    (void)sharded.CreateRide(offer);
  }

  std::size_t requests = 0;
  std::size_t booked = 0;
  for (const TaxiTrip& t : Trips(150, 461)) {
    RideRequest req = ToRequest(t);
    Result<BookingRecord> a = serial.SearchAndBook(req);
    Result<BookingRecord> b = sharded.SearchAndBook(req);
    ++requests;
    ASSERT_EQ(a.ok(), b.ok()) << "request " << req.id.value();
    if (!a.ok()) continue;
    EXPECT_EQ(a->ride, b->ride);
    EXPECT_DOUBLE_EQ(a->actual_detour_m, b->actual_detour_m);
    EXPECT_DOUBLE_EQ(a->walk_m, b->walk_m);
    ++booked;
  }
  EXPECT_GT(booked, 0u);
  RetryStats stats = sharded.retry_stats();
  EXPECT_EQ(stats.booked_first_try, booked);
  EXPECT_EQ(stats.booked_after_research, 0u);
  EXPECT_EQ(stats.unmatched, requests - booked);

  std::vector<std::string> names;
  for (const auto& row : RetryStatsSection(stats).rows) {
    for (const StatsMetric& m : row) names.push_back(m.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"booked_first_try",
                                             "booked_after_research",
                                             "stale_rejections", "unmatched"}));
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndWalkLimits, SearchPropertyTest,
    ::testing::Combine(::testing::Values(61, 62, 63),
                       ::testing::Values(200.0, 500.0, 1000.0)));

INSTANTIATE_TEST_SUITE_P(Seeds, PerturbedRefreshTest,
                         ::testing::Values(61, 62, 63));

}  // namespace
}  // namespace xar
