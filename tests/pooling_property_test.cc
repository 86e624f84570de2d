// Property suite for pooled schedules (ISSUE 10):
//
//  - Every pooled schedule respects per-rider budgets at every prefix: each
//    rider's pickup and drop-off deadline (the detour-budget contract minted
//    at booking time from XarOptions::eta_window_slack_s / max_onboard_s)
//    bounds the via ETA the committed route actually serves, and seat
//    capacity holds at every prefix of every retained ordering.
//  - With kinetic_booking=false nothing changes versus the seed behaviour:
//    no schedule is ever materialized, the pooling counters stay zero, and
//    the splice path keeps its <= 4 shortest-path bound per booking.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "graph/oracle.h"
#include "tests/pooling_checkers.h"
#include "tests/test_helpers.h"
#include "xar/xar_system.h"

namespace xar {
namespace {

using testing::PersistentMatchesRebuild;
using testing::PooledRideConsistent;
using testing::ScheduleRespectsBudgets;
using testing::SharedCity;
using testing::TestCity;

constexpr double kStart = 8 * 3600.0;

class PoolingPropertyTest : public ::testing::Test {
 protected:
  PoolingPropertyTest() : city_(SharedCity()) {}

  LatLng Frac(double fy, double fx) const {
    const BoundingBox& b = city_.graph.bounds();
    return {b.min_lat + fy * (b.max_lat - b.min_lat),
            b.min_lng + fx * (b.max_lng - b.min_lng)};
  }

  RideId CreateDiagonal(XarSystem& xar, double detour_limit_m = 8000) {
    RideOffer offer;
    offer.source = Frac(0.05, 0.05);
    offer.destination = Frac(0.95, 0.95);
    offer.departure_time_s = kStart;
    offer.detour_limit_m = detour_limit_m;
    offer.seats = 4;
    Result<RideId> ride = xar.CreateRide(offer);
    EXPECT_TRUE(ride.ok());
    return *ride;
  }

  RideRequest MakeRequest(std::uint32_t id, double fy0, double fx0,
                          double fy1, double fx1, double t) const {
    RideRequest req;
    req.id = RequestId(id);
    req.source = Frac(fy0, fx0);
    req.destination = Frac(fy1, fx1);
    req.earliest_departure_s = t;
    req.latest_departure_s = t + 2400;
    return req;
  }

  TestCity& city_;
};

TEST_F(PoolingPropertyTest, EveryPrefixRespectsBudgetsAndCapacity) {
  GraphOracle oracle(city_.graph);
  XarOptions opt;
  opt.kinetic_booking = true;
  XarSystem xar(city_.graph, *city_.spatial, *city_.region, oracle, opt);
  RideId ride = CreateDiagonal(xar);

  // The deadline contract each booking mints, recorded at booking time.
  struct Contract {
    double pickup_deadline_s;
    double dropoff_deadline_s;
  };
  std::map<std::uint32_t, Contract> contracts;

  const double spots[4][4] = {{0.20, 0.20, 0.55, 0.55},
                              {0.30, 0.30, 0.70, 0.70},
                              {0.50, 0.50, 0.85, 0.85},
                              {0.15, 0.15, 0.40, 0.40}};
  std::size_t booked = 0;
  for (int r = 0; r < 4; ++r) {
    RideRequest req = MakeRequest(static_cast<std::uint32_t>(r + 1),
                                  spots[r][0], spots[r][1], spots[r][2],
                                  spots[r][3], kStart);
    std::vector<RideMatch> matches = xar.Search(req);
    if (matches.empty()) continue;
    Result<BookingRecord> booking =
        xar.Book(matches.front().ride, req, matches.front());
    if (!booking.ok() || booking->ride != ride) continue;
    ++booked;
    const double pickup_deadline =
        std::max(req.latest_departure_s, matches.front().eta_source_s) +
        opt.eta_window_slack_s;
    contracts[req.id.value()] = {pickup_deadline,
                                 pickup_deadline + opt.max_onboard_s};

    // (a) The committed via plan honours every recorded contract.
    const Ride* live = xar.GetRide(ride);
    ASSERT_NE(live, nullptr);
    ASSERT_TRUE(PooledRideConsistent(*live));
    for (const ViaPoint& vp : live->via_points) {
      if (!vp.request.valid()) continue;
      auto it = contracts.find(vp.request.value());
      ASSERT_NE(it, contracts.end());
      const double deadline = vp.is_pickup ? it->second.pickup_deadline_s
                                           : it->second.dropoff_deadline_s;
      EXPECT_LE(vp.eta_s, deadline + 1e-6)
          << "request " << vp.request.value()
          << (vp.is_pickup ? " pickup" : " dropoff")
          << " scheduled past its deadline";
    }
    // (b) The persistent tree agrees with an independent re-pricing, at
    // every prefix, and with a from-scratch rebuild.
    const RideSchedule* sched = xar.GetSchedule(ride);
    ASSERT_NE(sched, nullptr);
    EXPECT_TRUE(ScheduleRespectsBudgets(*sched, oracle));
    EXPECT_TRUE(PersistentMatchesRebuild(*sched, oracle));
  }
  ASSERT_GE(booked, 2u) << "scenario did not pool riders";
  EXPECT_GE(xar.pooling_stats().max_pooled_riders, 2u);
}

TEST_F(PoolingPropertyTest, InProgressInsertionKeepsOnboardRidersFeasible) {
  GraphOracle oracle(city_.graph);
  XarOptions opt;
  opt.kinetic_booking = true;
  XarSystem xar(city_.graph, *city_.spatial, *city_.region, oracle, opt);
  RideId ride = CreateDiagonal(xar);

  RideRequest first = MakeRequest(1, 0.20, 0.20, 0.80, 0.80, kStart);
  std::vector<RideMatch> matches = xar.Search(first);
  ASSERT_FALSE(matches.empty());
  ASSERT_TRUE(xar.Book(matches.front().ride, first, matches.front()).ok());

  // Drive past the first rider's pickup: they are now on board.
  const Ride* r = xar.GetRide(ride);
  double pickup_eta = 0;
  for (const ViaPoint& vp : r->via_points) {
    if (vp.request == first.id && vp.is_pickup) pickup_eta = vp.eta_s;
  }
  ASSERT_GT(pickup_eta, 0);
  xar.AdvanceTime(pickup_eta + 60);

  // A second rider books into the moving, occupied vehicle.
  RideRequest second =
      MakeRequest(2, 0.55, 0.55, 0.90, 0.90, pickup_eta + 60);
  matches = xar.Search(second);
  ASSERT_FALSE(matches.empty()) << "moving ride left the search window";
  Result<BookingRecord> booking =
      xar.Book(matches.front().ride, second, matches.front());
  ASSERT_TRUE(booking.ok()) << booking.status().ToString();
  ASSERT_EQ(booking->ride, ride)
      << "in-progress insertion landed on another ride";

  const RideSchedule* sched = xar.GetSchedule(ride);
  ASSERT_NE(sched, nullptr);
  EXPECT_GE(sched->Onboard(), 1);
  EXPECT_TRUE(PersistentMatchesRebuild(*sched, oracle));
  EXPECT_TRUE(ScheduleRespectsBudgets(*sched, oracle));
  ASSERT_TRUE(PooledRideConsistent(*xar.GetRide(ride)));
  // The first rider's drop-off survives ahead of the vehicle, and the new
  // rider's stops are both still pending.
  bool first_drop_pending = false;
  for (const RideSchedule::PendingRider& p : sched->PendingRiders()) {
    if (p.request == first.id) first_drop_pending = p.onboard;
  }
  EXPECT_TRUE(first_drop_pending);
}

TEST_F(PoolingPropertyTest, NonKineticPathUnchangedFromSeed) {
  GraphOracle oracle(city_.graph);
  XarSystem xar(city_.graph, *city_.spatial, *city_.region, oracle);  // seed opts
  RideId ride = CreateDiagonal(xar);

  const double spots[3][4] = {{0.25, 0.25, 0.55, 0.55},
                              {0.60, 0.60, 0.90, 0.90},
                              {0.35, 0.35, 0.75, 0.75}};
  const double slack = 4 * city_.region->epsilon() +
                       2 * city_.region->options().max_drive_to_landmark_m;
  std::size_t booked = 0;
  for (int r = 0; r < 3; ++r) {
    RideRequest req = MakeRequest(static_cast<std::uint32_t>(r + 1),
                                  spots[r][0], spots[r][1], spots[r][2],
                                  spots[r][3], kStart);
    std::vector<RideMatch> matches = xar.Search(req);
    if (matches.empty()) continue;
    Result<BookingRecord> booking =
        xar.Book(matches.front().ride, req, matches.front());
    if (!booking.ok()) continue;
    ++booked;
    // The splice path's paper bounds are intact: <= 4 shortest paths per
    // booking and the 4-epsilon detour guarantee.
    EXPECT_LE(booking->shortest_path_computations, 4u);
    EXPECT_LE(booking->actual_detour_m,
              booking->estimated_detour_m + slack + 1e-6);
  }
  ASSERT_GT(booked, 0u);

  // No persistent schedule was ever materialized and no pooling counter
  // moved: with kinetic_booking off the new subsystem is inert.
  EXPECT_EQ(xar.GetSchedule(ride), nullptr);
  const PoolingStats stats = xar.pooling_stats();
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.rejections, 0u);
  EXPECT_EQ(stats.removals, 0u);
  EXPECT_EQ(stats.advanced_stops, 0u);
  EXPECT_EQ(stats.kinetic_rides, 0u);
  EXPECT_EQ(stats.retained_orderings, 0u);
}

}  // namespace
}  // namespace xar
