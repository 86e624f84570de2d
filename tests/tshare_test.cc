#include "tshare/tshare_system.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <vector>

#include "geo/grid.h"
#include "tests/test_helpers.h"

namespace xar {
namespace {

using testing::SharedCity;
using testing::TestCity;

// Forwards to a real oracle; while `fail_routes` is set every route comes
// back unreachable, so a booking's splice fails.
class FailingRouteOracle final : public DistanceOracle {
 public:
  explicit FailingRouteOracle(DistanceOracle& inner) : inner_(inner) {}

  double DriveDistance(NodeId from, NodeId to) override {
    return inner_.DriveDistance(from, to);
  }
  double DriveTime(NodeId from, NodeId to) override {
    return inner_.DriveTime(from, to);
  }
  double WalkDistance(NodeId from, NodeId to) override {
    return inner_.WalkDistance(from, to);
  }
  Path DriveRoute(NodeId from, NodeId to) override {
    return fail_routes ? Path{} : inner_.DriveRoute(from, to);
  }

  bool fail_routes = false;

 private:
  DistanceOracle& inner_;
};

class TShareTest : public ::testing::Test {
 protected:
  TShareTest()
      : city_(SharedCity()),
        tshare_(city_.graph, *city_.spatial, *city_.oracle) {}

  RideOffer DiagonalOffer(double t = 8 * 3600.0) const {
    const BoundingBox& b = city_.graph.bounds();
    RideOffer offer;
    offer.source = {b.min_lat + 0.1 * (b.max_lat - b.min_lat),
                    b.min_lng + 0.1 * (b.max_lng - b.min_lng)};
    offer.destination = {b.min_lat + 0.9 * (b.max_lat - b.min_lat),
                         b.min_lng + 0.9 * (b.max_lng - b.min_lng)};
    offer.departure_time_s = t;
    return offer;
  }

  RideRequest MidRequest(double t = 8 * 3600.0) const {
    const BoundingBox& b = city_.graph.bounds();
    RideRequest req;
    req.id = RequestId(1);
    req.source = {b.min_lat + 0.35 * (b.max_lat - b.min_lat),
                  b.min_lng + 0.35 * (b.max_lng - b.min_lng)};
    req.destination = {b.min_lat + 0.7 * (b.max_lat - b.min_lat),
                       b.min_lng + 0.7 * (b.max_lng - b.min_lng)};
    req.earliest_departure_s = t;
    req.latest_departure_s = t + 1800;
    return req;
  }

  TestCity& city_;
  TShareSystem tshare_;
};

TEST_F(TShareTest, CreateRideSucceeds) {
  Result<RideId> ride = tshare_.CreateRide(DiagonalOffer());
  ASSERT_TRUE(ride.ok());
  const Ride* r = tshare_.GetRide(*ride);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->active);
  EXPECT_EQ(tshare_.NumActiveRides(), 1u);
}

TEST_F(TShareTest, SearchFindsCompatibleTaxi) {
  Result<RideId> ride = tshare_.CreateRide(DiagonalOffer());
  ASSERT_TRUE(ride.ok());
  std::vector<TShareMatch> matches = tshare_.Search(MidRequest());
  ASSERT_FALSE(matches.empty());
  EXPECT_EQ(matches.front().ride, *ride);
  EXPECT_GE(matches.front().detour_m, 0.0);
  EXPECT_LE(matches.front().detour_m,
            tshare_.GetRide(*ride)->detour_limit_m + 1e-9);
}

TEST_F(TShareTest, SearchDetourIsExact) {
  Result<RideId> ride = tshare_.CreateRide(DiagonalOffer());
  ASSERT_TRUE(ride.ok());
  RideRequest req = MidRequest();
  std::vector<TShareMatch> matches = tshare_.Search(req);
  ASSERT_FALSE(matches.empty());
  const TShareMatch& m = matches.front();
  // Booking the match must increase the route length by (nearly) exactly
  // the detour the search computed: T-Share verifies with real distances.
  double before = tshare_.GetRide(*ride)->route.length_m;
  Result<BookingRecord> booking = tshare_.Book(m.ride, req, m);
  ASSERT_TRUE(booking.ok());
  double after = tshare_.GetRide(*ride)->route.length_m;
  EXPECT_NEAR(after - before, m.detour_m, 1.0);
}

TEST_F(TShareTest, EarlyExitReturnsAtMostK) {
  for (int i = 0; i < 6; ++i) {
    RideOffer offer = DiagonalOffer(8 * 3600.0 + i * 30);
    ASSERT_TRUE(tshare_.CreateRide(offer).ok());
  }
  EXPECT_LE(tshare_.Search(MidRequest(), 2).size(), 2u);
  EXPECT_GE(tshare_.Search(MidRequest(), 0).size(), 3u);
}

TEST_F(TShareTest, TimeWindowFiltersTaxis) {
  ASSERT_TRUE(tshare_.CreateRide(DiagonalOffer(8 * 3600.0)).ok());
  EXPECT_TRUE(tshare_.Search(MidRequest(20 * 3600.0)).empty());
}

TEST_F(TShareTest, BookingConsumesSeatAndBudget) {
  RideOffer offer = DiagonalOffer();
  offer.seats = 1;
  Result<RideId> ride = tshare_.CreateRide(offer);
  ASSERT_TRUE(ride.ok());
  RideRequest req = MidRequest();
  std::vector<TShareMatch> matches = tshare_.Search(req);
  ASSERT_FALSE(matches.empty());
  ASSERT_TRUE(tshare_.Book(matches.front().ride, req, matches.front()).ok());

  const Ride* r = tshare_.GetRide(*ride);
  EXPECT_EQ(r->seats_available, 0);
  EXPECT_EQ(r->via_points.size(), 4u);
  // Via-point order along the route must be monotone and point at the
  // right nodes.
  for (std::size_t i = 0; i + 1 < r->via_route_index.size(); ++i) {
    EXPECT_LE(r->via_route_index[i], r->via_route_index[i + 1]);
  }
  for (std::size_t i = 0; i < r->via_points.size(); ++i) {
    EXPECT_EQ(r->route.nodes[r->via_route_index[i]], r->via_points[i].node);
  }
  // Seats exhausted => no longer matched.
  RideRequest req2 = MidRequest();
  req2.id = RequestId(2);
  for (const TShareMatch& m : tshare_.Search(req2)) {
    EXPECT_NE(m.ride, *ride);
  }
}

// T-Share shares XAR's booking record: it carries the request's seats and
// the ride's remaining detour budget before the booking.
TEST_F(TShareTest, RecordCarriesSeatsAndBudgetBefore) {
  Result<RideId> ride = tshare_.CreateRide(DiagonalOffer());
  ASSERT_TRUE(ride.ok());
  // A first rider spends part of the budget, so "before" is not the limit.
  RideRequest first = MidRequest();
  std::vector<TShareMatch> matches = tshare_.Search(first);
  ASSERT_FALSE(matches.empty());
  ASSERT_TRUE(tshare_.Book(matches.front().ride, first, matches.front()).ok());

  RideRequest pair = MidRequest();
  pair.id = RequestId(2);
  pair.seats = 2;
  matches = tshare_.Search(pair);
  ASSERT_FALSE(matches.empty());
  ASSERT_EQ(matches.front().ride, *ride);
  const double budget_before = tshare_.GetRide(*ride)->RemainingDetourBudget();
  const int seats_before = tshare_.GetRide(*ride)->seats_available;
  Result<BookingRecord> booking =
      tshare_.Book(matches.front().ride, pair, matches.front());
  ASSERT_TRUE(booking.ok());
  EXPECT_EQ(booking->seats, 2);
  EXPECT_LT(budget_before, tshare_.GetRide(*ride)->detour_limit_m);
  EXPECT_EQ(booking->budget_before_m, budget_before);
  EXPECT_EQ(tshare_.GetRide(*ride)->seats_available, seats_before - 2);
}

TEST_F(TShareTest, LazySearchCountsShortestPaths) {
  ASSERT_TRUE(tshare_.CreateRide(DiagonalOffer()).ok());
  std::size_t before = tshare_.search_sp_count();
  (void)tshare_.Search(MidRequest());
  EXPECT_GT(tshare_.search_sp_count(), before);
}

TEST_F(TShareTest, HaversineSearchOracleVariant) {
  HaversineOracle haversine(city_.graph);
  TShareSystem fast(city_.graph, *city_.spatial, *city_.oracle, {},
                    &haversine);
  ASSERT_TRUE(fast.CreateRide(DiagonalOffer()).ok());
  std::vector<TShareMatch> matches = fast.Search(MidRequest());
  EXPECT_FALSE(matches.empty());
  // Booking still uses real routes (haversine is search-only).
  RideRequest req = MidRequest();
  EXPECT_TRUE(fast.Book(matches.front().ride, req, matches.front()).ok());
}

TEST_F(TShareTest, AdvanceTimeRetiresFinishedRides) {
  Result<RideId> ride = tshare_.CreateRide(DiagonalOffer(8 * 3600.0));
  ASSERT_TRUE(ride.ok());
  tshare_.AdvanceTime(tshare_.GetRide(*ride)->ArrivalTimeS() + 1.0);
  EXPECT_FALSE(tshare_.GetRide(*ride)->active);
  EXPECT_EQ(tshare_.NumActiveRides(), 0u);
  EXPECT_TRUE(tshare_.Search(MidRequest()).empty());
}

TEST_F(TShareTest, GridCapLimitsExploration) {
  TShareOptions opt;
  opt.max_grids_explored = 1;  // only the origin cell
  TShareSystem capped(city_.graph, *city_.spatial, *city_.oracle, opt);
  // A ride that passes nowhere near the request origin cell can't be found.
  ASSERT_TRUE(capped.CreateRide(DiagonalOffer()).ok());
  const BoundingBox& b = city_.graph.bounds();
  RideRequest req = MidRequest();
  req.source = {b.min_lat + 0.9 * (b.max_lat - b.min_lat),
                b.min_lng + 0.1 * (b.max_lng - b.min_lng)};  // off-route
  EXPECT_TRUE(capped.Search(req).empty());
}

TEST_F(TShareTest, MemoryFootprintGrows) {
  std::size_t empty = tshare_.MemoryFootprint();
  ASSERT_TRUE(tshare_.CreateRide(DiagonalOffer()).ok());
  EXPECT_GT(tshare_.MemoryFootprint(), empty);
}

// Every cell list holds exactly the active rides, each at the ETA of its
// route's first node inside the cell, through bookings, a failed splice
// and retirement.
TEST_F(TShareTest, CellListsHoldActiveRidesAtFirstVisitKeys) {
  FailingRouteOracle routing(*city_.oracle);
  TShareSystem tshare(city_.graph, *city_.spatial, routing);
  const GridSpec grid(city_.graph.bounds(), TShareOptions{}.grid_cell_m);
  constexpr double kInf = std::numeric_limits<double>::infinity();

  auto lists_hold_first_visits = [&]() -> ::testing::AssertionResult {
    std::vector<std::vector<PotentialRide>> want(grid.CellCount());
    for (std::size_t i = 0; i < tshare.NumRides(); ++i) {
      const Ride& ride = *tshare.GetRide(
          RideId(static_cast<RideId::underlying_type>(i)));
      if (!ride.active) continue;
      std::map<GridId, double> first_visit;
      for (std::size_t j = 0; j < ride.route.nodes.size(); ++j) {
        first_visit.emplace(
            grid.GridOf(city_.graph.PositionOf(ride.route.nodes[j])),
            ride.departure_time_s + ride.route_cum_time_s[j]);
      }
      for (const auto& [g, eta_s] : first_visit) {
        want[g.value()].push_back(PotentialRide{ride.id, eta_s});
      }
    }
    for (std::size_t c = 0; c < grid.CellCount(); ++c) {
      std::sort(want[c].begin(), want[c].end(),
                [](const PotentialRide& a, const PotentialRide& b) {
                  return a.eta_s != b.eta_s ? a.eta_s < b.eta_s
                                            : a.ride < b.ride;
                });
      const std::span<const PotentialRide> got =
          tshare.CellList(GridId(static_cast<GridId::underlying_type>(c)))
              .EtaRange(-kInf, kInf);
      bool same = got.size() == want[c].size();
      for (std::size_t k = 0; same && k < got.size(); ++k) {
        same = got[k].ride == want[c][k].ride &&
               std::bit_cast<std::uint64_t>(got[k].eta_s) ==
                   std::bit_cast<std::uint64_t>(want[c][k].eta_s);
      }
      if (!same) {
        return ::testing::AssertionFailure()
               << "cell " << c << " lists " << got.size()
               << " rides, the active routes first visit it "
               << want[c].size() << " times (or differ)";
      }
    }
    return ::testing::AssertionSuccess();
  };

  Result<RideId> ride = tshare.CreateRide(DiagonalOffer());
  ASSERT_TRUE(ride.ok());
  ASSERT_TRUE(tshare.CreateRide(DiagonalOffer(8 * 3600.0 + 600)).ok());
  EXPECT_TRUE(lists_hold_first_visits());

  auto book = [&](RequestId id, double from, double to) {
    const BoundingBox& b = city_.graph.bounds();
    RideRequest req = MidRequest();
    req.id = id;
    req.source = {b.min_lat + from * (b.max_lat - b.min_lat),
                  b.min_lng + from * (b.max_lng - b.min_lng)};
    req.destination = {b.min_lat + to * (b.max_lat - b.min_lat),
                       b.min_lng + to * (b.max_lng - b.min_lng)};
    for (const TShareMatch& m : tshare.Search(req)) {
      if (m.ride != *ride) continue;
      // A failed splice restores the ride's old entries; the retry books.
      routing.fail_routes = true;
      EXPECT_FALSE(tshare.Book(m.ride, req, m).ok());
      routing.fail_routes = false;
      EXPECT_TRUE(lists_hold_first_visits());
      return tshare.Book(m.ride, req, m).ok();
    }
    return false;
  };
  ASSERT_TRUE(book(RequestId(1), 0.3, 0.6));
  EXPECT_TRUE(lists_hold_first_visits());
  ASSERT_TRUE(book(RequestId(2), 0.5, 0.8));
  EXPECT_TRUE(lists_hold_first_visits());
  EXPECT_EQ(tshare.GetRide(*ride)->via_points.size(), 6u);

  tshare.AdvanceTime(tshare.GetRide(*ride)->ArrivalTimeS() + 1.0);
  EXPECT_FALSE(tshare.GetRide(*ride)->active);
  EXPECT_TRUE(lists_hold_first_visits());
}

}  // namespace
}  // namespace xar
