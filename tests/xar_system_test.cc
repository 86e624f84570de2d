#include "xar/xar_system.h"

#include <gtest/gtest.h>

#include "tests/test_helpers.h"
#include "xar/ride.h"

namespace xar {
namespace {

using testing::SharedCity;
using testing::TestCity;

class XarSystemTest : public ::testing::Test {
 protected:
  XarSystemTest()
      : city_(SharedCity()),
        xar_(city_.graph, *city_.spatial, *city_.region, *city_.oracle) {}

  /// An offer crossing the city diagonally, departing at `t`.
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

  /// A request along the middle of the diagonal, compatible with the offer.
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
  XarSystem xar_;
};

TEST_F(XarSystemTest, CreateRideRegistersClusters) {
  Result<RideId> ride = xar_.CreateRide(DiagonalOffer());
  ASSERT_TRUE(ride.ok()) << ride.status().ToString();
  const Ride* r = xar_.GetRide(*ride);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->active);
  EXPECT_EQ(r->via_points.size(), 2u);
  EXPECT_GT(r->route.nodes.size(), 2u);
  const RideRegistration* reg = xar_.match_index().RegistrationOf(*ride);
  ASSERT_NE(reg, nullptr);
  EXPECT_FALSE(reg->pass_throughs.empty());
  EXPECT_FALSE(reg->registered_clusters.empty());
}

TEST_F(XarSystemTest, CreateRideDepartedBeforeClockSkipsPassedClusters) {
  const double now = 8 * 3600.0;
  xar_.AdvanceTime(now);
  // Departed 600 s ago, the diagonal ride (a few minutes long) has driven
  // past every cluster; departed 120 s ago, it is mid-route.
  for (double ago : {600.0, 120.0}) {
    SCOPED_TRACE(::testing::Message() << "departed " << ago << " s ago");
    Result<RideId> ride = xar_.CreateRide(DiagonalOffer(now - ago));
    ASSERT_TRUE(ride.ok()) << ride.status().ToString();
    const RideRegistration* reg = xar_.match_index().RegistrationOf(*ride);
    ASSERT_NE(reg, nullptr);
    for (const PassThroughCluster& pt : reg->pass_throughs) {
      EXPECT_GE(pt.eta_s, now) << "cluster " << pt.cluster.value();
    }
    if (xar_.GetRide(*ride)->ArrivalTimeS() > now) {
      // The clusters still ahead stay searchable.
      EXPECT_FALSE(reg->pass_throughs.empty());
    } else {
      EXPECT_TRUE(reg->registered_clusters.empty());
    }
  }
}

TEST_F(XarSystemTest, SearchFindsCompatibleRide) {
  Result<RideId> ride = xar_.CreateRide(DiagonalOffer());
  ASSERT_TRUE(ride.ok());
  std::vector<RideMatch> matches = xar_.Search(MidRequest());
  ASSERT_FALSE(matches.empty());
  bool found = false;
  for (const RideMatch& m : matches) {
    if (m.ride == *ride) found = true;
    EXPECT_LE(m.TotalWalkM(), xar_.options().default_walk_limit_m);
    EXPECT_LE(m.eta_source_s, m.eta_dest_s);
  }
  EXPECT_TRUE(found);
}

TEST_F(XarSystemTest, SearchRespectsWalkLimit) {
  ASSERT_TRUE(xar_.CreateRide(DiagonalOffer()).ok());
  RideRequest req = MidRequest();
  req.walk_limit_m = 1.0;  // nothing is within a meter of a landmark
  EXPECT_TRUE(xar_.Search(req).empty());
}

TEST_F(XarSystemTest, SearchRespectsTimeWindow) {
  ASSERT_TRUE(xar_.CreateRide(DiagonalOffer(8 * 3600.0)).ok());
  RideRequest req = MidRequest(20 * 3600.0);  // 12 hours later
  EXPECT_TRUE(xar_.Search(req).empty());
}

TEST_F(XarSystemTest, BookInsertsViaPointsAndChargesDetour) {
  Result<RideId> ride = xar_.CreateRide(DiagonalOffer());
  ASSERT_TRUE(ride.ok());
  RideRequest req = MidRequest();
  std::vector<RideMatch> matches = xar_.Search(req);
  ASSERT_FALSE(matches.empty());

  double route_before = xar_.GetRide(*ride)->route.length_m;
  Result<BookingRecord> booking = xar_.Book(matches[0].ride, req, matches[0]);
  ASSERT_TRUE(booking.ok()) << booking.status().ToString();

  const Ride* r = xar_.GetRide(*ride);
  EXPECT_EQ(r->via_points.size(), 4u);  // src, pickup, dropoff, dst
  EXPECT_EQ(r->seats_available, r->seats_total - 1);
  EXPECT_GE(r->route.length_m, route_before);
  EXPECT_NEAR(r->detour_used_m, booking->actual_detour_m, 1e-6);
  EXPECT_LE(booking->shortest_path_computations, 4u);
  EXPECT_LE(booking->pickup_eta_s, booking->dropoff_eta_s);

  // Via-point order along the route must be monotone.
  for (std::size_t i = 0; i + 1 < r->via_route_index.size(); ++i) {
    EXPECT_LE(r->via_route_index[i], r->via_route_index[i + 1]);
  }
  // Via route indexes point at the right nodes.
  for (std::size_t i = 0; i < r->via_points.size(); ++i) {
    EXPECT_EQ(r->route.nodes[r->via_route_index[i]], r->via_points[i].node);
  }
}

TEST_F(XarSystemTest, BookingDetourWithinGuarantee) {
  Result<RideId> ride = xar_.CreateRide(DiagonalOffer());
  ASSERT_TRUE(ride.ok());
  RideRequest req = MidRequest();
  std::vector<RideMatch> matches = xar_.Search(req);
  ASSERT_FALSE(matches.empty());
  Result<BookingRecord> booking = xar_.Book(matches[0].ride, req, matches[0]);
  ASSERT_TRUE(booking.ok());
  // Theorem 6 / Section V: actual detour exceeds the cluster estimate by at
  // most 4 * epsilon.
  double bound = matches[0].detour_estimate_m + 4 * city_.region->epsilon();
  EXPECT_LE(booking->actual_detour_m, bound + 1e-6);
}

TEST_F(XarSystemTest, SeatsExhaustRejectsFurtherBookings) {
  RideOffer offer = DiagonalOffer();
  offer.seats = 1;
  Result<RideId> ride = xar_.CreateRide(offer);
  ASSERT_TRUE(ride.ok());
  RideRequest req = MidRequest();
  std::vector<RideMatch> matches = xar_.Search(req);
  ASSERT_FALSE(matches.empty());
  ASSERT_TRUE(xar_.Book(matches[0].ride, req, matches[0]).ok());

  // The ride is full: search must not return it any more.
  RideRequest req2 = MidRequest();
  req2.id = RequestId(2);
  for (const RideMatch& m : xar_.Search(req2)) {
    EXPECT_NE(m.ride, *ride);
  }
}

TEST_F(XarSystemTest, TrackingEvictsPassedClusters) {
  Result<RideId> ride = xar_.CreateRide(DiagonalOffer(8 * 3600.0));
  ASSERT_TRUE(ride.ok());
  const Ride* r = xar_.GetRide(*ride);
  double halfway = r->departure_time_s + r->route.time_s * 0.5;

  std::size_t before =
      xar_.match_index().RegistrationOf(*ride)->pass_throughs.size();
  xar_.AdvanceTime(halfway);
  const RideRegistration* reg = xar_.match_index().RegistrationOf(*ride);
  ASSERT_NE(reg, nullptr);
  EXPECT_LT(reg->pass_throughs.size(), before);
  // All remaining pass-throughs lie in the future.
  for (const PassThroughCluster& pt : reg->pass_throughs) {
    EXPECT_GE(pt.eta_s, halfway);
  }
}

TEST_F(XarSystemTest, RideFinishesAfterArrival) {
  Result<RideId> ride = xar_.CreateRide(DiagonalOffer(8 * 3600.0));
  ASSERT_TRUE(ride.ok());
  double arrival = xar_.GetRide(*ride)->ArrivalTimeS();
  xar_.AdvanceTime(arrival + 1.0);
  EXPECT_FALSE(xar_.GetRide(*ride)->active);
  EXPECT_EQ(xar_.match_index().RegistrationOf(*ride), nullptr);
  EXPECT_EQ(xar_.NumActiveRides(), 0u);
}

TEST_F(XarSystemTest, SearchAfterTrackingDoesNotReturnPassedRides) {
  Result<RideId> ride = xar_.CreateRide(DiagonalOffer(8 * 3600.0));
  ASSERT_TRUE(ride.ok());
  // Move time to just before arrival: the early-route clusters are passed.
  const Ride* r = xar_.GetRide(*ride);
  double late = r->departure_time_s + r->route.time_s * 0.95;
  xar_.AdvanceTime(late);

  // A request near the start of the route must not match any more.
  RideRequest req = MidRequest(8 * 3600.0);
  const BoundingBox& b = city_.graph.bounds();
  req.source = {b.min_lat + 0.12 * (b.max_lat - b.min_lat),
                b.min_lng + 0.12 * (b.max_lng - b.min_lng)};
  req.destination = {b.min_lat + 0.3 * (b.max_lat - b.min_lat),
                     b.min_lng + 0.3 * (b.max_lng - b.min_lng)};
  for (const RideMatch& m : xar_.Search(req)) {
    EXPECT_NE(m.ride, *ride);
  }
}

TEST_F(XarSystemTest, UnreachableOfferRejected) {
  RideOffer offer;
  offer.source = city_.graph.bounds().Center();
  offer.destination = offer.source;
  EXPECT_FALSE(xar_.CreateRide(offer).ok());
}

TEST_F(XarSystemTest, MemoryFootprintGrowsWithRides) {
  std::size_t empty = xar_.MemoryFootprint();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(xar_.CreateRide(DiagonalOffer(8 * 3600.0 + i * 60)).ok());
  }
  EXPECT_GT(xar_.MemoryFootprint(), empty);
}

}  // namespace
}  // namespace xar
