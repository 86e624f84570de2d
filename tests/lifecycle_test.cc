// Long-interaction lifecycle tests: one ride carrying several riders
// through bookings, mid-flight tracking and cancellations — the state
// machine interactions no single-operation test exercises.

#include <gtest/gtest.h>

#include "tests/test_helpers.h"
#include "xar/xar_system.h"

namespace xar {
namespace {

using testing::FindEntry;
using testing::SharedCity;
using testing::TestCity;

class LifecycleTest : public ::testing::Test {
 protected:
  LifecycleTest()
      : city_(SharedCity()),
        xar_(city_.graph, *city_.spatial, *city_.region, *city_.oracle) {}

  LatLng Frac(double fy, double fx) const {
    const BoundingBox& b = city_.graph.bounds();
    return {b.min_lat + fy * (b.max_lat - b.min_lat),
            b.min_lng + fx * (b.max_lng - b.min_lng)};
  }

  RideId CreateDiagonal(double t, double detour_m = 6000) {
    RideOffer offer;
    offer.source = Frac(0.05, 0.05);
    offer.destination = Frac(0.95, 0.95);
    offer.departure_time_s = t;
    offer.detour_limit_m = detour_m;
    Result<RideId> ride = xar_.CreateRide(offer);
    EXPECT_TRUE(ride.ok());
    return *ride;
  }

  Result<BookingRecord> BookBetween(RequestId id, double fy0, double fx0,
                                    double fy1, double fx1, double t) {
    RideRequest req;
    req.id = id;
    req.source = Frac(fy0, fx0);
    req.destination = Frac(fy1, fx1);
    req.earliest_departure_s = t;
    req.latest_departure_s = t + 2400;
    std::vector<RideMatch> matches = xar_.Search(req);
    if (matches.empty()) return Status::NotFound("no match");
    return xar_.Book(matches.front().ride, req, matches.front());
  }

  void ExpectRideInvariants(RideId id) {
    const Ride* r = xar_.GetRide(id);
    ASSERT_NE(r, nullptr);
    ASSERT_EQ(r->via_points.size(), r->via_route_index.size());
    for (std::size_t v = 0; v < r->via_points.size(); ++v) {
      EXPECT_EQ(r->route.nodes[r->via_route_index[v]], r->via_points[v].node);
      if (v > 0) {
        EXPECT_LE(r->via_route_index[v - 1], r->via_route_index[v]);
        EXPECT_LE(r->via_points[v - 1].eta_s, r->via_points[v].eta_s + 1e-6);
      }
    }
    EXPECT_GE(r->seats_available, 0);
    EXPECT_LE(r->detour_used_m, r->detour_limit_m + 4 * city_.region->epsilon() +
                                    2 * city_.region->options()
                                            .max_drive_to_landmark_m);
  }

  TestCity& city_;
  XarSystem xar_;
};

TEST_F(LifecycleTest, ThreeRidersFillTheCar) {
  RideId ride = CreateDiagonal(8 * 3600);
  int booked = 0;
  // Three riders along the diagonal, staggered.
  const double spots[3][4] = {{0.2, 0.2, 0.5, 0.5},
                              {0.3, 0.3, 0.7, 0.7},
                              {0.45, 0.45, 0.85, 0.85}};
  for (int r = 0; r < 3; ++r) {
    Result<BookingRecord> b =
        BookBetween(RequestId(static_cast<RequestId::underlying_type>(r + 1)),
                    spots[r][0], spots[r][1], spots[r][2], spots[r][3],
                    8 * 3600);
    if (b.ok() && b->ride == ride) ++booked;
    ExpectRideInvariants(ride);
  }
  ASSERT_GE(booked, 2) << "expected most riders to share the diagonal ride";
  const Ride* r = xar_.GetRide(ride);
  EXPECT_EQ(r->seats_available, r->seats_total - booked);
  EXPECT_EQ(r->via_points.size(), 2u + 2u * static_cast<unsigned>(booked));
}

TEST_F(LifecycleTest, CancelMiddleRiderKeepsOthersConsistent) {
  RideId ride = CreateDiagonal(8 * 3600);
  ASSERT_TRUE(
      BookBetween(RequestId(1), 0.2, 0.2, 0.6, 0.6, 8 * 3600).ok());
  Result<BookingRecord> second =
      BookBetween(RequestId(2), 0.35, 0.35, 0.8, 0.8, 8 * 3600);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(second->ride, ride) << "second rider did not land on the same ride";
  ASSERT_TRUE(xar_.CancelBooking(ride, RequestId(1)).ok());
  ExpectRideInvariants(ride);
  // Rider 2's via-points survive and stay ordered.
  const Ride* r = xar_.GetRide(ride);
  int rider2 = 0;
  for (const ViaPoint& vp : r->via_points) {
    if (vp.request == RequestId(2)) ++rider2;
  }
  EXPECT_EQ(rider2, 2);
}

TEST_F(LifecycleTest, BookingAfterMidFlightTrackingUsesRemainingRoute) {
  RideId ride = CreateDiagonal(8 * 3600);
  const Ride* r = xar_.GetRide(ride);
  double one_third = r->departure_time_s + r->route.time_s / 3;
  xar_.AdvanceTime(one_third);

  // A rider near the start must not match any more; one near the end must.
  RideRequest early;
  early.id = RequestId(10);
  early.source = Frac(0.1, 0.1);
  early.destination = Frac(0.25, 0.25);
  early.earliest_departure_s = one_third;
  early.latest_departure_s = one_third + 1800;
  for (const RideMatch& m : xar_.Search(early)) EXPECT_NE(m.ride, ride);

  Result<BookingRecord> late =
      BookBetween(RequestId(11), 0.6, 0.6, 0.85, 0.85, one_third);
  if (late.ok() && late->ride == ride) {
    // The pickup must be scheduled after the current time.
    EXPECT_GE(late->pickup_eta_s, one_third - 1e-6);
    ExpectRideInvariants(ride);
  }
}

TEST_F(LifecycleTest, FullDayLifecycleEndsClean) {
  RideId ride = CreateDiagonal(8 * 3600);
  (void)BookBetween(RequestId(1), 0.2, 0.2, 0.6, 0.6, 8 * 3600);
  (void)BookBetween(RequestId(2), 0.4, 0.4, 0.8, 0.8, 8 * 3600);
  double arrival = xar_.GetRide(ride)->ArrivalTimeS();
  // March time forward in small steps across the whole ride, then step
  // past the arrival.
  for (double t = 8 * 3600; t < arrival + 120; t += 300) {
    xar_.AdvanceTime(t);
  }
  xar_.AdvanceTime(arrival + 121);
  EXPECT_FALSE(xar_.GetRide(ride)->active);
  EXPECT_EQ(xar_.match_index().RegistrationOf(ride), nullptr);
  // No cluster still lists the ride.
  for (std::size_t c = 0; c < city_.region->NumClusters(); ++c) {
    EXPECT_EQ(FindEntry(xar_.match_index().ListOf(ClusterId(
                            static_cast<ClusterId::underlying_type>(c))),
                        ride),
              nullptr);
  }
}

TEST_F(LifecycleTest, CancelRideWithPassengersDropsListings) {
  RideId ride = CreateDiagonal(8 * 3600);
  (void)BookBetween(RequestId(1), 0.2, 0.2, 0.6, 0.6, 8 * 3600);
  ASSERT_TRUE(xar_.CancelRide(ride).ok());
  EXPECT_EQ(xar_.match_index().RegistrationOf(ride), nullptr);
  EXPECT_EQ(xar_.NumActiveRides(), 0u);
}

}  // namespace
}  // namespace xar
