#include <gtest/gtest.h>

#include "tests/test_helpers.h"
#include "xar/xar_system.h"

namespace xar {
namespace {

using testing::SharedCity;
using testing::TestCity;

class CancellationTest : public ::testing::Test {
 protected:
  CancellationTest()
      : city_(SharedCity()),
        xar_(city_.graph, *city_.spatial, *city_.region, *city_.oracle) {}

  RideId CreateDiagonalRide(double t = 8 * 3600.0) {
    const BoundingBox& b = city_.graph.bounds();
    RideOffer offer;
    offer.source = {b.min_lat + 0.1 * (b.max_lat - b.min_lat),
                    b.min_lng + 0.1 * (b.max_lng - b.min_lng)};
    offer.destination = {b.min_lat + 0.9 * (b.max_lat - b.min_lat),
                         b.min_lng + 0.9 * (b.max_lng - b.min_lng)};
    offer.departure_time_s = t;
    Result<RideId> ride = xar_.CreateRide(offer);
    EXPECT_TRUE(ride.ok());
    return *ride;
  }

  /// Books a mid-route rider; returns the booking.
  Result<BookingRecord> BookMidRider(RequestId id, double t = 8 * 3600.0,
                                     int seats = 1) {
    const BoundingBox& b = city_.graph.bounds();
    RideRequest req;
    req.id = id;
    req.source = {b.min_lat + 0.35 * (b.max_lat - b.min_lat),
                  b.min_lng + 0.35 * (b.max_lng - b.min_lng)};
    req.destination = {b.min_lat + 0.7 * (b.max_lat - b.min_lat),
                       b.min_lng + 0.7 * (b.max_lng - b.min_lng)};
    req.earliest_departure_s = t;
    req.latest_departure_s = t + 1800;
    req.seats = seats;
    std::vector<RideMatch> matches = xar_.Search(req);
    if (matches.empty()) return Status::NotFound("no match");
    return xar_.Book(matches.front().ride, req, matches.front());
  }

  TestCity& city_;
  XarSystem xar_;
};

TEST_F(CancellationTest, CancelBookingRestoresRideShape) {
  RideId ride = CreateDiagonalRide();
  double base_length = xar_.GetRide(ride)->route.length_m;
  Result<BookingRecord> booking = BookMidRider(RequestId(1));
  ASSERT_TRUE(booking.ok());
  ASSERT_EQ(booking->ride, ride);
  EXPECT_EQ(xar_.GetRide(ride)->via_points.size(), 4u);

  ASSERT_TRUE(xar_.CancelBooking(ride, RequestId(1)).ok());
  const Ride* r = xar_.GetRide(ride);
  EXPECT_EQ(r->via_points.size(), 2u);
  EXPECT_EQ(r->seats_available, r->seats_total);
  // The route is back to the driver's own shortest path.
  EXPECT_NEAR(r->route.length_m, base_length, 1.0);
  EXPECT_NEAR(r->detour_used_m, 0.0, 1.0);
  EXPECT_TRUE(xar_.bookings(ride).empty());
}

TEST_F(CancellationTest, CancelUnknownBookingFails) {
  RideId ride = CreateDiagonalRide();
  EXPECT_EQ(xar_.CancelBooking(ride, RequestId(77)).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(xar_.CancelBooking(RideId(999), RequestId(1)).code(),
            StatusCode::kNotFound);
}

TEST_F(CancellationTest, CancelAfterPickupFails) {
  RideId ride = CreateDiagonalRide();
  Result<BookingRecord> booking = BookMidRider(RequestId(1));
  ASSERT_TRUE(booking.ok());
  xar_.AdvanceTime(booking->pickup_eta_s + 30);
  EXPECT_EQ(xar_.CancelBooking(ride, RequestId(1)).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(CancellationTest, CancelledSeatIsRebookable) {
  RideOffer offer;
  const BoundingBox& b = city_.graph.bounds();
  offer.source = {b.min_lat + 0.1 * (b.max_lat - b.min_lat),
                  b.min_lng + 0.1 * (b.max_lng - b.min_lng)};
  offer.destination = {b.min_lat + 0.9 * (b.max_lat - b.min_lat),
                       b.min_lng + 0.9 * (b.max_lng - b.min_lng)};
  offer.departure_time_s = 8 * 3600;
  offer.seats = 1;
  ASSERT_TRUE(xar_.CreateRide(offer).ok());

  Result<BookingRecord> first = BookMidRider(RequestId(1));
  ASSERT_TRUE(first.ok());
  // Full: second rider fails to find it.
  EXPECT_FALSE(BookMidRider(RequestId(2)).ok());
  ASSERT_TRUE(xar_.CancelBooking(first->ride, RequestId(1)).ok());
  // Freed: second rider succeeds now.
  EXPECT_TRUE(BookMidRider(RequestId(3)).ok());
}

TEST_F(CancellationTest, CancelOneOfTwoRidersKeepsTheOther) {
  RideId ride = CreateDiagonalRide();
  Result<BookingRecord> first = BookMidRider(RequestId(1));
  ASSERT_TRUE(first.ok());
  Result<BookingRecord> second = BookMidRider(RequestId(2));
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->ride, ride);

  ASSERT_TRUE(xar_.CancelBooking(ride, RequestId(1)).ok());
  const Ride* r = xar_.GetRide(ride);
  EXPECT_EQ(r->via_points.size(), 4u);  // src, rider2 pickup/drop, dst
  int rider2_points = 0;
  for (const ViaPoint& vp : r->via_points) {
    EXPECT_NE(vp.request, RequestId(1));
    if (vp.request == RequestId(2)) ++rider2_points;
  }
  EXPECT_EQ(rider2_points, 2);
  ASSERT_EQ(xar_.bookings(ride).size(), 1u);
  EXPECT_EQ(xar_.bookings(ride).front().request, RequestId(2));
}

TEST_F(CancellationTest, CancelRideRemovesFromSearch) {
  RideId ride = CreateDiagonalRide();
  const BoundingBox& b = city_.graph.bounds();
  RideRequest req;
  req.id = RequestId(5);
  req.source = {b.min_lat + 0.35 * (b.max_lat - b.min_lat),
                b.min_lng + 0.35 * (b.max_lng - b.min_lng)};
  req.destination = {b.min_lat + 0.7 * (b.max_lat - b.min_lat),
                     b.min_lng + 0.7 * (b.max_lng - b.min_lng)};
  req.earliest_departure_s = 8 * 3600;
  req.latest_departure_s = 8 * 3600 + 1800;
  ASSERT_FALSE(xar_.Search(req).empty());

  ASSERT_TRUE(xar_.CancelRide(ride).ok());
  EXPECT_FALSE(xar_.GetRide(ride)->active);
  EXPECT_TRUE(xar_.Search(req).empty());
  // Idempotent.
  EXPECT_TRUE(xar_.CancelRide(ride).ok());
}

TEST_F(CancellationTest, ReregistrationDoesNotResurrectPassedClusters) {
  RideId ride = CreateDiagonalRide();
  Result<BookingRecord> booking = BookMidRider(RequestId(1));
  ASSERT_TRUE(booking.ok());
  // Drive partway, then trigger a re-registration via cancellation of a
  // second rider... simpler: book a second rider after advancing.
  const Ride* r = xar_.GetRide(ride);
  double partway = r->departure_time_s + r->route.time_s * 0.4;
  xar_.AdvanceTime(partway);
  const RideRegistration* reg = xar_.match_index().RegistrationOf(ride);
  for (const PassThroughCluster& pt : reg->pass_throughs) {
    EXPECT_GE(pt.eta_s, partway);
  }
}

// Bytes MemoryFootprint counts for `ride`'s own state (MemoryFootprint's
// per-ride sum).
std::size_t RideBytes(const Ride& r) {
  return sizeof(r) + r.route.nodes.capacity() * sizeof(NodeId) +
         (r.route_cum_time_s.capacity() + r.route_cum_dist_m.capacity()) *
             sizeof(double) +
         r.via_points.capacity() * sizeof(ViaPoint) +
         r.via_route_index.capacity() * sizeof(std::size_t);
}

// A ride that reaches its destination takes its booking records with it:
// the ledger holds only live rides' bookings, so a serving shard's ledger,
// and its MemoryFootprint, do not grow with every booking it ever took.
TEST_F(CancellationTest, FinishedRideLeavesNoBookingRecords) {
  RideId ride = CreateDiagonalRide();
  // The footprint beyond the index and the ride's route: what the bookings
  // can add.
  auto rest_bytes = [&] {
    return xar_.MemoryFootprint() - xar_.match_index().MemoryFootprint() -
           RideBytes(*xar_.GetRide(ride));
  };
  const std::size_t before = rest_bytes();
  ASSERT_TRUE(BookMidRider(RequestId(1)).ok());
  ASSERT_TRUE(BookMidRider(RequestId(2)).ok());
  EXPECT_EQ(xar_.NumBookings(), 2u);
  EXPECT_EQ(xar_.bookings(ride).size(), 2u);
  EXPECT_GT(rest_bytes(), before);

  xar_.AdvanceTime(xar_.GetRide(ride)->ArrivalTimeS() + 1.0);
  ASSERT_FALSE(xar_.GetRide(ride)->active);
  EXPECT_EQ(xar_.NumBookings(), 0u);
  EXPECT_TRUE(xar_.bookings(ride).empty());
  EXPECT_EQ(rest_bytes(), before);
}

// Every way a rider leaves refunds exactly the seats the booking took: a
// cancelled two-seat booking returns two, a no-show one, and a finished
// ride has nothing left to refund or cancel.
TEST_F(CancellationTest, SeatsRefundedExactlyThroughCancelNoShowAndFinish) {
  RideId ride = CreateDiagonalRide();
  const int total = xar_.GetRide(ride)->seats_total;
  ASSERT_EQ(total, 3);
  Result<BookingRecord> pair = BookMidRider(RequestId(1), 8 * 3600.0, 2);
  ASSERT_TRUE(pair.ok());
  ASSERT_EQ(pair->ride, ride);
  Result<BookingRecord> single = BookMidRider(RequestId(2));
  ASSERT_TRUE(single.ok());
  ASSERT_EQ(single->ride, ride);
  EXPECT_EQ(xar_.GetRide(ride)->seats_available, 0);

  ASSERT_TRUE(xar_.CancelBooking(ride, RequestId(1)).ok());
  EXPECT_EQ(xar_.GetRide(ride)->seats_available, 2);
  ASSERT_EQ(xar_.bookings(ride).size(), 1u);
  EXPECT_EQ(xar_.bookings(ride).front().request, RequestId(2));

  ASSERT_TRUE(xar_.ReportNoShow(ride, RequestId(2)).ok());
  EXPECT_EQ(xar_.GetRide(ride)->seats_available, total);
  EXPECT_TRUE(xar_.bookings(ride).empty());

  Result<BookingRecord> last = BookMidRider(RequestId(3));
  ASSERT_TRUE(last.ok());
  ASSERT_EQ(last->ride, ride);
  EXPECT_EQ(xar_.GetRide(ride)->seats_available, total - 1);
  xar_.AdvanceTime(xar_.GetRide(ride)->ArrivalTimeS() + 1.0);
  EXPECT_TRUE(xar_.bookings(ride).empty());
  EXPECT_EQ(xar_.CancelBooking(ride, RequestId(3)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(xar_.ReportNoShow(ride, RequestId(3)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(xar_.GetRide(ride)->seats_available, total - 1);
}

}  // namespace
}  // namespace xar
