// Event-driven city simulator (sim/event_sim.h): live RefreshDiscretization
// epoch swaps mid-simulation, cancellation / no-show scenarios, fixed-seed
// bit-determinism, serial-vs-concurrent agreement, and the inert scenario
// pinned to the paper's replay protocol (`ctest -L sim`).

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_sim.h"
#include "tests/test_helpers.h"
#include "workload/trip_generator.h"
#include "xar/concurrent_xar.h"
#include "xar/xar_system.h"

namespace xar {
namespace {

using testing::MakeTestCity;
using testing::SharedCity;
using testing::TestCity;

std::vector<TaxiTrip> RushHourTrips(const TestCity& city, std::size_t total) {
  WorkloadOptions options;
  options.num_trips = total;
  options.seed = 11;
  std::vector<TaxiTrip> all = GenerateTrips(city.graph.bounds(), options);
  // One morning-rush hour keeps the event horizon (and thus CH rebuild
  // count) small while still spanning several refresh periods.
  return FilterByTimeWindow(all, 8 * 3600.0, 9 * 3600.0);
}

ScenarioConfig TrafficScenario() {
  ScenarioConfig config;
  config.protocol.window_s = 900.0;
  config.traffic.tick_period_s = 300.0;
  config.traffic.load_alpha = 0.05;
  config.events.cancel_probability = 0.15;
  config.events.no_show_probability = 0.15;
  config.refresh_period_s = 900.0;
  config.seed = 5;
  return config;
}

TEST(EventSimTest, LiveRefreshesMidSimulationWithBookingsAround) {
  TestCity& city = SharedCity();
  XarSystem xar(city.graph, *city.spatial, *city.region, *city.oracle);
  std::vector<TaxiTrip> trips = RushHourTrips(city, 1500);
  ASSERT_GT(trips.size(), 50u);

  EventSim sim(city.graph, xar.options(), TrafficScenario());
  EventSimResult result = RunEventSim(xar, sim, trips);

  EXPECT_EQ(result.requests, trips.size());
  EXPECT_GT(result.matched, 0u);
  EXPECT_GT(result.rides_created, 0u);
  EXPECT_GT(result.edge_traversals, 0u);
  EXPECT_GT(result.traffic_ticks, 0u);

  // >= 2 live epoch swaps mid-simulation, with bookings before and after.
  EXPECT_GE(result.refreshes, 2u);
  EXPECT_GE(result.final_epoch, 2u);
  EXPECT_GT(result.bookings_before_first_refresh, 0u);
  EXPECT_GT(result.bookings_after_last_refresh, 0u);

  // Vehicles completed their routes in the (congested) world, so the
  // staleness signal has samples, and congestion makes it nonzero.
  EXPECT_GT(result.eta_samples, 0u);
  EXPECT_GT(result.mean_eta_error_s, 0.0);

  // The event mix drove live cancellations and no-shows.
  EXPECT_GT(result.cancels_attempted, 0u);
  EXPECT_GT(result.cancels_succeeded, 0u);
  EXPECT_GT(result.no_shows_attempted, 0u);
  EXPECT_GT(result.no_shows_succeeded, 0u);
}

TEST(EventSimTest, FixedSeedIsBitDeterministic) {
  TestCity& city = SharedCity();
  std::vector<TaxiTrip> trips = RushHourTrips(city, 1000);

  EventSimResult runs[2];
  for (int i = 0; i < 2; ++i) {
    XarSystem xar(city.graph, *city.spatial, *city.region, *city.oracle);
    EventSim sim(city.graph, xar.options(), TrafficScenario());
    runs[i] = RunEventSim(xar, sim, trips);
  }

  EXPECT_EQ(runs[0].fingerprint, runs[1].fingerprint);
  EXPECT_EQ(runs[0].requests, runs[1].requests);
  EXPECT_EQ(runs[0].matched, runs[1].matched);
  EXPECT_EQ(runs[0].rides_created, runs[1].rides_created);
  EXPECT_EQ(runs[0].edge_traversals, runs[1].edge_traversals);
  EXPECT_EQ(runs[0].refreshes, runs[1].refreshes);
  EXPECT_EQ(runs[0].cancels_succeeded, runs[1].cancels_succeeded);
  EXPECT_EQ(runs[0].no_shows_succeeded, runs[1].no_shows_succeeded);
  EXPECT_EQ(runs[0].bookings.size(), runs[1].bookings.size());
  EXPECT_EQ(runs[0].mean_eta_error_s, runs[1].mean_eta_error_s);
}

TEST(EventSimTest, SerialAndConcurrentSystemsAgreeOnCounts) {
  TestCity& city = SharedCity();
  std::vector<TaxiTrip> trips = RushHourTrips(city, 800);

  XarSystem serial(city.graph, *city.spatial, *city.region, *city.oracle);
  EventSim serial_sim(city.graph, serial.options(), TrafficScenario());
  EventSimResult serial_result = RunEventSim(serial, serial_sim, trips);

  GraphOracle concurrent_oracle(city.graph);
  ConcurrentXarSystem concurrent(city.graph, *city.spatial, *city.region,
                                 concurrent_oracle, {}, /*num_shards=*/2);
  EventSim concurrent_sim(city.graph, XarOptions{}, TrafficScenario());
  EventSimResult concurrent_result =
      RunEventSim(concurrent, concurrent_sim, trips);

  // Driven single-threaded, the sharded system replays the same protocol:
  // round-robin creation reproduces the dense id sequence and the merged
  // shard searches rank identically, so all counts line up with the serial
  // system even though every operation crossed the shard locks.
  EXPECT_EQ(serial_result.requests, concurrent_result.requests);
  EXPECT_EQ(serial_result.matched, concurrent_result.matched);
  EXPECT_EQ(serial_result.rides_created, concurrent_result.rides_created);
  EXPECT_EQ(serial_result.refreshes, concurrent_result.refreshes);
  EXPECT_EQ(serial_result.cancels_succeeded,
            concurrent_result.cancels_succeeded);
  EXPECT_EQ(serial_result.no_shows_succeeded,
            concurrent_result.no_shows_succeeded);
  EXPECT_EQ(serial_result.bookings.size(), concurrent_result.bookings.size());
}

/// What the paper's replay protocol (Section X-A.2) books.
struct ProtocolReplay {
  std::size_t matched = 0;
  std::size_t rides_created = 0;
  std::vector<BookingRecord> bookings;
};

/// The protocol spelled out as the reference: advance the clock, search,
/// book the least-walking match on a booking turn, otherwise the commuter
/// drives and offers the ride.
ProtocolReplay ReplayPaperProtocol(XarSystem& xar,
                                   const std::vector<TaxiTrip>& trips,
                                   const SimOptions& options) {
  ProtocolReplay replay;
  std::size_t since_last_book = 0;
  for (const TaxiTrip& trip : trips) {
    xar.AdvanceTime(trip.pickup_time_s);
    RideRequest request;
    request.id = trip.id;
    request.source = trip.pickup;
    request.destination = trip.dropoff;
    request.earliest_departure_s = trip.pickup_time_s;
    request.latest_departure_s = trip.pickup_time_s + options.window_s;
    request.walk_limit_m = options.walk_limit_m;
    std::vector<RideMatch> matches = xar.Search(request);
    if (++since_last_book >= options.look_to_book && !matches.empty()) {
      since_last_book = 0;
      Result<BookingRecord> booking =
          xar.Book(matches.front().ride, request, matches.front());
      if (booking.ok()) {
        ++replay.matched;
        replay.bookings.push_back(*booking);
        continue;
      }
    }
    RideOffer offer;
    offer.source = trip.pickup;
    offer.destination = trip.dropoff;
    offer.departure_time_s = trip.pickup_time_s;
    if (xar.CreateRide(offer).ok()) ++replay.rides_created;
  }
  return replay;
}

void ExpectReplaysProtocol(const EventSimResult& got,
                           const ProtocolReplay& want, std::size_t trips) {
  EXPECT_EQ(got.requests, trips);
  EXPECT_EQ(got.matched, want.matched);
  EXPECT_EQ(got.rides_created, want.rides_created);
  ASSERT_EQ(got.bookings.size(), want.bookings.size());
  for (std::size_t i = 0; i < want.bookings.size(); ++i) {
    const BookingRecord& a = got.bookings[i];
    const BookingRecord& b = want.bookings[i];
    EXPECT_EQ(a.request, b.request) << "booking " << i;
    EXPECT_EQ(a.ride, b.ride) << "booking " << i;
    EXPECT_EQ(a.pickup_eta_s, b.pickup_eta_s) << "booking " << i;
    EXPECT_EQ(a.dropoff_eta_s, b.dropoff_eta_s) << "booking " << i;
    EXPECT_EQ(a.walk_m, b.walk_m) << "booking " << i;
    EXPECT_EQ(a.actual_detour_m, b.actual_detour_m) << "booking " << i;
  }
}

// With traffic and events at their defaults the event sim books exactly
// what the paper's protocol books, at look-to-book 1 and 3 and at walk
// limit 0. The sharded system books as the serial one (parallel_sim_test).
TEST(EventSimTest, InertScenarioReplaysPaperProtocol) {
  TestCity& city = SharedCity();
  WorkloadOptions workload;
  workload.num_trips = 600;
  workload.seed = 77;
  const std::vector<TaxiTrip> trips =
      GenerateTrips(city.graph.bounds(), workload);

  auto reference = [&](const SimOptions& options) {
    GraphOracle oracle(city.graph);
    XarSystem xar(city.graph, *city.spatial, *city.region, oracle);
    return ReplayPaperProtocol(xar, trips, options);
  };

  for (std::size_t look_to_book : {1, 3}) {
    SCOPED_TRACE(::testing::Message() << "look_to_book " << look_to_book);
    ScenarioConfig config;
    config.protocol.look_to_book = look_to_book;
    const ProtocolReplay want = reference(config.protocol);
    EXPECT_GT(want.matched, 0u);

    GraphOracle oracle(city.graph);
    XarSystem xar(city.graph, *city.spatial, *city.region, oracle);
    EventSim sim(city.graph, xar.options(), config);
    ExpectReplaysProtocol(RunEventSim(xar, sim, trips), want, trips.size());
  }

  // A zero walk limit admits no match.
  ScenarioConfig config;
  config.protocol.walk_limit_m = 0.0;
  const ProtocolReplay want = reference(config.protocol);
  EXPECT_EQ(want.matched, 0u);
  GraphOracle oracle(city.graph);
  XarSystem xar(city.graph, *city.spatial, *city.region, oracle);
  EventSim sim(city.graph, xar.options(), config);
  ExpectReplaysProtocol(RunEventSim(xar, sim, trips), want, trips.size());
}

class NoShowTest : public ::testing::Test {
 protected:
  NoShowTest()
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

  Result<BookingRecord> BookMidRider(RequestId id, double t = 8 * 3600.0) {
    const BoundingBox& b = city_.graph.bounds();
    RideRequest req;
    req.id = id;
    req.source = {b.min_lat + 0.35 * (b.max_lat - b.min_lat),
                  b.min_lng + 0.35 * (b.max_lng - b.min_lng)};
    req.destination = {b.min_lat + 0.7 * (b.max_lat - b.min_lat),
                       b.min_lng + 0.7 * (b.max_lng - b.min_lng)};
    req.earliest_departure_s = t;
    req.latest_departure_s = t + 1800;
    std::vector<RideMatch> matches = xar_.Search(req);
    if (matches.empty()) return Status::NotFound("no match");
    return xar_.Book(matches.front().ride, req, matches.front());
  }

  TestCity& city_;
  XarSystem xar_;
};

TEST_F(NoShowTest, NoShowAfterPickupEtaReturnsSeatAndReindexes) {
  RideId ride = CreateDiagonalRide();
  double base_length = xar_.GetRide(ride)->route.length_m;
  Result<BookingRecord> booking = BookMidRider(RequestId(1));
  ASSERT_TRUE(booking.ok());

  // The vehicle reaches the pickup; the rider is not there. Cancellation is
  // no longer legal, but reporting the no-show is.
  xar_.AdvanceTime(booking->pickup_eta_s + 1.0);
  EXPECT_EQ(xar_.CancelBooking(ride, RequestId(1)).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(xar_.ReportNoShow(ride, RequestId(1)).ok());

  const Ride* r = xar_.GetRide(ride);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->via_points.size(), 2u);
  EXPECT_EQ(r->seats_available, r->seats_total);
  EXPECT_NEAR(r->route.length_m, base_length, 1.0);
  EXPECT_NEAR(r->detour_used_m, 0.0, 1.0);
  EXPECT_TRUE(xar_.bookings().empty());
}

TEST_F(NoShowTest, NoShowBeforePickupAlsoWorks) {
  RideId ride = CreateDiagonalRide();
  Result<BookingRecord> booking = BookMidRider(RequestId(1));
  ASSERT_TRUE(booking.ok());
  // Reported early (rider called ahead): same unwinding as a cancellation.
  ASSERT_TRUE(xar_.ReportNoShow(ride, RequestId(1)).ok());
  EXPECT_EQ(xar_.GetRide(ride)->seats_available,
            xar_.GetRide(ride)->seats_total);
}

TEST_F(NoShowTest, NoShowAfterDropoffEtaFails) {
  RideId ride = CreateDiagonalRide();
  Result<BookingRecord> booking = BookMidRider(RequestId(1));
  ASSERT_TRUE(booking.ok());
  xar_.AdvanceTime(booking->dropoff_eta_s + 1.0);
  EXPECT_EQ(xar_.ReportNoShow(ride, RequestId(1)).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(NoShowTest, NoShowUnknownBookingFails) {
  RideId ride = CreateDiagonalRide();
  EXPECT_EQ(xar_.ReportNoShow(ride, RequestId(77)).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(xar_.ReportNoShow(RideId(999), RequestId(1)).code(),
            StatusCode::kNotFound);
}

TEST_F(NoShowTest, SeatFreedByNoShowIsRebookable) {
  XarOptions seat_options;
  XarSystem xar(city_.graph, *city_.spatial, *city_.region, *city_.oracle,
                seat_options);
  // Dedicated system so the default seat pool is fully booked, no-shown,
  // and rebooked by a different rider.
  const BoundingBox& b = city_.graph.bounds();
  RideOffer offer;
  offer.source = {b.min_lat + 0.1 * (b.max_lat - b.min_lat),
                  b.min_lng + 0.1 * (b.max_lng - b.min_lng)};
  offer.destination = {b.min_lat + 0.9 * (b.max_lat - b.min_lat),
                       b.min_lng + 0.9 * (b.max_lng - b.min_lng)};
  offer.departure_time_s = 8 * 3600.0;
  offer.seats = 1;
  Result<RideId> ride = xar.CreateRide(offer);
  ASSERT_TRUE(ride.ok());

  RideRequest req;
  req.id = RequestId(1);
  req.source = {b.min_lat + 0.35 * (b.max_lat - b.min_lat),
                b.min_lng + 0.35 * (b.max_lng - b.min_lng)};
  req.destination = {b.min_lat + 0.7 * (b.max_lat - b.min_lat),
                     b.min_lng + 0.7 * (b.max_lng - b.min_lng)};
  req.earliest_departure_s = 8 * 3600.0;
  req.latest_departure_s = 8 * 3600.0 + 1800;
  Result<BookingRecord> first = xar.SearchAndBook(req);
  ASSERT_TRUE(first.ok());
  // The only seat is taken: a second rider cannot book.
  RideRequest req2 = req;
  req2.id = RequestId(2);
  EXPECT_FALSE(xar.SearchAndBook(req2).ok());

  ASSERT_TRUE(xar.ReportNoShow(first->ride, RequestId(1)).ok());
  // The freed seat is findable again through the index.
  Result<BookingRecord> second = xar.SearchAndBook(req2);
  EXPECT_TRUE(second.ok());
}

}  // namespace
}  // namespace xar
