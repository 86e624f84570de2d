#include <gtest/gtest.h>

#include "mmtp/trip_planner.h"
#include "sim/event_sim.h"
#include "sim/modes.h"
#include "tests/test_helpers.h"
#include "transit/network_generator.h"
#include "workload/trip_generator.h"

namespace xar {
namespace {

using testing::SharedCity;
using testing::TestCity;

std::vector<TaxiTrip> MakeTrips(TestCity& city, std::size_t n,
                                std::uint64_t seed = 55) {
  WorkloadOptions opt;
  opt.num_trips = n;
  opt.seed = seed;
  return GenerateTrips(city.graph.bounds(), opt);
}

EventSimResult RunInertScenario(TestCity& city,
                                const std::vector<TaxiTrip>& trips,
                                const ScenarioConfig& config = {}) {
  GraphOracle oracle(city.graph);
  ConcurrentXarSystem xar(city.graph, *city.spatial, *city.region, oracle, {},
                          /*num_shards=*/1);
  EventSim sim(city.graph, xar.options(), config);
  return RunEventSim(xar, sim, trips);
}

// Every trip is served or unserved exactly once, and every created ride is
// one car.
void ExpectConservation(const EventSimResult& r, std::size_t trips) {
  EXPECT_EQ(r.metrics.requests_served + r.metrics.requests_unserved, trips);
  EXPECT_EQ(r.metrics.cars_used, r.rides_created);
  EXPECT_EQ(r.bookings.size(), r.matched);
}

TEST(SimulatorTest, ConservationOfRequests) {
  TestCity& city = SharedCity();
  std::vector<TaxiTrip> trips = MakeTrips(city, 1500);
  EventSimResult r = RunInertScenario(city, trips);
  EXPECT_EQ(r.requests, trips.size());
  EXPECT_EQ(r.matched + r.rides_created + r.metrics.requests_unserved,
            r.requests);
  ExpectConservation(r, trips.size());
  EXPECT_GT(r.matched, 0u);
}

TEST(SimulatorTest, FixedFleetConservesRequests) {
  TestCity& city = SharedCity();
  // One rush hour, so the fleet drives while the requests arrive.
  std::vector<TaxiTrip> trips =
      FilterByTimeWindow(MakeTrips(city, 6000), 8 * 3600.0, 9 * 3600.0);
  ScenarioConfig config;
  config.fleet = 60;
  EventSimResult r = RunInertScenario(city, trips, config);
  // The fleet drivers are the only cars; every later trip is a request
  // that books or goes unserved.
  EXPECT_EQ(r.requests, trips.size() - config.fleet);
  EXPECT_EQ(r.rides_created, config.fleet);
  EXPECT_EQ(r.matched + r.metrics.requests_unserved, r.requests);
  ExpectConservation(r, trips.size());
  EXPECT_GT(r.matched, 0u);
  EXPECT_GT(r.metrics.requests_unserved, 0u);
}

TEST(SimulatorTest, BookingsRespectInvariants) {
  TestCity& city = SharedCity();
  EventSimResult r = RunInertScenario(city, MakeTrips(city, 1500));
  const double walk_limit_m = XarOptions{}.default_walk_limit_m;
  for (const BookingRecord& b : r.bookings) {
    EXPECT_LE(b.pickup_eta_s, b.dropoff_eta_s + 1e-6);
    EXPECT_LE(b.shortest_path_computations, 4u);
    EXPECT_GE(b.actual_detour_m, 0.0);
    EXPECT_LE(b.walk_m, walk_limit_m + 1e-6);
  }
}

TEST(SimulatorTest, LookToBookReducesBookings) {
  TestCity& city = SharedCity();
  std::vector<TaxiTrip> trips = MakeTrips(city, 1200);

  ScenarioConfig book_all;
  book_all.protocol.look_to_book = 1;
  EventSimResult all = RunInertScenario(city, trips, book_all);

  ScenarioConfig book_tenth;
  book_tenth.protocol.look_to_book = 10;
  EventSimResult tenth = RunInertScenario(city, trips, book_tenth);

  EXPECT_GT(all.matched, tenth.matched);
}

TEST(SimulatorTest, WalkLimitZeroMatchesNothing) {
  TestCity& city = SharedCity();
  ScenarioConfig config;
  config.protocol.walk_limit_m = 0.0;
  EventSimResult r = RunInertScenario(city, MakeTrips(city, 400), config);
  EXPECT_EQ(r.matched, 0u);
  EXPECT_EQ(r.rides_created + r.metrics.requests_unserved, r.requests);
}

class ModesTest : public ::testing::Test {
 protected:
  ModesTest()
      : city_(SharedCity()),
        timetable_(GenerateTransitNetwork(city_.graph.bounds(), {})),
        planner_(timetable_),
        trips_(MakeTrips(city_, 1200)) {}

  TestCity& city_;
  Timetable timetable_;
  TripPlanner planner_;
  std::vector<TaxiTrip> trips_;
};

TEST_F(ModesTest, TaxiModeOneCarPerServedTrip) {
  GraphOracle oracle(city_.graph);
  ModeMetrics taxi = EvaluateTaxiMode(*city_.spatial, oracle, trips_);
  EXPECT_EQ(taxi.requests_served + taxi.requests_unserved, trips_.size());
  EXPECT_EQ(taxi.cars_used, taxi.requests_served);
  EXPECT_DOUBLE_EQ(taxi.walk_s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(taxi.wait_s.mean(), 0.0);
}

TEST_F(ModesTest, PublicTransportUsesNoCars) {
  ModeMetrics pt = EvaluatePublicTransportMode(planner_, trips_);
  EXPECT_EQ(pt.cars_used, 0u);
  EXPECT_GT(pt.requests_served, trips_.size() * 9 / 10);
  EXPECT_GT(pt.walk_s.mean(), 0.0);
}

TEST_F(ModesTest, RideShareSavesCarsVsTaxi) {
  GraphOracle taxi_oracle(city_.graph);
  ModeMetrics taxi = EvaluateTaxiMode(*city_.spatial, taxi_oracle, trips_);
  GraphOracle rs_oracle(city_.graph);
  ConcurrentXarSystem xar(city_.graph, *city_.spatial, *city_.region,
                          rs_oracle, {}, /*num_shards=*/1);
  ModeMetrics rs = EvaluateRideShareMode(city_.graph, xar, trips_);
  EXPECT_LT(rs.cars_used, taxi.cars_used);
  // And taxi is at least as fast on average (Fig. 6 ordering).
  EXPECT_LE(taxi.travel_s.mean(), rs.travel_s.mean());
}

TEST_F(ModesTest, RideSharePlusTransitSavesCarsVsRideShare) {
  GraphOracle rs_oracle(city_.graph);
  ConcurrentXarSystem rs_xar(city_.graph, *city_.spatial, *city_.region,
                             rs_oracle, {}, /*num_shards=*/1);
  ModeMetrics rs = EvaluateRideShareMode(city_.graph, rs_xar, trips_);

  GraphOracle rspt_oracle(city_.graph);
  XarSystem rspt_xar(city_.graph, *city_.spatial, *city_.region, rspt_oracle);
  ModeMetrics rspt =
      EvaluateRideSharePlusTransitMode(planner_, rspt_xar, trips_);

  EXPECT_LT(rspt.cars_used, rs.cars_used);
  EXPECT_EQ(rspt.requests_served + rspt.requests_unserved, trips_.size());
}

TEST_F(ModesTest, RideSharePlusTransitImprovesWalkOverPT) {
  ModeMetrics pt = EvaluatePublicTransportMode(planner_, trips_);
  GraphOracle oracle(city_.graph);
  XarSystem xar(city_.graph, *city_.spatial, *city_.region, oracle);
  ModeMetrics rspt = EvaluateRideSharePlusTransitMode(planner_, xar, trips_);
  EXPECT_LT(rspt.walk_s.mean(), pt.walk_s.mean());
  EXPECT_LT(rspt.travel_s.mean(), pt.travel_s.mean());
}

}  // namespace
}  // namespace xar
