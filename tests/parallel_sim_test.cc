// The sharded ConcurrentXarSystem under the event sim (sim/event_sim.h)
// books exactly what a one-shard system books on the same workload, with
// live refreshes onto unchanged (zero-congestion) weights mid-run.

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_sim.h"
#include "tests/test_helpers.h"
#include "workload/trip_generator.h"
#include "xar/concurrent_xar.h"

namespace xar {
namespace {

using testing::SharedCity;
using testing::TestCity;

std::vector<TaxiTrip> Workload(const TestCity& city, std::size_t n) {
  WorkloadOptions opt;
  opt.num_trips = n;
  opt.seed = 77;
  return GenerateTrips(city.graph.bounds(), opt);
}

ScenarioConfig InertScenario(std::size_t look_to_book) {
  ScenarioConfig config;
  config.protocol.look_to_book = look_to_book;
  return config;
}

EventSimResult RunSerial(TestCity& city, const std::vector<TaxiTrip>& trips,
                         const ScenarioConfig& config) {
  GraphOracle oracle(city.graph);
  ConcurrentXarSystem xar(city.graph, *city.spatial, *city.region, oracle, {},
                          /*num_shards=*/1);
  EventSim sim(city.graph, xar.options(), config);
  return RunEventSim(xar, sim, trips);
}

/// The same scenario on `num_shards` shards, refreshed every 4 h onto
/// weights that no traffic changed.
EventSimResult RunSharded(TestCity& city, const std::vector<TaxiTrip>& trips,
                          ScenarioConfig config, std::size_t num_shards) {
  config.refresh_period_s = 4 * 3600.0;
  config.traffic.load_alpha = 0.0;
  config.traffic.rush_amplitude = 0.0;
  GraphOracle oracle(city.graph);
  ConcurrentXarSystem xar(city.graph, *city.spatial, *city.region, oracle, {},
                          num_shards);
  EventSim sim(city.graph, XarOptions{}, config);
  return RunEventSim(xar, sim, trips);
}

void ExpectSameBookings(const EventSimResult& sharded,
                        const EventSimResult& serial) {
  EXPECT_EQ(sharded.requests, serial.requests);
  EXPECT_EQ(sharded.matched, serial.matched);
  EXPECT_EQ(sharded.rides_created, serial.rides_created);
  ASSERT_EQ(sharded.bookings.size(), serial.bookings.size());
  for (std::size_t i = 0; i < serial.bookings.size(); ++i) {
    const BookingRecord& a = sharded.bookings[i];
    const BookingRecord& b = serial.bookings[i];
    EXPECT_EQ(a.request, b.request) << "booking " << i;
    EXPECT_EQ(a.ride, b.ride) << "booking " << i;
    EXPECT_EQ(a.pickup_eta_s, b.pickup_eta_s) << "booking " << i;
    EXPECT_EQ(a.dropoff_eta_s, b.dropoff_eta_s) << "booking " << i;
    EXPECT_EQ(a.walk_m, b.walk_m) << "booking " << i;
    EXPECT_EQ(a.actual_detour_m, b.actual_detour_m) << "booking " << i;
  }
}

TEST(ParallelSimTest, MatchesSerialCountsAtLookToBookOne) {
  TestCity& city = SharedCity();
  const std::vector<TaxiTrip> trips = Workload(city, 600);

  const EventSimResult serial = RunSerial(city, trips, InertScenario(1));
  const EventSimResult sharded =
      RunSharded(city, trips, InertScenario(1), /*num_shards=*/4);

  EXPECT_GT(serial.matched, 0u);
  EXPECT_EQ(serial.requests, trips.size());
  EXPECT_GE(sharded.final_epoch, 2u);
  ExpectSameBookings(sharded, serial);
}

TEST(ParallelSimTest, MatchesSerialCountsAtHigherLookToBook) {
  TestCity& city = SharedCity();
  const std::vector<TaxiTrip> trips = Workload(city, 400);

  const EventSimResult serial = RunSerial(city, trips, InertScenario(3));
  const EventSimResult sharded =
      RunSharded(city, trips, InertScenario(3), /*num_shards=*/3);

  EXPECT_GT(serial.matched, 0u);
  EXPECT_GE(sharded.final_epoch, 2u);
  ExpectSameBookings(sharded, serial);
}

}  // namespace
}  // namespace xar
