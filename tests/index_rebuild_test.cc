// The live match index equals a from-scratch rebuild after every mutating
// call of an event-sim run with cancels, no-shows and live refreshes: on a
// serial system with splice booking and with kinetic booking, and on every
// shard of a 4-shard concurrent system.

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_sim.h"
#include "tests/index_checkers.h"
#include "tests/test_helpers.h"
#include "workload/trip_generator.h"
#include "xar/concurrent_xar.h"

namespace xar {
namespace {

using testing::RebuildCheckingTarget;
using testing::SharedCity;
using testing::TestCity;

// One morning-rush hour, capped at 400 trips: rides overlap in time, so
// the index is never trivially empty, and the run spans several refreshes.
std::vector<TaxiTrip> RushHourTrips() {
  WorkloadOptions workload;
  workload.num_trips = 5000;
  workload.seed = 11;
  std::vector<TaxiTrip> trips = FilterByTimeWindow(
      GenerateTrips(SharedCity().graph.bounds(), workload), 8 * 3600.0,
      9 * 3600.0);
  if (trips.size() > 400) trips.resize(400);
  return trips;
}

ScenarioConfig EventfulScenario() {
  ScenarioConfig config;
  config.events.cancel_probability = 0.15;
  config.events.no_show_probability = 0.15;
  config.refresh_period_s = 900.0;
  config.seed = 5;
  return config;
}

// The run checked every shard after every mutation, saw a live index on
// each, and exercised every path that mutates the index.
void ExpectCheckedEventfulRun(const RebuildCheckingTarget& target,
                              const EventSimResult& result,
                              std::size_t num_trips) {
  EXPECT_TRUE(target.first_failure.empty()) << target.first_failure;
  EXPECT_GT(target.checks, num_trips);
  for (std::size_t registered : target.max_registered) {
    EXPECT_GT(registered, 0u);
  }
  EXPECT_GT(result.matched, 0u);
  EXPECT_GT(result.cancels_succeeded, 0u);
  EXPECT_GT(result.no_shows_succeeded, 0u);
  EXPECT_GE(result.refreshes, 2u);
  EXPECT_GE(result.final_epoch, 2u);
}

class IndexRebuildTest : public ::testing::TestWithParam<bool> {};

TEST_P(IndexRebuildTest, LiveIndexEqualsRebuildAfterEveryMutation) {
  TestCity& city = SharedCity();
  XarOptions options;
  options.kinetic_booking = GetParam();
  ConcurrentXarSystem xar(city.graph, *city.spatial, *city.region,
                          *city.oracle, options, /*num_shards=*/1);
  std::vector<TaxiTrip> trips = RushHourTrips();
  ASSERT_GT(trips.size(), 100u);

  EventSim sim(city.graph, xar.options(), EventfulScenario());
  RebuildCheckingTarget target(xar, city.graph, /*check_every_s=*/0.0);
  EventSimResult result = sim.Run(target, trips);

  ExpectCheckedEventfulRun(target, result, trips.size());
  if (GetParam()) {
    EXPECT_GT(xar.pooling_stats().insertions, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Booking, IndexRebuildTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Kinetic" : "Splice";
                         });

TEST(ShardedIndexRebuildTest, EveryShardEqualsRebuildAfterEveryMutation) {
  TestCity& city = SharedCity();
  XarOptions options;
  ConcurrentXarSystem xar(city.graph, *city.spatial, *city.region,
                          *city.oracle, options, /*num_shards=*/4);
  std::vector<TaxiTrip> trips = RushHourTrips();
  ASSERT_GT(trips.size(), 100u);

  EventSim sim(city.graph, options, EventfulScenario());
  RebuildCheckingTarget target(xar, city.graph, /*check_every_s=*/0.0);
  EventSimResult result = sim.Run(target, trips);

  ASSERT_EQ(target.max_registered.size(), 4u);
  ExpectCheckedEventfulRun(target, result, trips.size());
}

}  // namespace
}  // namespace xar
