// The live match index equals a from-scratch rebuild after every mutating
// call of an event-sim run with cancels, no-shows and live refreshes: once
// with splice booking and once with kinetic booking.

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_sim.h"
#include "tests/index_checkers.h"
#include "tests/test_helpers.h"
#include "workload/trip_generator.h"
#include "xar/xar_system.h"

namespace xar {
namespace {

using testing::RebuildCheckingTarget;
using testing::SharedCity;
using testing::TestCity;

class IndexRebuildTest : public ::testing::TestWithParam<bool> {};

TEST_P(IndexRebuildTest, LiveIndexEqualsRebuildAfterEveryMutation) {
  TestCity& city = SharedCity();
  XarOptions options;
  options.kinetic_booking = GetParam();
  XarSystem xar(city.graph, *city.spatial, *city.region, *city.oracle,
                options);

  // One morning-rush hour, capped at 400 trips: rides overlap in time, so
  // the index is never trivially empty, and the run spans several refreshes.
  WorkloadOptions workload;
  workload.num_trips = 5000;
  workload.seed = 11;
  std::vector<TaxiTrip> trips = FilterByTimeWindow(
      GenerateTrips(city.graph.bounds(), workload), 8 * 3600.0, 9 * 3600.0);
  if (trips.size() > 400) trips.resize(400);
  ASSERT_GT(trips.size(), 100u);

  ScenarioConfig config;
  config.events.cancel_probability = 0.15;
  config.events.no_show_probability = 0.15;
  config.refresh_period_s = 900.0;
  config.seed = 5;
  EventSim sim(city.graph, xar.options(), config);
  RebuildCheckingTarget target(xar, city.graph, /*check_every_s=*/0.0);
  EventSimResult result = sim.Run(target, trips);

  EXPECT_TRUE(target.first_failure.empty()) << target.first_failure;
  EXPECT_GT(target.checks, trips.size());
  EXPECT_GT(target.max_registered, 0u);
  // The run exercised every path that mutates the index.
  EXPECT_GT(result.matched, 0u);
  EXPECT_GT(result.cancels_succeeded, 0u);
  EXPECT_GT(result.no_shows_succeeded, 0u);
  EXPECT_GE(result.refreshes, 2u);
  if (GetParam()) {
    EXPECT_GT(xar.pooling_stats().insertions, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Booking, IndexRebuildTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Kinetic" : "Splice";
                         });

}  // namespace
}  // namespace xar
