// Scale stress: a large request stream through the full stack with
// continuous tracking — catches index-consistency decay, unbounded memory
// growth and event-queue pathologies that small tests cannot.

#include <gtest/gtest.h>


#include "common/clock.h"
#include "common/stats.h"
#include "discretize/region_index.h"
#include "graph/generator.h"
#include "graph/oracle.h"
#include "graph/spatial_index.h"
#include "sim/event_sim.h"
#include "tests/index_checkers.h"
#include "workload/trip_generator.h"
#include "xar/xar_system.h"

namespace xar {
namespace {

using testing::RebuildCheckingTarget;

/// Forwards every call to `inner` and times each SearchAndBook: the search
/// plus the booking of the first bookable match.
class TimedSearchTarget final : public SimTarget {
 public:
  explicit TimedSearchTarget(SimTarget& inner) : inner_(&inner) {}

  std::vector<RideMatch> Search(const RideRequest& request) const override {
    return inner_->Search(request);
  }
  Result<BookingRecord> SearchAndBook(const RideRequest& request) override {
    Stopwatch timer;
    Result<BookingRecord> booked = inner_->SearchAndBook(request);
    search_and_book_ms.Add(timer.ElapsedMillis());
    return booked;
  }
  Result<RideId> CreateRide(const RideOffer& offer) override {
    return inner_->CreateRide(offer);
  }
  Status CancelBooking(RideId ride, RequestId request) override {
    return inner_->CancelBooking(ride, request);
  }
  Status ReportNoShow(RideId ride, RequestId request) override {
    return inner_->ReportNoShow(ride, request);
  }
  void AdvanceTime(double now_s) override { inner_->AdvanceTime(now_s); }
  RefreshStats RefreshDiscretization(const GraphDelta& delta) override {
    return inner_->RefreshDiscretization(delta);
  }
  Result<Ride> GetRide(RideId id) const override {
    return inner_->GetRide(id);
  }
  std::uint64_t epoch() const override { return inner_->epoch(); }

  PercentileTracker search_and_book_ms;

 private:
  SimTarget* inner_;
};

TEST(StressTest, ThirtyThousandRequestsThroughTheFullStack) {
  CityOptions copt;
  copt.rows = 24;
  copt.cols = 24;
  copt.seed = 77;
  RoadGraph graph = GenerateCity(copt);
  SpatialNodeIndex spatial(graph);
  DiscretizationOptions dopt;
  dopt.landmarks.num_candidates = 450;
  RegionIndex region = RegionIndex::Build(graph, spatial, dopt);
  GraphOracle oracle(graph);
  XarSystem xar(graph, spatial, region, oracle);

  WorkloadOptions wopt;
  wopt.num_trips = 30000;
  wopt.seed = 78;
  std::vector<TaxiTrip> trips = GenerateTrips(graph.bounds(), wopt);

  EventSim sim(graph, xar.options(), ScenarioConfig{});
  // Checks the index against a rebuild once per sim-hour: the day ends with
  // every vehicle arrived and the index empty.
  RebuildCheckingTarget checked(xar, graph, /*check_every_s=*/3600.0);
  TimedSearchTarget target(checked);
  EventSimResult result = sim.Run(target, trips);

  // Conservation and sane volumes.
  EXPECT_EQ(result.requests, 30000u);
  EXPECT_EQ(result.matched + result.rides_created +
                result.metrics.requests_unserved,
            result.requests);
  EXPECT_GT(result.matched, result.requests / 4);

  // Every single booking respected the contract.
  double bound = 4 * region.epsilon() +
                 2 * region.options().max_drive_to_landmark_m;
  for (const BookingRecord& b : result.bookings) {
    ASSERT_LE(b.shortest_path_computations, 4u);
    ASSERT_LE(b.walk_m, xar.options().default_walk_limit_m + 1e-6);
    ASSERT_LE(b.actual_detour_m - b.budget_before_m, bound + 1e-6);
    ASSERT_LE(b.pickup_eta_s, b.dropoff_eta_s + 1e-6);
  }

  // After a full day, tracking must have retired the vast majority of
  // rides: the day's final requests arrive near midnight while morning
  // rides finished hours earlier.
  EXPECT_LT(xar.NumActiveRides(), xar.NumRides() / 4);

  // Through the day the index held exactly what a rebuild of the live fleet
  // holds: every list entry an active, registered ride, no active ride
  // missing, every entry and registration bit-equal.
  EXPECT_GT(checked.checks, 12u);
  EXPECT_GT(checked.max_registered, 0u);
  EXPECT_TRUE(checked.first_failure.empty()) << checked.first_failure;
  EXPECT_TRUE(testing::IndexMatchesRebuild(xar, graph));

  // Search latency stays in the sub-millisecond regime at full load; every
  // request books on its turn, so each SearchAndBook includes one search.
  ASSERT_EQ(target.search_and_book_ms.count(), result.requests);
  EXPECT_LT(target.search_and_book_ms.Percentile(50), 5.0);
}

}  // namespace
}  // namespace xar
