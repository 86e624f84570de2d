// End-to-end pipeline tests: full pre-processing + runtime on a fresh city,
// checking the cross-module invariants the unit suites cannot see — index
// consistency under a whole day of create/search/book/track traffic, the
// detour approximation guarantee, and strict request-side thresholds.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

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

/// One fully simulated world per (seed) parameter.
class PipelineTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    CityOptions copt;
    copt.rows = 16;
    copt.cols = 16;
    copt.seed = GetParam();
    graph_ = GenerateCity(copt);
    spatial_ = std::make_unique<SpatialNodeIndex>(graph_);
    DiscretizationOptions dopt;
    dopt.landmarks.num_candidates = 300;
    dopt.landmarks.seed = GetParam() + 1;
    region_ = std::make_unique<RegionIndex>(
        RegionIndex::Build(graph_, *spatial_, dopt));
    oracle_ = std::make_unique<GraphOracle>(graph_);
    xar_ = std::make_unique<XarSystem>(graph_, *spatial_, *region_, *oracle_);

    WorkloadOptions wopt;
    wopt.num_trips = 2500;
    wopt.seed = GetParam() + 2;
    trips_ = GenerateTrips(graph_.bounds(), wopt);
    EventSim sim(graph_, xar_->options(), ScenarioConfig{});
    // Check the index against a rebuild once per sim-hour: the day ends
    // with every vehicle arrived and the index empty.
    testing::RebuildCheckingTarget target(*xar_, graph_,
                                          /*check_every_s=*/3600.0);
    result_ = sim.Run(target, trips_);
    index_checks_ = target.checks;
    index_max_registered_ = target.max_registered;
    index_failure_ = target.first_failure;
  }

  RoadGraph graph_;
  std::unique_ptr<SpatialNodeIndex> spatial_;
  std::unique_ptr<RegionIndex> region_;
  std::unique_ptr<GraphOracle> oracle_;
  std::unique_ptr<XarSystem> xar_;
  std::vector<TaxiTrip> trips_;
  EventSimResult result_;
  std::size_t index_checks_ = 0;
  std::size_t index_max_registered_ = 0;
  std::string index_failure_;
};

TEST_P(PipelineTest, SimulationServesTraffic) {
  EXPECT_EQ(result_.requests, trips_.size());
  EXPECT_GT(result_.matched, result_.requests / 20);  // some sharing happens
  EXPECT_GT(result_.rides_created, 0u);
}

TEST_P(PipelineTest, DetourGuaranteeAcrossAllBookings) {
  // Section V guarantee: a booking admitted by the (approximate) search can
  // overrun the ride's detour budget by at most 4*epsilon; the grid->landmark
  // association adds at most 2*Delta of slack on top in this implementation.
  double bound = 4 * region_->epsilon() +
                 2 * region_->options().max_drive_to_landmark_m;
  for (const BookingRecord& b : result_.bookings) {
    double excess = b.actual_detour_m - b.budget_before_m;
    EXPECT_LE(excess, bound + 1e-6)
        << "booking for request " << b.request.value();
  }
}

TEST_P(PipelineTest, EveryBookingWithinWalkThreshold) {
  for (const BookingRecord& b : result_.bookings) {
    EXPECT_LE(b.walk_m, xar_->options().default_walk_limit_m + 1e-6);
  }
}

TEST_P(PipelineTest, BookingsUseAtMostFourShortestPaths) {
  for (const BookingRecord& b : result_.bookings) {
    EXPECT_GE(b.shortest_path_computations, 1u);
    EXPECT_LE(b.shortest_path_computations, 4u);
  }
}

TEST_P(PipelineTest, RideStateConsistentAfterFullDay) {
  for (std::size_t i = 0; i < xar_->NumRides(); ++i) {
    const Ride* r = xar_->GetRide(RideId(static_cast<RideId::underlying_type>(i)));
    ASSERT_NE(r, nullptr);
    // Via-points aligned with the route and monotone in time.
    ASSERT_EQ(r->via_points.size(), r->via_route_index.size());
    for (std::size_t v = 0; v < r->via_points.size(); ++v) {
      EXPECT_EQ(r->route.nodes[r->via_route_index[v]], r->via_points[v].node);
      if (v > 0) {
        EXPECT_LE(r->via_route_index[v - 1], r->via_route_index[v]);
        EXPECT_LE(r->via_points[v - 1].eta_s, r->via_points[v].eta_s + 1e-6);
      }
    }
    // Seats within range; detour bookkeeping non-negative.
    EXPECT_GE(r->seats_available, 0);
    EXPECT_LE(r->seats_available, r->seats_total);
    EXPECT_GE(r->detour_used_m, -1e-9);
    // Cumulative profiles are monotone and sized to the route.
    ASSERT_EQ(r->route_cum_dist_m.size(), r->route.nodes.size());
    for (std::size_t j = 1; j < r->route_cum_dist_m.size(); ++j) {
      EXPECT_GE(r->route_cum_dist_m[j], r->route_cum_dist_m[j - 1]);
      EXPECT_GE(r->route_cum_time_s[j], r->route_cum_time_s[j - 1]);
    }
  }
}

TEST_P(PipelineTest, IndexListsConsistentWithRegistrations) {
  // Through the day the index held exactly what a rebuild of the live fleet
  // holds: no finished ride listed, no active one missing, every entry and
  // registration bit-equal.
  EXPECT_GT(index_checks_, 12u);
  EXPECT_GT(index_max_registered_, 0u);
  EXPECT_TRUE(index_failure_.empty()) << index_failure_;
  EXPECT_TRUE(testing::IndexMatchesRebuild(*xar_, graph_));
}

TEST_P(PipelineTest, SearchResultsAreBookableRightAway) {
  // Fresh requests against the end-of-day state: every returned match must
  // book successfully (index entries are never stale).
  WorkloadOptions wopt;
  wopt.num_trips = 150;
  wopt.seed = GetParam() + 9;
  std::size_t attempted = 0;
  for (const TaxiTrip& t : GenerateTrips(graph_.bounds(), wopt)) {
    RideRequest req;
    req.id = RequestId(1000000 + attempted);
    req.source = t.pickup;
    req.destination = t.dropoff;
    req.earliest_departure_s = xar_->Now();
    req.latest_departure_s = xar_->Now() + 1800;
    std::vector<RideMatch> matches = xar_->Search(req);
    if (matches.empty()) continue;
    ++attempted;
    Result<BookingRecord> booking = xar_->Book(matches[0].ride, req,
                                               matches[0]);
    EXPECT_TRUE(booking.ok()) << booking.status().ToString();
    if (attempted >= 10) break;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineTest,
                         ::testing::Values(101, 202, 303));

}  // namespace
}  // namespace xar
