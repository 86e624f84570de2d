#include <gtest/gtest.h>

#include <cmath>

#include "mmtp/integration.h"
#include "mmtp/trip_planner.h"
#include "tests/test_helpers.h"
#include "transit/network_generator.h"
#include "workload/trip_generator.h"
#include "xar/xar_system.h"

namespace xar {
namespace {

using testing::SharedCity;
using testing::TestCity;

class MmtpTest : public ::testing::Test {
 protected:
  MmtpTest()
      : city_(SharedCity()),
        timetable_(GenerateTransitNetwork(city_.graph.bounds(), {})),
        planner_(timetable_),
        xar_(city_.graph, *city_.spatial, *city_.region, *city_.oracle) {}

  /// Seeds ride-share supply around the given hour.
  void SeedSupply(std::size_t count, double hour) {
    WorkloadOptions opt;
    opt.num_trips = count;
    opt.seed = 77;
    for (TaxiTrip t : GenerateTrips(city_.graph.bounds(), opt)) {
      RideOffer offer;
      offer.source = t.pickup;
      offer.destination = t.dropoff;
      offer.departure_time_s = hour * 3600 + std::fmod(t.pickup_time_s, 1800.0);
      (void)xar_.CreateRide(offer);
    }
  }

  LatLng Frac(double fy, double fx) const {
    const BoundingBox& b = city_.graph.bounds();
    return {b.min_lat + fy * (b.max_lat - b.min_lat),
            b.min_lng + fx * (b.max_lng - b.min_lng)};
  }

  TestCity& city_;
  Timetable timetable_;
  TripPlanner planner_;
  XarSystem xar_;
};

TEST_F(MmtpTest, ShortTripsWalk) {
  LatLng a = Frac(0.5, 0.5);
  LatLng b = Frac(0.52, 0.5);  // a couple hundred meters
  Journey j = planner_.PlanTrip(a, b, 9 * 3600);
  ASSERT_TRUE(j.feasible);
  EXPECT_EQ(j.legs.size(), 1u);
  EXPECT_EQ(j.legs[0].mode, LegMode::kWalk);
}

TEST_F(MmtpTest, LongTripsUseTransit) {
  Journey j = planner_.PlanTrip(Frac(0.1, 0.1), Frac(0.9, 0.9), 9 * 3600);
  ASSERT_TRUE(j.feasible);
  bool has_transit = false;
  for (const JourneyLeg& leg : j.legs) {
    has_transit |= leg.mode == LegMode::kTransit;
  }
  EXPECT_TRUE(has_transit);
  // Legs chain in time.
  for (std::size_t i = 1; i < j.legs.size(); ++i) {
    EXPECT_GE(j.legs[i].start_s, j.legs[i - 1].arrival_s - 1e-6);
  }
}

TEST_F(MmtpTest, WalkOnlyAlwaysFeasible) {
  Journey j = planner_.WalkOnly(Frac(0.1, 0.1), Frac(0.9, 0.9), 9 * 3600);
  EXPECT_TRUE(j.feasible);
  EXPECT_EQ(j.legs.size(), 1u);
  EXPECT_GT(j.WalkMeters(), 0.0);
}

TEST_F(MmtpTest, AiderLeavesComfortablePlansAlone) {
  SeedSupply(300, 9.0);
  Journey plan = planner_.PlanTrip(Frac(0.2, 0.2), Frac(0.8, 0.8), 9 * 3600);
  ASSERT_TRUE(plan.feasible);
  IntegrationOptions loose;
  loose.infeasible_walk_m = 1e9;  // nothing is infeasible
  loose.infeasible_wait_s = 1e9;
  XarMmtpIntegration integration(planner_, xar_, loose);
  IntegrationResult result = integration.Aid(plan, RequestId(1));
  EXPECT_EQ(result.segments_probed, 0u);
  EXPECT_EQ(result.segments_replaced, 0u);
  EXPECT_FALSE(result.improved);
}

TEST_F(MmtpTest, AiderProbesInfeasibleSegments) {
  SeedSupply(400, 9.0);
  Journey plan = planner_.PlanTrip(Frac(0.15, 0.15), Frac(0.85, 0.85),
                                   9 * 3600);
  ASSERT_TRUE(plan.feasible);
  IntegrationOptions strict;
  strict.infeasible_walk_m = 1.0;  // every walking leg is "infeasible"
  strict.book_matches = false;
  XarMmtpIntegration integration(planner_, xar_, strict);
  IntegrationResult result = integration.Aid(plan, RequestId(2));
  EXPECT_GT(result.segments_probed, 0u);
  // Replacement legs, when accepted, never arrive later than the original.
  if (result.improved) {
    EXPECT_LE(result.journey.ArrivalS(), plan.ArrivalS() + 1e-6);
  }
}

TEST_F(MmtpTest, AiderBookingConsumesSeats) {
  SeedSupply(400, 9.0);
  Journey plan = planner_.PlanTrip(Frac(0.15, 0.15), Frac(0.85, 0.85),
                                   9 * 3600);
  ASSERT_TRUE(plan.feasible);
  IntegrationOptions strict;
  strict.infeasible_walk_m = 1.0;
  strict.book_matches = true;
  XarMmtpIntegration integration(planner_, xar_, strict);
  std::size_t bookings_before = xar_.NumBookings();
  IntegrationResult result = integration.Aid(plan, RequestId(3));
  EXPECT_EQ(xar_.NumBookings(),
            bookings_before + result.segments_replaced);
}

TEST_F(MmtpTest, EnhancerProbesNonAdjacentPairCombinations) {
  SeedSupply(200, 9.0);
  Journey plan = planner_.PlanTrip(Frac(0.1, 0.1), Frac(0.9, 0.9), 9 * 3600);
  ASSERT_TRUE(plan.feasible);
  std::size_t legs = plan.legs.size();
  ASSERT_GE(legs, 2u) << "plan degenerated to a single leg";
  IntegrationOptions opt;
  opt.book_matches = false;
  XarMmtpIntegration integration(planner_, xar_, opt);
  IntegrationResult result = integration.Enhance(plan, RequestId(4));
  std::size_t k = legs - 1;  // intermediate hops
  if (k <= opt.max_hops_for_all_pairs) {
    // (k+1 choose 2) non-adjacent pairs (paper Section IX-B).
    EXPECT_EQ(result.segments_probed, (k + 1) * k / 2);
  } else {
    EXPECT_EQ(result.segments_probed, 2 * k + 1);
  }
}

TEST_F(MmtpTest, EnhancerOnlyImproves) {
  SeedSupply(500, 9.0);
  Journey plan = planner_.PlanTrip(Frac(0.1, 0.1), Frac(0.9, 0.9), 9 * 3600);
  ASSERT_TRUE(plan.feasible);
  IntegrationOptions opt;
  opt.book_matches = false;
  XarMmtpIntegration integration(planner_, xar_, opt);
  IntegrationResult result = integration.Enhance(plan, RequestId(5));
  if (result.improved) {
    bool fewer_hops = result.journey.Hops() < plan.Hops();
    bool earlier = result.journey.ArrivalS() < plan.ArrivalS() + 1e-6;
    EXPECT_TRUE(fewer_hops || earlier);
  } else {
    EXPECT_EQ(result.journey.Hops(), plan.Hops());
  }
}

TEST_F(MmtpTest, EnhancerOnSingleLegPlanIsNoop) {
  Journey walk = planner_.WalkOnly(Frac(0.5, 0.5), Frac(0.52, 0.5), 9 * 3600);
  XarMmtpIntegration integration(planner_, xar_);
  IntegrationResult result = integration.Enhance(walk, RequestId(6));
  EXPECT_EQ(result.segments_probed, 0u);
  EXPECT_FALSE(result.improved);
}

}  // namespace
}  // namespace xar
