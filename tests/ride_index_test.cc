#include "match/match_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "tests/test_helpers.h"
#include "xar/route_utils.h"
#include "xar/xar_system.h"

namespace xar {
namespace {

using testing::SharedCity;
using testing::TestCity;

/// Builds a standalone Ride along the city diagonal (without a XarSystem).
Ride MakeDiagonalRide(TestCity& city, double departure_s,
                      double detour_limit_m = 4000.0) {
  const BoundingBox& b = city.graph.bounds();
  NodeId src = city.spatial->NearestNode(
      {b.min_lat + 0.1 * (b.max_lat - b.min_lat),
       b.min_lng + 0.1 * (b.max_lng - b.min_lng)});
  NodeId dst = city.spatial->NearestNode(
      {b.min_lat + 0.9 * (b.max_lat - b.min_lat),
       b.min_lng + 0.9 * (b.max_lng - b.min_lng)});
  Ride ride;
  ride.id = RideId(0);
  ride.source = src;
  ride.destination = dst;
  ride.departure_time_s = departure_s;
  ride.seats_total = ride.seats_available = 3;
  ride.detour_limit_m = detour_limit_m;
  ride.route = city.oracle->DriveRoute(src, dst);
  BuildCumulativeProfiles(city.graph, ride.route.nodes,
                          &ride.route_cum_time_s, &ride.route_cum_dist_m);
  ride.via_points = {
      ViaPoint{src, departure_s, RequestId::Invalid(), false},
      ViaPoint{dst, departure_s + ride.route_cum_time_s.back(),
               RequestId::Invalid(), false}};
  ride.via_route_index = {0, ride.route.nodes.size() - 1};
  return ride;
}

class RideIndexTest : public ::testing::Test {
 protected:
  RideIndexTest()
      : city_(SharedCity()),
        index_(BorrowRegionSnapshot(*city_.region), city_.graph) {}

  TestCity& city_;
  MatchIndex index_;
};

TEST_F(RideIndexTest, RegistrationBasics) {
  Ride ride = MakeDiagonalRide(city_, 8 * 3600);
  index_.Insert(ride);
  const RideRegistration* reg = index_.RegistrationOf(ride.id);
  ASSERT_NE(reg, nullptr);
  EXPECT_FALSE(reg->pass_throughs.empty());
  EXPECT_FALSE(reg->registered_clusters.empty());
  EXPECT_TRUE(std::is_sorted(reg->registered_clusters.begin(),
                             reg->registered_clusters.end()));
  EXPECT_EQ(index_.NumRegisteredRides(), 1u);
}

TEST_F(RideIndexTest, PassThroughEtasWithinRideSpan) {
  Ride ride = MakeDiagonalRide(city_, 8 * 3600);
  index_.Insert(ride);
  double arrival = ride.ArrivalTimeS();
  for (const PassThroughCluster& pt :
       index_.RegistrationOf(ride.id)->pass_throughs) {
    EXPECT_GE(pt.eta_s, ride.departure_time_s - 1e-9);
    EXPECT_LE(pt.eta_s, arrival + 1e-9);
    EXPECT_EQ(pt.segment, 0u);  // fresh ride: a single segment
    EXPECT_FALSE(pt.crossed);
  }
}

TEST_F(RideIndexTest, ReachableClustersRespectDetourBudget) {
  Ride ride = MakeDiagonalRide(city_, 8 * 3600, /*detour_limit_m=*/2000);
  index_.Insert(ride);
  const RegionIndex& region = *city_.region;
  for (const PassThroughCluster& pt :
       index_.RegistrationOf(ride.id)->pass_throughs) {
    ASSERT_EQ(pt.reachable.size(), pt.reachable_detour_m.size());
    for (std::size_t i = 0; i < pt.reachable.size(); ++i) {
      EXPECT_NE(pt.reachable[i], pt.cluster);
      EXPECT_GE(pt.reachable_detour_m[i], 0.0);
      EXPECT_LE(pt.reachable_detour_m[i], 2000.0 + 1e-9);
      // The reachable cluster is within the budget of the pass-through.
      EXPECT_LE(region.ClusterDistance(pt.cluster, pt.reachable[i]),
                2000.0 + 1e-9);
    }
  }
}

TEST_F(RideIndexTest, SmallerBudgetNeverReachesMore) {
  Ride wide = MakeDiagonalRide(city_, 8 * 3600, 4000);
  Ride narrow = MakeDiagonalRide(city_, 8 * 3600, 500);
  narrow.id = RideId(1);
  index_.Insert(wide);
  index_.Insert(narrow);
  EXPECT_GE(index_.RegistrationOf(wide.id)->registered_clusters.size(),
            index_.RegistrationOf(narrow.id)->registered_clusters.size());
}

TEST_F(RideIndexTest, ListsMatchRegisteredClusters) {
  Ride ride = MakeDiagonalRide(city_, 8 * 3600);
  index_.Insert(ride);
  const RideRegistration* reg = index_.RegistrationOf(ride.id);
  // The ride appears in exactly the clusters it claims, nowhere else.
  for (std::size_t c = 0; c < city_.region->NumClusters(); ++c) {
    ClusterId cluster(static_cast<ClusterId::underlying_type>(c));
    bool listed = index_.ListOf(cluster).Contains(ride.id);
    bool claimed =
        std::binary_search(reg->registered_clusters.begin(),
                           reg->registered_clusters.end(), cluster);
    EXPECT_EQ(listed, claimed) << "cluster " << c;
  }
}

TEST_F(RideIndexTest, UnregisterRemovesEverywhere) {
  Ride ride = MakeDiagonalRide(city_, 8 * 3600);
  index_.Insert(ride);
  index_.Remove(ride.id);
  EXPECT_EQ(index_.RegistrationOf(ride.id), nullptr);
  for (std::size_t c = 0; c < city_.region->NumClusters(); ++c) {
    EXPECT_FALSE(
        index_.ListOf(ClusterId(static_cast<ClusterId::underlying_type>(c)))
            .Contains(ride.id));
  }
  // Idempotent.
  index_.Remove(ride.id);
}

TEST_F(RideIndexTest, AdvanceCrossesOnlyPastClusters) {
  Ride ride = MakeDiagonalRide(city_, 8 * 3600);
  index_.Insert(ride);
  double mid = ride.departure_time_s + ride.route.time_s / 2;
  index_.Advance(ride, mid);
  const RideRegistration* reg = index_.RegistrationOf(ride.id);
  for (const PassThroughCluster& pt : reg->pass_throughs) {
    EXPECT_GE(pt.eta_s, mid);
  }
  // Every cluster still listed has at least one valid support.
  for (ClusterId c : reg->registered_clusters) {
    bool supported = false;
    for (const PassThroughCluster& pt : reg->pass_throughs) {
      supported |= pt.cluster == c ||
                   std::find(pt.reachable.begin(), pt.reachable.end(), c) !=
                       pt.reachable.end();
    }
    EXPECT_TRUE(supported);
    EXPECT_TRUE(index_.ListOf(c).Contains(ride.id));
  }
}

TEST_F(RideIndexTest, AdvancePastArrivalEvictsAll) {
  Ride ride = MakeDiagonalRide(city_, 8 * 3600);
  index_.Insert(ride);
  std::size_t listed_before =
      index_.RegistrationOf(ride.id)->registered_clusters.size();
  std::size_t evicted = index_.Advance(ride, ride.ArrivalTimeS() + 10);
  EXPECT_EQ(evicted, listed_before);
  EXPECT_TRUE(index_.RegistrationOf(ride.id)->pass_throughs.empty());
}

TEST_F(RideIndexTest, AdvanceIsIncremental) {
  Ride ride = MakeDiagonalRide(city_, 8 * 3600);
  index_.Insert(ride);
  double t1 = ride.departure_time_s + ride.route.time_s * 0.3;
  double t2 = ride.departure_time_s + ride.route.time_s * 0.6;
  index_.Advance(ride, t1);
  std::size_t after_t1 =
      index_.RegistrationOf(ride.id)->pass_throughs.size();
  EXPECT_EQ(index_.Advance(ride, t1), 0u);  // idempotent at same time
  index_.Advance(ride, t2);
  EXPECT_LE(index_.RegistrationOf(ride.id)->pass_throughs.size(), after_t1);
}

TEST_F(RideIndexTest, NextEventTimeIsEarliestUncrossed) {
  Ride ride = MakeDiagonalRide(city_, 8 * 3600);
  index_.Insert(ride);
  double next = index_.NextEventTime(ride.id);
  EXPECT_GE(next, ride.departure_time_s);
  double min_eta = std::numeric_limits<double>::infinity();
  for (const PassThroughCluster& pt :
       index_.RegistrationOf(ride.id)->pass_throughs) {
    min_eta = std::min(min_eta, pt.eta_s);
  }
  EXPECT_DOUBLE_EQ(next, min_eta);
  EXPECT_EQ(index_.NextEventTime(RideId(999)),
            std::numeric_limits<double>::infinity());
}

TEST_F(RideIndexTest, BestSupportAndJointChooserAgreeOnOrdering) {
  Ride ride = MakeDiagonalRide(city_, 8 * 3600);
  index_.Insert(ride);
  const RideRegistration* reg = index_.RegistrationOf(ride.id);
  ASSERT_GE(reg->pass_throughs.size(), 2u);
  ClusterId c_early = reg->pass_throughs.front().cluster;
  ClusterId c_late = reg->pass_throughs.back().cluster;
  ASSERT_NE(c_early, c_late);

  const PassThroughCluster* support = index_.BestSupport(ride.id, c_early);
  ASSERT_NE(support, nullptr);

  std::size_t s = 99, d = 99;
  double est = -1;
  LandmarkId lm_early = reg->pass_throughs.front().landmark;
  LandmarkId lm_late = reg->pass_throughs.back().landmark;
  ASSERT_TRUE(index_.ChooseInsertionSegments(ride, c_early, lm_early, c_late,
                                             lm_late, &s, &d, &est));
  EXPECT_LE(s, d);
  EXPECT_GE(est, 0.0);
  // Both clusters are pass-throughs of the single segment: estimate should
  // be modest (within the epsilon scale), not a cross-city detour.
  EXPECT_LT(est, ride.detour_limit_m);
}

TEST_F(RideIndexTest, ReregisterReflectsNewBudget) {
  Ride ride = MakeDiagonalRide(city_, 8 * 3600, 4000);
  index_.Insert(ride);
  std::size_t wide = index_.RegistrationOf(ride.id)->registered_clusters.size();
  ride.detour_used_m = 3600;  // only 400 m of budget left
  index_.Update(ride);
  std::size_t narrow =
      index_.RegistrationOf(ride.id)->registered_clusters.size();
  EXPECT_LT(narrow, wide);
}

TEST_F(RideIndexTest, MemoryFootprintTracksRegistrations) {
  std::size_t empty = index_.MemoryFootprint();
  Ride ride = MakeDiagonalRide(city_, 8 * 3600);
  index_.Insert(ride);
  std::size_t loaded = index_.MemoryFootprint();
  EXPECT_GT(loaded, empty);
  index_.Remove(ride.id);
  EXPECT_LT(index_.MemoryFootprint(), loaded);
}

}  // namespace
}  // namespace xar
