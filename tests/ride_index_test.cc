#include "match/match_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "tests/index_checkers.h"
#include "tests/test_helpers.h"
#include "xar/route_utils.h"
#include "xar/xar_system.h"

namespace xar {
namespace {

using testing::FindEntry;
using testing::SharedCity;
using testing::TestCity;

/// The clock the standalone index registers at: midnight, before every ride
/// here departs, so Insert and Update keep every pass-through.
constexpr double kMidnight = 0.0;

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
  index_.Insert(ride, kMidnight);
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
  index_.Insert(ride, kMidnight);
  double arrival = ride.ArrivalTimeS();
  for (const PassThroughCluster& pt :
       index_.RegistrationOf(ride.id)->pass_throughs) {
    EXPECT_GE(pt.eta_s, ride.departure_time_s - 1e-9);
    EXPECT_LE(pt.eta_s, arrival + 1e-9);
    EXPECT_EQ(pt.segment, 0u);  // fresh ride: a single segment
  }
}

TEST_F(RideIndexTest, ReachableClustersRespectDetourBudget) {
  constexpr double kBudget = 2000.0;
  Ride ride = MakeDiagonalRide(city_, 8 * 3600, /*detour_limit_m=*/kBudget);
  index_.Insert(ride, kMidnight);
  const RegionIndex& region = *city_.region;
  const RideRegistration* reg = index_.RegistrationOf(ride.id);
  ASSERT_NE(reg, nullptr);
  ASSERT_FALSE(reg->pass_throughs.empty());
  std::size_t reached = 0;
  for (const PassThroughCluster& pt : reg->pass_throughs) {
    // The paper's triangle test against the via-point ending the segment:
    // d(C,C') + d(C',next) - d(C,next) <= budget, recomputed from region
    // distances; a cluster is reachable iff it passes.
    const ClusterId next = region.ClusterOfPoint(
        city_.graph.PositionOf(ride.via_points[pt.segment + 1].node));
    ASSERT_TRUE(next.valid());
    for (std::size_t c = 0; c < region.NumClusters(); ++c) {
      const ClusterId other(static_cast<ClusterId::underlying_type>(c));
      if (other == pt.cluster) continue;
      const double to_other = region.ClusterDistance(pt.cluster, other);
      const double detour = to_other + region.ClusterDistance(other, next) -
                            region.ClusterDistance(pt.cluster, next);
      const bool reachable = std::binary_search(
          pt.reachable.begin(), pt.reachable.end(), other);
      EXPECT_EQ(reachable, to_other <= kBudget && detour <= kBudget)
          << "cluster " << c << " from " << pt.cluster.value();
      reached += reachable;
    }
    EXPECT_TRUE(std::is_sorted(pt.reachable.begin(), pt.reachable.end()));
  }
  EXPECT_GT(reached, 0u);
}

TEST_F(RideIndexTest, SmallerBudgetNeverReachesMore) {
  Ride wide = MakeDiagonalRide(city_, 8 * 3600, 4000);
  Ride narrow = MakeDiagonalRide(city_, 8 * 3600, 500);
  narrow.id = RideId(1);
  index_.Insert(wide, kMidnight);
  index_.Insert(narrow, kMidnight);
  EXPECT_GE(index_.RegistrationOf(wide.id)->registered_clusters.size(),
            index_.RegistrationOf(narrow.id)->registered_clusters.size());
}

TEST_F(RideIndexTest, ListsMatchRegisteredClusters) {
  Ride ride = MakeDiagonalRide(city_, 8 * 3600);
  index_.Insert(ride, kMidnight);
  const RideRegistration* reg = index_.RegistrationOf(ride.id);
  // The ride appears in exactly the clusters it claims, nowhere else.
  for (std::size_t c = 0; c < city_.region->NumClusters(); ++c) {
    ClusterId cluster(static_cast<ClusterId::underlying_type>(c));
    bool listed = FindEntry(index_.ListOf(cluster), ride.id) != nullptr;
    bool claimed =
        std::binary_search(reg->registered_clusters.begin(),
                           reg->registered_clusters.end(), cluster);
    EXPECT_EQ(listed, claimed) << "cluster " << c;
  }
}

TEST_F(RideIndexTest, UnregisterRemovesEverywhere) {
  Ride ride = MakeDiagonalRide(city_, 8 * 3600);
  index_.Insert(ride, kMidnight);
  index_.Remove(ride.id);
  EXPECT_EQ(index_.RegistrationOf(ride.id), nullptr);
  for (std::size_t c = 0; c < city_.region->NumClusters(); ++c) {
    EXPECT_EQ(FindEntry(index_.ListOf(ClusterId(
                            static_cast<ClusterId::underlying_type>(c))),
                        ride.id),
              nullptr);
  }
  // Idempotent.
  index_.Remove(ride.id);
}

TEST_F(RideIndexTest, AdvanceCrossesOnlyPastClusters) {
  Ride ride = MakeDiagonalRide(city_, 8 * 3600);
  index_.Insert(ride, kMidnight);
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
    EXPECT_NE(FindEntry(index_.ListOf(c), ride.id), nullptr);
  }
}

TEST_F(RideIndexTest, AdvancePastArrivalEvictsAll) {
  Ride ride = MakeDiagonalRide(city_, 8 * 3600);
  index_.Insert(ride, kMidnight);
  std::size_t listed_before =
      index_.RegistrationOf(ride.id)->registered_clusters.size();
  std::size_t evicted = index_.Advance(ride, ride.ArrivalTimeS() + 10);
  EXPECT_EQ(evicted, listed_before);
  EXPECT_TRUE(index_.RegistrationOf(ride.id)->pass_throughs.empty());
}

TEST_F(RideIndexTest, AdvanceIsIncremental) {
  Ride ride = MakeDiagonalRide(city_, 8 * 3600);
  index_.Insert(ride, kMidnight);
  double t1 = ride.departure_time_s + ride.route.time_s * 0.3;
  double t2 = ride.departure_time_s + ride.route.time_s * 0.6;
  index_.Advance(ride, t1);
  std::size_t after_t1 =
      index_.RegistrationOf(ride.id)->pass_throughs.size();
  EXPECT_EQ(index_.Advance(ride, t1), 0u);  // idempotent at same time
  index_.Advance(ride, t2);
  EXPECT_LE(index_.RegistrationOf(ride.id)->pass_throughs.size(), after_t1);
}

TEST_F(RideIndexTest, InsertAtTheClockEqualsInsertThenAdvance) {
  Ride ride = MakeDiagonalRide(city_, 8 * 3600);
  const double mid = ride.departure_time_s + ride.route.time_s / 2;
  index_.Insert(ride, kMidnight);
  index_.Advance(ride, mid);
  MatchIndex at_mid(BorrowRegionSnapshot(*city_.region), city_.graph);
  at_mid.Insert(ride, mid);

  const RideRegistration* want = index_.RegistrationOf(ride.id);
  const RideRegistration* got = at_mid.RegistrationOf(ride.id);
  EXPECT_EQ(got->registered_clusters, want->registered_clusters);
  EXPECT_EQ(got->registered_eta_s, want->registered_eta_s);
  ASSERT_EQ(got->pass_throughs.size(), want->pass_throughs.size());
  for (std::size_t p = 0; p < want->pass_throughs.size(); ++p) {
    EXPECT_EQ(got->pass_throughs[p].cluster, want->pass_throughs[p].cluster);
    EXPECT_EQ(got->pass_throughs[p].eta_s, want->pass_throughs[p].eta_s);
    EXPECT_GE(got->pass_throughs[p].eta_s, mid);
  }
  EXPECT_EQ(at_mid.counters().evictions, 0u);
}

TEST_F(RideIndexTest, NextEventTimeIsEarliestUncrossed) {
  Ride ride = MakeDiagonalRide(city_, 8 * 3600);
  index_.Insert(ride, kMidnight);
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

TEST_F(RideIndexTest, JointChooserOrdersEarlyBeforeLatePassThrough) {
  Ride ride = MakeDiagonalRide(city_, 8 * 3600);
  index_.Insert(ride, kMidnight);
  const RideRegistration* reg = index_.RegistrationOf(ride.id);
  ASSERT_GE(reg->pass_throughs.size(), 2u);
  ClusterId c_early = reg->pass_throughs.front().cluster;
  ClusterId c_late = reg->pass_throughs.back().cluster;
  ASSERT_NE(c_early, c_late);

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
  index_.Insert(ride, kMidnight);
  std::size_t wide = index_.RegistrationOf(ride.id)->registered_clusters.size();
  ride.detour_used_m = 3600;  // only 400 m of budget left
  index_.Update(ride, kMidnight);
  std::size_t narrow =
      index_.RegistrationOf(ride.id)->registered_clusters.size();
  EXPECT_LT(narrow, wide);
}

/// Every list of `index`, entry by entry, as the bits of each key.
std::vector<std::vector<std::uint64_t>> ListBits(const MatchIndex& index,
                                                 std::size_t num_clusters) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<std::uint64_t>> bits(num_clusters);
  for (std::size_t c = 0; c < num_clusters; ++c) {
    for (const PotentialRide& entry :
         index.ListOf(ClusterId(static_cast<ClusterId::underlying_type>(c)))
             .EtaRange(-kInf, kInf)) {
      bits[c].push_back(entry.ride.value());
      bits[c].push_back(std::bit_cast<std::uint64_t>(entry.eta_s));
    }
  }
  return bits;
}

/// The Update counters `after` gained over `before`.
MatchCounters UpdateDelta(const MatchCounters& before,
                          const MatchCounters& after) {
  MatchCounters d;
  d.update_kept = after.update_kept - before.update_kept;
  d.update_moved = after.update_moved - before.update_moved;
  d.update_left = after.update_left - before.update_left;
  d.update_entered = after.update_entered - before.update_entered;
  return d;
}

TEST_F(RideIndexTest, UpdateOfUnchangedRideKeepsEveryEntry) {
  Ride ride = MakeDiagonalRide(city_, 8 * 3600);
  for (std::uint32_t k = 1; k < 4; ++k) {
    Ride other = MakeDiagonalRide(city_, 8 * 3600 + 30.0 * k);
    other.id = RideId(k);
    index_.Insert(other, kMidnight);
  }
  index_.Insert(ride, kMidnight);
  const std::size_t clusters = city_.region->NumClusters();
  const auto lists_before = ListBits(index_, clusters);
  const std::size_t listed =
      index_.RegistrationOf(ride.id)->registered_clusters.size();
  ASSERT_GT(listed, 0u);
  const MatchCounters before = index_.counters();

  index_.Update(ride, kMidnight);
  EXPECT_EQ(ListBits(index_, clusters), lists_before);
  const MatchCounters d = UpdateDelta(before, index_.counters());
  EXPECT_EQ(d.update_kept, listed);
  EXPECT_EQ(d.update_moved, 0u);
  EXPECT_EQ(d.update_left, 0u);
  EXPECT_EQ(d.update_entered, 0u);
}

/// A ride across the city diagonal and a rider along its middle, on a
/// XarSystem whose clock stands before the ride departs unless a test moves
/// it: Book and CancelBooking re-derive the ride with Update.
class IndexUpdateCountsTest : public RideIndexTest {
 protected:
  IndexUpdateCountsTest()
      : xar_(city_.graph, *city_.spatial, *city_.region, *city_.oracle) {}

  LatLng Along(double f) const {
    const BoundingBox& b = city_.graph.bounds();
    return {b.min_lat + f * (b.max_lat - b.min_lat),
            b.min_lng + f * (b.max_lng - b.min_lng)};
  }

  RideId CreateRide(double detour_limit_m = -1.0) {
    RideOffer offer;
    offer.source = Along(0.1);
    offer.destination = Along(0.9);
    offer.departure_time_s = 8 * 3600.0;
    offer.detour_limit_m = detour_limit_m;
    Result<RideId> ride = xar_.CreateRide(offer);
    EXPECT_TRUE(ride.ok()) << ride.status().ToString();
    return *ride;
  }

  RideRequest MidRequest() const {
    RideRequest req;
    req.id = RequestId(1);
    req.source = Along(0.35);
    req.destination = Along(0.7);
    req.earliest_departure_s = 8 * 3600.0;
    req.latest_departure_s = 8 * 3600.0 + 1800;
    return req;
  }

  std::size_t Listed(RideId ride) const {
    return xar_.match_index().RegistrationOf(ride)->registered_clusters.size();
  }

  XarSystem xar_;
};

TEST_F(IndexUpdateCountsTest, SpliceBookingSplitsOldAndNewRegistrations) {
  const RideId ride = CreateRide();
  const RideRequest req = MidRequest();
  const std::size_t listed_before = Listed(ride);
  const MatchCounters before = xar_.match_index().counters();

  std::vector<RideMatch> matches = xar_.Search(req);
  ASSERT_FALSE(matches.empty());
  ASSERT_TRUE(xar_.Book(ride, req, matches[0]).ok());
  const MatchCounters after = xar_.match_index().counters();
  ASSERT_EQ(after.updates, before.updates + 1);
  ASSERT_EQ(after.evictions, before.evictions);

  const MatchCounters d = UpdateDelta(before, after);
  EXPECT_EQ(d.update_kept + d.update_moved + d.update_left, listed_before);
  EXPECT_EQ(d.update_kept + d.update_moved + d.update_entered, Listed(ride));
  // The splice spent detour budget and shifted the ETAs behind the pickup.
  EXPECT_GT(d.update_left, 0u);
  EXPECT_GT(d.update_moved, 0u);
}

TEST_F(IndexUpdateCountsTest, SpliceBookingPastDepartureRegistersOnlyAhead) {
  // A tight budget keeps each pass-through's reachable clusters local, so
  // the clusters behind the vehicle are supported by nothing ahead of it.
  const RideId ride = CreateRide(/*detour_limit_m=*/1000.0);
  const Ride& driving = *xar_.GetRide(ride);
  // A fifth of the way along: tracking has retired the clusters behind.
  xar_.AdvanceTime(driving.departure_time_s + 0.2 * driving.route.time_s);
  const std::size_t listed_before = Listed(ride);
  const MatchCounters before = xar_.match_index().counters();
  ASSERT_GT(before.evictions, 0u);

  const RideRequest req = MidRequest();
  std::vector<RideMatch> matches = xar_.Search(req);
  ASSERT_FALSE(matches.empty());
  ASSERT_TRUE(xar_.Book(ride, req, matches[0]).ok());
  const MatchCounters after = xar_.match_index().counters();
  ASSERT_EQ(after.updates, before.updates + 1);
  // The Update registers nothing behind the clock, so nothing is evicted.
  EXPECT_EQ(after.evictions, before.evictions);
  const MatchCounters d = UpdateDelta(before, after);
  EXPECT_EQ(d.update_kept + d.update_moved + d.update_left, listed_before);
  EXPECT_EQ(d.update_kept + d.update_moved + d.update_entered, Listed(ride));
  EXPECT_TRUE(testing::IndexMatchesRebuild(xar_, city_.graph));
}

TEST_F(IndexUpdateCountsTest, CancelGrowsTheBudgetAndEntersClusters) {
  const RideId ride = CreateRide();
  const RideRequest req = MidRequest();
  std::vector<RideMatch> matches = xar_.Search(req);
  ASSERT_FALSE(matches.empty());
  ASSERT_TRUE(xar_.Book(ride, req, matches[0]).ok());
  const std::size_t listed_before = Listed(ride);
  const MatchCounters before = xar_.match_index().counters();

  ASSERT_TRUE(xar_.CancelBooking(ride, req.id).ok());
  const MatchCounters d = UpdateDelta(before, xar_.match_index().counters());
  EXPECT_GT(d.update_entered, 0u);
  EXPECT_EQ(d.update_kept + d.update_moved + d.update_left, listed_before);
  EXPECT_EQ(d.update_kept + d.update_moved + d.update_entered, Listed(ride));
}

TEST_F(RideIndexTest, MemoryFootprintTracksRegistrations) {
  std::size_t empty = index_.MemoryFootprint();
  Ride ride = MakeDiagonalRide(city_, 8 * 3600);
  index_.Insert(ride, kMidnight);
  std::size_t loaded = index_.MemoryFootprint();
  EXPECT_GT(loaded, empty);
  index_.Remove(ride.id);
  EXPECT_LT(index_.MemoryFootprint(), loaded);
}

}  // namespace
}  // namespace xar
