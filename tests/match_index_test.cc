// Differential suite for the MatchIndex: the index replays TripGenerator
// workloads, every booking respects the paper's 4-epsilon detour guarantee,
// and Search is bit-equal to a reference reimplementation of the seed
// two-step search (paper Section VII) — including across a mid-replay
// RefreshDiscretization epoch swap.

#include "match/match_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "graph/oracle.h"
#include "tests/test_helpers.h"
#include "workload/trip_generator.h"
#include "xar/xar_system.h"

namespace xar {
namespace {

struct Workload {
  std::vector<RideOffer> offers;
  std::vector<RideRequest> requests;
};

Workload MakeWorkload(std::uint64_t seed, std::size_t num_trips = 260) {
  WorkloadOptions wopt;
  wopt.num_trips = num_trips;
  wopt.seed = seed * 0x9e3779b97f4a7c15ULL + 1;
  Workload w;
  for (const TaxiTrip& t : GenerateTrips(testing::SharedCity().graph.bounds(),
                                         wopt)) {
    if (t.id.value() % 3 == 0) {
      RideOffer offer;
      offer.source = t.pickup;
      offer.destination = t.dropoff;
      offer.departure_time_s = t.pickup_time_s;
      w.offers.push_back(offer);
    } else {
      RideRequest req;
      req.id = t.id;
      req.source = t.pickup;
      req.destination = t.dropoff;
      req.earliest_departure_s = t.pickup_time_s;
      req.latest_departure_s = t.pickup_time_s + 1200;
      w.requests.push_back(req);
    }
  }
  return w;
}

/// Reference reimplementation of the seed two-step search (the pre-refactor
/// XarSystem::SearchTopK body, per_ride = 1 path) against the system's
/// public introspection surface: walkable-cluster prefix scan, per-cluster
/// ETA range probes, merge-join intersection on sorted ride ids, then the
/// walking/detour threshold checks. Any divergence between this and
/// Search() is a behavior change in the MatchIndex.
struct RefSide {
  double walk_m;
  double eta_s;
  ClusterId cluster;
  LandmarkId landmark;
};

void RefCollectSide(const XarSystem& xar, const RegionIndex& region,
                    const LatLng& location, double walk_limit_m,
                    double eta_begin, double eta_end,
                    std::vector<std::pair<RideId, RefSide>>* out) {
  GridId grid = region.GridOfPoint(location);
  for (const WalkableCluster& wc : region.WalkableClustersOf(grid)) {
    if (wc.walk_m > walk_limit_m) break;
    const ClusterRideList& list = xar.match_index().ListOf(wc.cluster);
    for (const PotentialRide& pr : list.EtaRange(eta_begin, eta_end)) {
      out->emplace_back(pr.ride, RefSide{wc.walk_m, pr.eta_s, wc.cluster,
                                         wc.nearest_landmark});
    }
  }
  std::sort(out->begin(), out->end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    if (a.second.walk_m != b.second.walk_m)
      return a.second.walk_m < b.second.walk_m;
    return a.second.eta_s < b.second.eta_s;
  });
  out->erase(std::unique(out->begin(), out->end(),
                         [](const auto& a, const auto& b) {
                           return a.first == b.first;
                         }),
             out->end());
}

std::vector<RideMatch> RefSearch(const XarSystem& xar,
                                 const RideRequest& request) {
  const XarOptions& opt = xar.options();
  const double walk_limit = request.walk_limit_m >= 0
                                ? request.walk_limit_m
                                : opt.default_walk_limit_m;
  std::shared_ptr<const RegionSnapshot> pinned = xar.snapshot();
  const RegionIndex& region = *pinned->index;

  std::vector<std::pair<RideId, RefSide>> source_side;
  RefCollectSide(xar, region, request.source, walk_limit,
                 request.earliest_departure_s - opt.eta_window_slack_s,
                 request.latest_departure_s + opt.eta_window_slack_s,
                 &source_side);
  std::vector<std::pair<RideId, RefSide>> dest_side;
  RefCollectSide(xar, region, request.destination, walk_limit,
                 request.earliest_departure_s,
                 request.latest_departure_s + opt.max_onboard_s, &dest_side);

  std::vector<RideMatch> matches;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < source_side.size() && j < dest_side.size()) {
    if (source_side[i].first < dest_side[j].first) {
      ++i;
      continue;
    }
    if (dest_side[j].first < source_side[i].first) {
      ++j;
      continue;
    }
    const RideId ride_id = source_side[i].first;
    const RefSide& s = source_side[i].second;
    const RefSide& d = dest_side[j].second;
    ++i;
    ++j;
    const Ride* ride = xar.GetRide(ride_id);
    if (ride == nullptr || !ride->active ||
        ride->seats_available < request.seats) {
      continue;
    }
    if (s.cluster == d.cluster || s.eta_s > d.eta_s) continue;
    if (s.walk_m + d.walk_m > walk_limit) continue;
    std::size_t seg_s = 0;
    std::size_t seg_d = 0;
    double joint_detour = 0.0;
    if (!xar.match_index().ChooseInsertionSegments(
            *ride, s.cluster, s.landmark, d.cluster, d.landmark, &seg_s,
            &seg_d, &joint_detour)) {
      continue;
    }
    if (joint_detour > ride->RemainingDetourBudget()) continue;

    RideMatch m;
    m.ride = ride_id;
    m.walk_source_m = s.walk_m;
    m.walk_dest_m = d.walk_m;
    m.eta_source_s = s.eta_s;
    m.eta_dest_s = d.eta_s;
    m.detour_estimate_m = joint_detour;
    m.source_cluster = s.cluster;
    m.dest_cluster = d.cluster;
    m.pickup_landmark = s.landmark;
    m.dropoff_landmark = d.landmark;
    m.epoch = pinned->epoch;
    matches.push_back(m);
  }
  std::sort(matches.begin(), matches.end(),
            [](const RideMatch& a, const RideMatch& b) {
              if (a.TotalWalkM() != b.TotalWalkM())
                return a.TotalWalkM() < b.TotalWalkM();
              return a.ride < b.ride;
            });
  return matches;
}

void ExpectBitEqual(const std::vector<RideMatch>& ref,
                    const std::vector<RideMatch>& got) {
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "rank " << i);
    EXPECT_EQ(ref[i].ride, got[i].ride);
    EXPECT_EQ(ref[i].walk_source_m, got[i].walk_source_m);
    EXPECT_EQ(ref[i].walk_dest_m, got[i].walk_dest_m);
    EXPECT_EQ(ref[i].eta_source_s, got[i].eta_source_s);
    EXPECT_EQ(ref[i].eta_dest_s, got[i].eta_dest_s);
    EXPECT_EQ(ref[i].detour_estimate_m, got[i].detour_estimate_m);
    EXPECT_EQ(ref[i].source_cluster, got[i].source_cluster);
    EXPECT_EQ(ref[i].dest_cluster, got[i].dest_cluster);
    EXPECT_EQ(ref[i].pickup_landmark, got[i].pickup_landmark);
    EXPECT_EQ(ref[i].dropoff_landmark, got[i].dropoff_landmark);
    EXPECT_EQ(ref[i].epoch, got[i].epoch);
  }
}

// --- Bit-equality against the seed search path -----------------------------

TEST(MatchIndexDifferentialTest, ClusterBackendBitEqualToSeedSearch) {
  testing::TestCity& city = testing::SharedCity();
  GraphOracle oracle(city.graph);
  XarSystem xar(city.graph, *city.spatial, *city.region, oracle);

  Workload w = MakeWorkload(11);
  ASSERT_FALSE(w.offers.empty());
  for (const RideOffer& offer : w.offers) {
    ASSERT_TRUE(xar.CreateRide(offer).ok());
  }

  std::size_t nonempty = 0;
  std::size_t booked = 0;
  for (std::size_t r = 0; r < w.requests.size(); ++r) {
    // Epoch swap mid-replay: the refreshed discretization re-homes every
    // live ride, and the index must keep tracking the seed search bit for
    // bit on the new epoch too.
    if (r == w.requests.size() / 2) {
      RefreshStats stats = xar.RefreshDiscretization();
      EXPECT_EQ(stats.epoch, 1u);
      EXPECT_EQ(xar.epoch(), 1u);
    }
    const RideRequest& req = w.requests[r];
    SCOPED_TRACE(::testing::Message() << "request " << req.id.value());
    std::vector<RideMatch> got = xar.Search(req);
    std::vector<RideMatch> ref = RefSearch(xar, req);
    ExpectBitEqual(ref, got);
    if (got.empty()) continue;
    ++nonempty;
    // Booking mutates ride state (seats, detour budget, index entries);
    // keep booking through the replay so the two paths are compared on
    // evolving state, not a static index.
    if (xar.Book(got.front().ride, req, got.front()).ok()) ++booked;
  }
  EXPECT_GT(nonempty, 0u) << "workload produced no matches";
  EXPECT_GT(booked, 0u) << "workload produced no bookings";
}

// --- Workload replay under the 4-epsilon bound ----------------------------

TEST(MatchIndexTest, WorkloadReplayRespectsDetourGuarantee) {
  testing::TestCity& city = testing::SharedCity();
  GraphOracle oracle(city.graph);
  XarSystem xar(city.graph, *city.spatial, *city.region, oracle);

  Workload w = MakeWorkload(23);
  for (const RideOffer& offer : w.offers) {
    ASSERT_TRUE(xar.CreateRide(offer).ok());
  }

  const double slack = 4 * city.region->epsilon() +
                       2 * city.region->options().max_drive_to_landmark_m;
  std::size_t booked = 0;
  for (const RideRequest& req : w.requests) {
    SCOPED_TRACE(::testing::Message() << "request " << req.id.value());
    std::vector<RideMatch> matches = xar.Search(req);
    if (matches.empty()) continue;
    Result<BookingRecord> booking =
        xar.Book(matches.front().ride, req, matches.front());
    if (!booking.ok()) continue;
    ++booked;
    // Theorem 6: booking-time exact pricing bounds the actual detour by the
    // cluster-level estimate plus the 4-epsilon discretization slack,
    // because Book recomputes the splice exactly.
    EXPECT_LE(booking->actual_detour_m,
              booking->estimated_detour_m + slack + 1e-6);
  }
  EXPECT_GT(booked, 0u) << "workload produced no bookings";

  // The index's stats surface ticked along the way.
  MatchIndexStats stats = xar.match_index().stats();
  EXPECT_EQ(stats.counters.inserts, w.offers.size());
  EXPECT_EQ(stats.counters.searches, w.requests.size());
  EXPECT_GT(stats.counters.candidates, 0u);
  EXPECT_GT(stats.registered_rides, 0u);
  EXPECT_GT(stats.bytes, 0u);

  // And renders into the registered "match" section shape.
  StatsSection section = MatchStatsSection(stats);
  EXPECT_EQ(section.name, "match");
  ASSERT_EQ(section.rows.size(), 1u);
  EXPECT_EQ(section.rows[0].front().name, "registered_rides");
}

TEST(MatchIndexTest, SurvivesEpochSwapAndAdvance) {
  testing::TestCity& city = testing::SharedCity();
  GraphOracle oracle(city.graph);
  XarSystem xar(city.graph, *city.spatial, *city.region, oracle);

  Workload w = MakeWorkload(5, /*num_trips=*/120);
  for (const RideOffer& offer : w.offers) {
    ASSERT_TRUE(xar.CreateRide(offer).ok());
  }
  std::size_t before = 0;
  for (const RideRequest& req : w.requests) before += xar.Search(req).size();
  EXPECT_GT(before, 0u);

  // Refresh rebinds the index to the new snapshot and re-homes rides; the
  // same requests must still match (same graph, same discretization input).
  xar.RefreshDiscretization();
  std::size_t after = 0;
  for (const RideRequest& req : w.requests) after += xar.Search(req).size();
  EXPECT_EQ(before, after);

  // Tracking: advancing past the whole day retires every ride and empties
  // the index.
  xar.AdvanceTime(48 * 3600.0);
  EXPECT_EQ(xar.NumActiveRides(), 0u);
  EXPECT_EQ(xar.match_index().NumRegisteredRides(), 0u);
  for (const RideRequest& req : w.requests) {
    EXPECT_TRUE(xar.Search(req).empty());
  }
  MatchIndexStats stats = xar.match_index().stats();
  EXPECT_GT(stats.counters.empty_searches, 0u);
}

}  // namespace
}  // namespace xar
