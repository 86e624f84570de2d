// Differential suite for the MatchIndex: the index replays TripGenerator
// workloads, every booking respects the paper's 4-epsilon detour guarantee,
// and Search is bit-equal to a reference reimplementation of the seed
// two-step search (paper Section VII), and with meeting points to a
// reference of the sort-and-compact search — including across a mid-replay
// RefreshDiscretization epoch swap.

#include "match/match_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/oracle.h"
#include "tests/test_helpers.h"
#include "workload/trip_generator.h"
#include "xar/concurrent_xar.h"
#include "xar/route_utils.h"
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
    if (a.second.eta_s != b.second.eta_s)
      return a.second.eta_s < b.second.eta_s;
    return a.second.cluster < b.second.cluster;
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
  ConcurrentXarSystem system(city.graph, *city.spatial, *city.region, oracle,
                             {}, /*num_shards=*/1);
  const XarSystem& xar = system.shard_system(0);

  Workload w = MakeWorkload(11);
  ASSERT_FALSE(w.offers.empty());
  for (const RideOffer& offer : w.offers) {
    ASSERT_TRUE(system.CreateRide(offer).ok());
  }

  std::size_t nonempty = 0;
  std::size_t booked = 0;
  for (std::size_t r = 0; r < w.requests.size(); ++r) {
    // Epoch swap mid-replay: the refreshed discretization re-homes every
    // live ride, and the index must keep tracking the seed search bit for
    // bit on the new epoch too.
    if (r == w.requests.size() / 2) {
      RefreshStats stats = system.RefreshDiscretization();
      EXPECT_EQ(stats.epoch, 1u);
      EXPECT_EQ(xar.epoch(), 1u);
    }
    const RideRequest& req = w.requests[r];
    SCOPED_TRACE(::testing::Message() << "request " << req.id.value());
    std::vector<RideMatch> got = system.Search(req);
    std::vector<RideMatch> ref = RefSearch(xar, req);
    ExpectBitEqual(ref, got);
    if (got.empty()) continue;
    ++nonempty;
    // Booking mutates ride state (seats, detour budget, index entries);
    // keep booking through the replay so the two paths are compared on
    // evolving state, not a static index.
    if (system.Book(got.front().ride, req, got.front()).ok()) ++booked;
  }
  EXPECT_GT(nonempty, 0u) << "workload produced no matches";
  EXPECT_GT(booked, 0u) << "workload produced no bookings";
}

// --- Bit-equality against the meeting-points search ------------------------

/// Reference joint insertion estimate: every segment-ordered pair of
/// pass-throughs that support the two clusters is scored on the landmark
/// metric, and the first strict minimum in (pickup, drop-off) pass-through
/// order wins.
bool RefChooseInsertionSegments(const MatchIndex& index,
                                const RegionIndex& region,
                                const RoadGraph& graph, const Ride& ride,
                                ClusterId source_cluster,
                                LandmarkId pickup_landmark,
                                ClusterId dest_cluster,
                                LandmarkId dropoff_landmark,
                                std::size_t* seg_src, std::size_t* seg_dst,
                                double* joint_estimate_m) {
  const RideRegistration* reg = index.RegistrationOf(ride.id);
  if (reg == nullptr) return false;
  const DistanceMatrix& lm = region.landmark_metric();
  auto supports = [](const PassThroughCluster& pt, ClusterId c) {
    return pt.cluster == c ||
           std::find(pt.reachable.begin(), pt.reachable.end(), c) !=
               pt.reachable.end();
  };
  auto via_landmark = [&](std::size_t seg) {
    return region.LandmarkOfGrid(
        region.GridOfPoint(graph.PositionOf(ride.via_points[seg + 1].node)));
  };
  auto dist = [&](LandmarkId a, LandmarkId b, ClusterId ca, ClusterId cb) {
    if (a.valid() && b.valid()) return lm.At(a.value(), b.value());
    if (ca.valid() && cb.valid()) return region.ClusterDistance(ca, cb);
    return 0.0;
  };
  auto cluster_of = [&](LandmarkId l) {
    return l.valid() ? region.ClusterOfLandmark(l) : ClusterId::Invalid();
  };

  double best = std::numeric_limits<double>::infinity();
  for (const PassThroughCluster& ps : reg->pass_throughs) {
    if (!supports(ps, source_cluster)) continue;
    LandmarkId next_s = via_landmark(ps.segment);
    for (const PassThroughCluster& pd : reg->pass_throughs) {
      if (pd.segment < ps.segment) continue;
      if (!supports(pd, dest_cluster)) continue;
      double est;
      if (ps.segment == pd.segment) {
        est = dist(ps.landmark, pickup_landmark, ps.cluster, source_cluster) +
              dist(pickup_landmark, dropoff_landmark, source_cluster,
                   dest_cluster);
        if (next_s.valid() || cluster_of(next_s).valid()) {
          est += dist(dropoff_landmark, next_s, dest_cluster,
                      cluster_of(next_s)) -
                 dist(ps.landmark, next_s, ps.cluster, cluster_of(next_s));
        }
        est = std::max(0.0, est);
      } else {
        LandmarkId next_d = via_landmark(pd.segment);
        double est_src =
            dist(ps.landmark, pickup_landmark, ps.cluster, source_cluster);
        if (next_s.valid()) {
          est_src = std::max(
              0.0, est_src +
                       dist(pickup_landmark, next_s, source_cluster,
                            cluster_of(next_s)) -
                       dist(ps.landmark, next_s, ps.cluster,
                            cluster_of(next_s)));
        }
        double est_dst =
            dist(pd.landmark, dropoff_landmark, pd.cluster, dest_cluster);
        if (next_d.valid()) {
          est_dst = std::max(
              0.0, est_dst +
                       dist(dropoff_landmark, next_d, dest_cluster,
                            cluster_of(next_d)) -
                       dist(pd.landmark, next_d, pd.cluster,
                            cluster_of(next_d)));
        }
        est = est_src + est_dst;
      }
      if (est < best) {
        best = est;
        *seg_src = ps.segment;
        *seg_dst = pd.segment;
      }
    }
  }
  if (best == std::numeric_limits<double>::infinity()) return false;
  *joint_estimate_m = best;
  return true;
}

/// Reference meeting-points gather: every (ride, walkable cluster) entry,
/// sorted by (ride, walk, eta, cluster), then compacted in place to at most
/// `per_ride` entries per ride with distinct landmarks.
void RefCollectSideMeetingPoints(
    const XarSystem& xar, const RegionIndex& region, const LatLng& location,
    double walk_limit_m, double eta_begin, double eta_end,
    std::size_t per_ride, std::vector<std::pair<RideId, RefSide>>* out) {
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
    if (a.second.eta_s != b.second.eta_s)
      return a.second.eta_s < b.second.eta_s;
    return a.second.cluster < b.second.cluster;
  });
  std::size_t w = 0;
  std::size_t run_begin = 0;
  std::size_t kept_in_run = 0;
  RideId current = RideId::Invalid();
  for (std::size_t r = 0; r < out->size(); ++r) {
    if (w == 0 || (*out)[r].first != current) {
      current = (*out)[r].first;
      run_begin = w;
      kept_in_run = 0;
    }
    if (kept_in_run >= per_ride) continue;
    bool duplicate_landmark = false;
    for (std::size_t p = run_begin; p < w; ++p) {
      if ((*out)[p].second.landmark == (*out)[r].second.landmark) {
        duplicate_landmark = true;
        break;
      }
    }
    if (duplicate_landmark) continue;
    (*out)[w++] = (*out)[r];
    ++kept_in_run;
  }
  out->resize(w);
}

/// Reference meeting-points search: both compacted sides merge-joined on
/// ride id; every feasible cross-combination of a ride's two runs is a
/// match, at most `per_ride` per ride, scored with the pairwise reference
/// estimate.
std::vector<RideMatch> RefSearchMeetingPoints(const XarSystem& xar,
                                              const RoadGraph& graph,
                                              const RideRequest& request) {
  const XarOptions& opt = xar.options();
  const std::size_t per_ride = opt.meeting_point_candidates;
  const double walk_limit = request.walk_limit_m >= 0
                                ? request.walk_limit_m
                                : opt.default_walk_limit_m;
  std::shared_ptr<const RegionSnapshot> pinned = xar.snapshot();
  const RegionIndex& region = *pinned->index;

  std::vector<std::pair<RideId, RefSide>> source_side;
  RefCollectSideMeetingPoints(
      xar, region, request.source, walk_limit,
      request.earliest_departure_s - opt.eta_window_slack_s,
      request.latest_departure_s + opt.eta_window_slack_s, per_ride,
      &source_side);
  std::vector<std::pair<RideId, RefSide>> dest_side;
  RefCollectSideMeetingPoints(xar, region, request.destination, walk_limit,
                              request.earliest_departure_s,
                              request.latest_departure_s + opt.max_onboard_s,
                              per_ride, &dest_side);

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
    std::size_t i_end = i;
    while (i_end < source_side.size() && source_side[i_end].first == ride_id)
      ++i_end;
    std::size_t j_end = j;
    while (j_end < dest_side.size() && dest_side[j_end].first == ride_id)
      ++j_end;
    const Ride* ride = xar.GetRide(ride_id);
    std::size_t emitted = 0;
    if (ride != nullptr && ride->active &&
        ride->seats_available >= request.seats) {
      for (std::size_t ii = i; ii < i_end && emitted < per_ride; ++ii) {
        const RefSide& s = source_side[ii].second;
        for (std::size_t jj = j; jj < j_end && emitted < per_ride; ++jj) {
          const RefSide& d = dest_side[jj].second;
          if (s.cluster == d.cluster || s.eta_s > d.eta_s) continue;
          if (s.walk_m + d.walk_m > walk_limit) continue;
          std::size_t seg_s = 0;
          std::size_t seg_d = 0;
          double joint_detour = 0.0;
          if (!RefChooseInsertionSegments(xar.match_index(), xar.region(),
                                          graph, *ride, s.cluster,
                                          s.landmark, d.cluster, d.landmark,
                                          &seg_s, &seg_d, &joint_detour)) {
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
          ++emitted;
        }
      }
    }
    i = i_end;
    j = j_end;
  }
  std::sort(matches.begin(), matches.end(), MatchRankLess);
  return matches;
}

TEST(MatchIndexDifferentialTest, MeetingPointsBitEqualToReferenceSearch) {
  testing::TestCity& city = testing::SharedCity();
  GraphOracle oracle(city.graph);
  XarOptions options;
  options.meeting_points = true;
  options.meeting_point_candidates = 3;
  ConcurrentXarSystem system(city.graph, *city.spatial, *city.region, oracle,
                             options, /*num_shards=*/1);
  const XarSystem& xar = system.shard_system(0);

  Workload w = MakeWorkload(11);
  for (const RideOffer& offer : w.offers) {
    ASSERT_TRUE(system.CreateRide(offer).ok());
  }

  std::size_t multi = 0;
  std::size_t booked = 0;
  for (std::size_t r = 0; r < w.requests.size(); ++r) {
    if (r == w.requests.size() / 2) {
      EXPECT_EQ(system.RefreshDiscretization().epoch, 1u);
    }
    const RideRequest& req = w.requests[r];
    SCOPED_TRACE(::testing::Message() << "request " << req.id.value());
    std::vector<RideMatch> got = system.Search(req);
    std::vector<RideMatch> ref = RefSearchMeetingPoints(xar, city.graph, req);
    ExpectBitEqual(ref, got);
    for (std::size_t k = 1; k < got.size(); ++k) {
      if (got[k].ride == got[k - 1].ride) ++multi;
    }
    // Book resolves the same segments the pairwise reference picks.
    for (const RideMatch& m : got) {
      const Ride* ride = xar.GetRide(m.ride);
      ASSERT_NE(ride, nullptr);
      std::size_t ref_s = 0, ref_d = 0, got_s = 0, got_d = 0;
      double ref_est = 0.0, got_est = 0.0;
      ASSERT_TRUE(RefChooseInsertionSegments(
          xar.match_index(), xar.region(), city.graph, *ride,
          m.source_cluster, m.pickup_landmark, m.dest_cluster,
          m.dropoff_landmark, &ref_s, &ref_d, &ref_est));
      ASSERT_TRUE(xar.match_index().ChooseInsertionSegments(
          *ride, m.source_cluster, m.pickup_landmark, m.dest_cluster,
          m.dropoff_landmark, &got_s, &got_d, &got_est));
      EXPECT_EQ(ref_s, got_s);
      EXPECT_EQ(ref_d, got_d);
      EXPECT_EQ(ref_est, got_est);
    }
    if (got.empty()) continue;
    if (system.Book(got.front().ride, req, got.front()).ok()) ++booked;
  }
  EXPECT_GT(multi, 0u) << "no ride produced two meeting-point matches";
  EXPECT_GT(booked, 0u) << "workload produced no bookings";
}

/// A registration with more than 64 pass-throughs spans several support
/// mask words; the joint chooser must still equal the pairwise reference on
/// every (pickup, drop-off) pair of clusters the ride is registered under,
/// with pass-throughs in the later words supporting them too.
TEST(MatchIndexDifferentialTest, WideSupportMaskMatchesPairwiseChooser) {
  testing::TestCity& city = testing::SharedCity();
  const RegionIndex& region = *city.region;
  GraphOracle oracle(city.graph);
  MatchIndex index(BorrowRegionSnapshot(region), city.graph);

  // A long zig-zag between opposite edges of the city: every leg crosses
  // it, so each via-point segment contributes a run of pass-throughs.
  const BoundingBox& b = city.graph.bounds();
  auto node_at = [&](double fy, double fx) {
    return city.spatial->NearestNode(
        {b.min_lat + fy * (b.max_lat - b.min_lat),
         b.min_lng + fx * (b.max_lng - b.min_lng)});
  };
  Ride ride;
  ride.id = RideId(0);
  ride.departure_time_s = 8 * 3600;
  ride.seats_total = ride.seats_available = 3;
  ride.detour_limit_m = 1500.0;
  std::vector<RouteStop> stops;
  constexpr int kLegs = 12;
  for (int v = 0; v <= kLegs; ++v) {
    const double fx = 0.05 + 0.9 * v / kLegs;
    stops.push_back({ViaPoint{node_at(v % 2 == 0 ? 0.05 : 0.95, fx), 0.0,
                              RequestId::Invalid(), false}});
  }
  std::optional<RouteRewrite> route =
      RewriteRoute(city.graph, oracle, ride, stops);
  ASSERT_TRUE(route.has_value());
  CommitRoute(std::move(*route), &ride);
  ride.source = ride.via_points.front().node;
  ride.destination = ride.via_points.back().node;

  index.Insert(ride, 0.0);
  const RideRegistration* reg = index.RegistrationOf(ride.id);
  ASSERT_NE(reg, nullptr);
  ASSERT_GT(reg->pass_throughs.size(), 64u);
  ASSERT_GT(reg->SupportWords(), 1u);
  ASSERT_EQ(reg->registered_support.size(),
            reg->registered_clusters.size() * reg->SupportWords());

  std::size_t agreed = 0;
  std::size_t high_word = 0;  // drop-offs supported past pass-through 63
  for (ClusterId source : reg->registered_clusters) {
    const LandmarkId pickup = region.LandmarksInCluster(source).front();
    for (ClusterId dest : reg->registered_clusters) {
      if (dest == source) continue;
      const LandmarkId dropoff = region.LandmarksInCluster(dest).front();
      std::size_t ref_s = 0, ref_d = 0, got_s = 0, got_d = 0;
      double ref_est = 0.0, got_est = 0.0;
      const bool ref_ok = RefChooseInsertionSegments(
          index, region, city.graph, ride, source, pickup, dest, dropoff,
          &ref_s, &ref_d, &ref_est);
      const bool got_ok = index.ChooseInsertionSegments(
          ride, source, pickup, dest, dropoff, &got_s, &got_d, &got_est);
      ASSERT_EQ(ref_ok, got_ok)
          << "clusters " << source.value() << " -> " << dest.value();
      if (!got_ok) continue;
      ASSERT_EQ(ref_s, got_s);
      ASSERT_EQ(ref_d, got_d);
      ASSERT_EQ(ref_est, got_est);
      ++agreed;
      if (got_d > reg->pass_throughs[63].segment) ++high_word;
    }
  }
  EXPECT_GT(agreed, 0u);
  EXPECT_GT(high_word, 0u);
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

  // Every booking re-derived its ride, and shifted or dropped entries.
  EXPECT_GE(stats.counters.updates, booked);
  EXPECT_GT(stats.counters.update_moved + stats.counters.update_left, 0u);

  // And renders into the registered "match" section shape.
  StatsSection section = MatchStatsSection(stats);
  EXPECT_EQ(section.name, "match");
  ASSERT_EQ(section.rows.size(), 1u);
  EXPECT_EQ(section.rows[0].front().name, "registered_rides");
  std::vector<std::string> names;
  for (const StatsMetric& metric : section.rows[0]) {
    names.push_back(metric.name);
  }
  EXPECT_EQ(std::vector<std::string>(names.end() - 4, names.end()),
            (std::vector<std::string>{"update_kept", "update_moved",
                                      "update_left", "update_entered"}));

  // A sharded system sums its shards' counters, the Update split too.
  MatchCounters twice = stats.counters;
  twice += stats.counters;
  EXPECT_EQ(twice.update_kept, 2 * stats.counters.update_kept);
  EXPECT_EQ(twice.update_moved, 2 * stats.counters.update_moved);
  EXPECT_EQ(twice.update_left, 2 * stats.counters.update_left);
  EXPECT_EQ(twice.update_entered, 2 * stats.counters.update_entered);
}

TEST(MatchIndexTest, SurvivesEpochSwapAndAdvance) {
  testing::TestCity& city = testing::SharedCity();
  GraphOracle oracle(city.graph);
  ConcurrentXarSystem system(city.graph, *city.spatial, *city.region, oracle,
                             {}, /*num_shards=*/1);
  const XarSystem& xar = system.shard_system(0);

  Workload w = MakeWorkload(5, /*num_trips=*/120);
  for (const RideOffer& offer : w.offers) {
    ASSERT_TRUE(system.CreateRide(offer).ok());
  }
  std::size_t before = 0;
  for (const RideRequest& req : w.requests) {
    before += system.Search(req).size();
  }
  EXPECT_GT(before, 0u);

  // Refresh rebinds the index to the new snapshot and re-homes rides; the
  // same requests must still match (same graph, same discretization input).
  system.RefreshDiscretization();
  std::size_t after = 0;
  for (const RideRequest& req : w.requests) {
    after += system.Search(req).size();
  }
  EXPECT_EQ(before, after);

  // Tracking: advancing past the whole day retires every ride and empties
  // the index.
  system.AdvanceTime(48 * 3600.0);
  EXPECT_EQ(system.NumActiveRides(), 0u);
  EXPECT_EQ(xar.match_index().NumRegisteredRides(), 0u);
  for (const RideRequest& req : w.requests) {
    EXPECT_TRUE(system.Search(req).empty());
  }
  MatchIndexStats stats = xar.match_index().stats();
  EXPECT_GT(stats.counters.empty_searches, 0u);
}

}  // namespace
}  // namespace xar
