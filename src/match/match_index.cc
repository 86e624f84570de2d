#include "match/match_index.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace xar {

MatchIndex::MatchIndex(std::shared_ptr<const RegionSnapshot> snapshot,
                       const RoadGraph& graph)
    : snapshot_(snapshot),
      region_(snapshot->index.get()),
      graph_(&graph),
      lists_(region_->NumClusters()) {}

void MatchIndex::OnEpochSwap(std::shared_ptr<const RegionSnapshot> snapshot,
                             const RoadGraph& graph) {
  region_ = snapshot->index.get();
  graph_ = &graph;
  // Fresh containers, so the old epoch's list capacity is released.
  lists_ = std::vector<ClusterRideList>(region_->NumClusters());
  registrations_ = decltype(registrations_)();
  snapshot_.store(std::move(snapshot), std::memory_order_release);
}

StatsSection MatchStatsSection(const MatchIndexStats& stats) {
  StatsSection section;
  section.name = "match";
  section.AddRow(
      {StatsMetric::Gauge("registered_rides",
                          static_cast<double>(stats.registered_rides), 0),
       StatsMetric::Gauge("bytes", static_cast<double>(stats.bytes), 0),
       StatsMetric::Counter("inserts", stats.counters.inserts),
       StatsMetric::Counter("removes", stats.counters.removes),
       StatsMetric::Counter("updates", stats.counters.updates),
       StatsMetric::Counter("evictions", stats.counters.evictions),
       StatsMetric::Counter("searches", stats.counters.searches),
       StatsMetric::Counter("empty_searches", stats.counters.empty_searches),
       StatsMetric::Counter("candidates", stats.counters.candidates)});
  return section;
}

MatchCounters MatchIndex::counters() const {
  MatchCounters c;
  c.inserts = counters_.inserts.load(std::memory_order_relaxed);
  c.removes = counters_.removes.load(std::memory_order_relaxed);
  c.updates = counters_.updates.load(std::memory_order_relaxed);
  c.evictions = counters_.evictions.load(std::memory_order_relaxed);
  c.searches = counters_.searches.load(std::memory_order_relaxed);
  c.empty_searches = counters_.empty_searches.load(std::memory_order_relaxed);
  c.candidates = counters_.candidates.load(std::memory_order_relaxed);
  return c;
}

void MatchIndex::CountSearch(std::size_t returned) const {
  counters_.searches.fetch_add(1, std::memory_order_relaxed);
  if (returned == 0) {
    counters_.empty_searches.fetch_add(1, std::memory_order_relaxed);
  } else {
    counters_.candidates.fetch_add(returned, std::memory_order_relaxed);
  }
}

std::vector<PassThroughCluster> MatchIndex::ComputePassThroughs(
    const Ride& ride) const {
  std::vector<PassThroughCluster> out;
  if (ride.route.nodes.empty() || ride.via_points.size() < 2) return out;

  double budget = ride.RemainingDetourBudget();
  std::size_t m = region_->NumClusters();

  for (std::size_t seg = 0; seg + 1 < ride.via_points.size(); ++seg) {
    std::size_t begin = ride.via_route_index[seg];
    std::size_t end = ride.via_route_index[seg + 1];
    // Cluster of the segment's end via-point, for the detour triangle test.
    ClusterId next_cluster = region_->ClusterOfPoint(
        graph_->PositionOf(ride.via_points[seg + 1].node));

    ClusterId prev = ClusterId::Invalid();
    std::vector<bool> seen_in_segment(m, false);
    for (std::size_t j = begin; j <= end && j < ride.route.nodes.size(); ++j) {
      GridId grid =
          region_->GridOfPoint(graph_->PositionOf(ride.route.nodes[j]));
      ClusterId c = region_->ClusterOfGrid(grid);
      if (!c.valid() || c == prev) continue;
      prev = c;
      if (seen_in_segment[c.value()]) continue;
      seen_in_segment[c.value()] = true;

      PassThroughCluster pt;
      pt.cluster = c;
      pt.landmark = region_->LandmarkOfGrid(grid);
      pt.segment = seg;
      pt.eta_s = ride.departure_time_s + ride.route_cum_time_s[j];

      // Reachable clusters (paper Section VI): candidates within the detour
      // budget of C, kept iff the round-trip detour via C' does not exceed
      // the budget: d(C,C') + d(C',v_next) - d(C,v_next) <= d.
      for (std::size_t other = 0; other < m; ++other) {
        ClusterId cp(static_cast<ClusterId::underlying_type>(other));
        if (cp == c) continue;
        double d1 = region_->ClusterDistance(c, cp);
        if (d1 > budget) continue;
        double detour = d1;
        if (next_cluster.valid()) {
          double via = d1 + region_->ClusterDistance(cp, next_cluster) -
                       region_->ClusterDistance(c, next_cluster);
          detour = std::max(0.0, via);
        }
        if (detour > budget) continue;
        pt.reachable.push_back(cp);
        pt.reachable_detour_m.push_back(detour);
      }
      out.push_back(std::move(pt));
    }
  }
  return out;
}

std::unordered_map<ClusterId, MatchIndex::Support>
MatchIndex::AggregateSupports(const RideRegistration& reg) const {
  std::unordered_map<ClusterId, Support> agg;
  double speed = region_->nominal_speed_mps();
  auto offer = [&](ClusterId c, double eta, double detour) {
    auto [it, inserted] = agg.emplace(c, Support{eta, detour});
    if (!inserted) {
      it->second.eta_s = std::min(it->second.eta_s, eta);
      it->second.detour_m = std::min(it->second.detour_m, detour);
    }
  };
  for (const PassThroughCluster& pt : reg.pass_throughs) {
    if (pt.crossed) continue;
    offer(pt.cluster, pt.eta_s, 0.0);
    for (std::size_t i = 0; i < pt.reachable.size(); ++i) {
      double travel =
          region_->ClusterDistance(pt.cluster, pt.reachable[i]) / speed;
      offer(pt.reachable[i], pt.eta_s + travel, pt.reachable_detour_m[i]);
    }
  }
  return agg;
}

void MatchIndex::Register(const Ride& ride) {
  assert(registrations_.find(ride.id) == registrations_.end());
  RideRegistration reg;
  reg.pass_throughs = ComputePassThroughs(ride);

  std::unordered_map<ClusterId, Support> agg = AggregateSupports(reg);
  reg.registered_clusters.reserve(agg.size());
  for (const auto& [cluster, support] : agg) {
    lists_[cluster.value()].Upsert(ride.id, support.eta_s, support.detour_m);
    reg.registered_clusters.push_back(cluster);
  }
  std::sort(reg.registered_clusters.begin(), reg.registered_clusters.end());
  registrations_[ride.id] = std::move(reg);
}

void MatchIndex::Unregister(RideId ride) {
  auto it = registrations_.find(ride);
  if (it == registrations_.end()) return;
  for (ClusterId c : it->second.registered_clusters) {
    lists_[c.value()].Remove(ride);
  }
  registrations_.erase(it);
}

void MatchIndex::Insert(const Ride& ride) {
  Register(ride);
  counters_.inserts.fetch_add(1, std::memory_order_relaxed);
}

void MatchIndex::Remove(RideId ride) {
  Unregister(ride);
  counters_.removes.fetch_add(1, std::memory_order_relaxed);
}

void MatchIndex::Update(const Ride& ride) {
  Unregister(ride.id);
  Register(ride);
  counters_.updates.fetch_add(1, std::memory_order_relaxed);
}

std::size_t MatchIndex::Advance(const Ride& ride, double now_s) {
  auto it = registrations_.find(ride.id);
  if (it == registrations_.end()) return 0;
  RideRegistration& reg = it->second;

  // Step 1: mark newly crossed pass-throughs and collect the clusters they
  // were supporting (themselves + their reachable sets) as obsolete
  // candidates.
  std::vector<ClusterId> affected;
  bool any_crossed = false;
  for (PassThroughCluster& pt : reg.pass_throughs) {
    if (pt.crossed || pt.eta_s >= now_s) continue;
    pt.crossed = true;
    any_crossed = true;
    affected.push_back(pt.cluster);
    affected.insert(affected.end(), pt.reachable.begin(), pt.reachable.end());
  }
  if (!any_crossed) return 0;
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());

  // Step 2: a candidate stays only if some valid pass-through still reaches
  // it; otherwise the ride is evicted from that cluster's potential list.
  std::unordered_map<ClusterId, Support> agg = AggregateSupports(reg);
  std::size_t evicted = 0;
  std::vector<ClusterId> still_registered;
  still_registered.reserve(reg.registered_clusters.size());
  for (ClusterId c : reg.registered_clusters) {
    auto support = agg.find(c);
    if (support == agg.end()) {
      if (lists_[c.value()].Remove(ride.id)) ++evicted;
      continue;
    }
    still_registered.push_back(c);
    // Refresh ETA/detour if this cluster lost its best supporting
    // pass-through.
    if (std::binary_search(affected.begin(), affected.end(), c)) {
      lists_[c.value()].Upsert(ride.id, support->second.eta_s,
                               support->second.detour_m);
    }
  }
  reg.registered_clusters = std::move(still_registered);

  // Step 3 (remove crossed pass-throughs) is represented by the `crossed`
  // flag; physically erase them to keep the registration compact.
  std::erase_if(reg.pass_throughs,
                [](const PassThroughCluster& pt) { return pt.crossed; });
  if (evicted > 0) {
    counters_.evictions.fetch_add(evicted, std::memory_order_relaxed);
  }
  return evicted;
}

const RideRegistration* MatchIndex::RegistrationOf(RideId ride) const {
  auto it = registrations_.find(ride);
  return it == registrations_.end() ? nullptr : &it->second;
}

double MatchIndex::NextEventTime(RideId ride) const {
  const RideRegistration* reg = RegistrationOf(ride);
  double next = std::numeric_limits<double>::infinity();
  if (reg == nullptr) return next;
  for (const PassThroughCluster& pt : reg->pass_throughs) {
    if (!pt.crossed) next = std::min(next, pt.eta_s);
  }
  return next;
}

const PassThroughCluster* MatchIndex::BestSupport(RideId ride,
                                                 ClusterId cluster) const {
  const RideRegistration* reg = RegistrationOf(ride);
  if (reg == nullptr) return nullptr;
  // Pick the support with the smallest detour contribution (ETA breaks
  // ties) so that booking inserts where the search-time estimate assumed.
  const PassThroughCluster* best = nullptr;
  double best_detour = std::numeric_limits<double>::infinity();
  for (const PassThroughCluster& pt : reg->pass_throughs) {
    if (pt.crossed) continue;
    double detour = std::numeric_limits<double>::infinity();
    if (pt.cluster == cluster) {
      detour = 0.0;
    } else {
      auto it = std::find(pt.reachable.begin(), pt.reachable.end(), cluster);
      if (it != pt.reachable.end()) {
        detour = pt.reachable_detour_m[static_cast<std::size_t>(
            it - pt.reachable.begin())];
      }
    }
    if (detour == std::numeric_limits<double>::infinity()) continue;
    if (best == nullptr || detour < best_detour ||
        (detour == best_detour && pt.eta_s < best->eta_s)) {
      best = &pt;
      best_detour = detour;
    }
  }
  return best;
}

bool MatchIndex::ChooseInsertionSegments(const Ride& ride,
                                        ClusterId source_cluster,
                                        LandmarkId pickup_landmark,
                                        ClusterId dest_cluster,
                                        LandmarkId dropoff_landmark,
                                        std::size_t* seg_src,
                                        std::size_t* seg_dst,
                                        double* joint_estimate_m) const {
  const RideRegistration* reg = RegistrationOf(ride.id);
  if (reg == nullptr) return false;
  const DistanceMatrix& lm = region_->landmark_metric();

  auto supports = [](const PassThroughCluster& pt, ClusterId c) {
    return pt.cluster == c ||
           std::find(pt.reachable.begin(), pt.reachable.end(), c) !=
               pt.reachable.end();
  };
  // Landmark of the via-point ending segment `seg` (invalid when the
  // via-point's grid carries no landmark).
  auto via_landmark = [&](std::size_t seg) {
    return region_->LandmarkOfGrid(region_->GridOfPoint(
        graph_->PositionOf(ride.via_points[seg + 1].node)));
  };
  // Landmark-metric distance with a cluster-level fallback when either
  // landmark is unknown.
  auto dist = [&](LandmarkId a, LandmarkId b, ClusterId ca, ClusterId cb) {
    if (a.valid() && b.valid()) return lm.At(a.value(), b.value());
    if (ca.valid() && cb.valid()) return region_->ClusterDistance(ca, cb);
    return 0.0;
  };
  auto cluster_of = [&](LandmarkId l) {
    return l.valid() ? region_->ClusterOfLandmark(l) : ClusterId::Invalid();
  };

  double best = std::numeric_limits<double>::infinity();
  for (const PassThroughCluster& ps : reg->pass_throughs) {
    if (ps.crossed || !supports(ps, source_cluster)) continue;
    LandmarkId next_s = via_landmark(ps.segment);
    for (const PassThroughCluster& pd : reg->pass_throughs) {
      if (pd.crossed || pd.segment < ps.segment) continue;
      if (!supports(pd, dest_cluster)) continue;
      double est;
      if (ps.segment == pd.segment) {
        // Sequential same-segment insertion: at -> pickup -> dropoff -> next.
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

std::size_t MatchIndex::MemoryFootprint() const {
  std::size_t bytes = sizeof(*this);
  for (const ClusterRideList& list : lists_) bytes += list.MemoryFootprint();
  for (const auto& [id, reg] : registrations_) {
    bytes += sizeof(id) + sizeof(reg);
    for (const PassThroughCluster& pt : reg.pass_throughs) {
      bytes += sizeof(pt) + pt.reachable.capacity() * sizeof(ClusterId) +
               pt.reachable_detour_m.capacity() * sizeof(double);
    }
    bytes += reg.registered_clusters.capacity() * sizeof(ClusterId);
  }
  return bytes;
}

void MatchIndex::CollectSideCandidates(
    const RegionIndex& region, const LatLng& location, double walk_limit_m,
    double eta_begin, double eta_end, std::size_t per_ride,
    std::vector<std::pair<RideId, SideCandidate>>* out) const {
  GridId grid = region.GridOfPoint(location);
  // Walkable clusters are sorted by walking distance: scan the prefix within
  // the request's threshold (paper: linear traversal of the sorted list).
  for (const WalkableCluster& wc : region.WalkableClustersOf(grid)) {
    if (wc.walk_m > walk_limit_m) break;
    const ClusterRideList& list = ListOf(wc.cluster);
    for (const PotentialRide& pr : list.EtaRange(eta_begin, eta_end)) {
      out->emplace_back(pr.ride, SideCandidate{wc.walk_m, pr.eta_s,
                                               pr.detour_m, wc.cluster,
                                               wc.nearest_landmark});
    }
  }
  // Keep, per ride, the `per_ride` least-walk candidates (ties: earlier ETA)
  // with distinct landmarks — the list is small; sort + compact keeps it
  // allocation-light.
  std::sort(out->begin(), out->end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    if (a.second.walk_m != b.second.walk_m)
      return a.second.walk_m < b.second.walk_m;
    return a.second.eta_s < b.second.eta_s;
  });
  if (per_ride <= 1) {
    out->erase(std::unique(out->begin(), out->end(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first;
                           }),
               out->end());
    return;
  }
  // Meeting points: in-place compaction keeping up to per_ride entries per
  // ride. Kept entries of the current ride live in [run_begin, w), so the
  // distinct-landmark scan is O(per_ride) per entry.
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

std::vector<RideMatch> MatchIndex::Candidates(
    const RideRequest& request, const MatchTuning& tuning,
    const RideLookup& rides) const {
  const double walk_limit = tuning.walk_limit_m;
  const std::size_t per_ride = tuning.per_ride;

  // Pin the snapshot for the whole search: every region probe below resolves
  // against one epoch even if a refresh swaps the snapshot mid-flight.
  std::shared_ptr<const RegionSnapshot> pinned =
      snapshot_.load(std::memory_order_acquire);
  const RegionIndex& region = *pinned->index;

  // Step 1: candidate rides around the source, keyed by pickup-cluster ETA
  // inside the departure window.
  std::vector<std::pair<RideId, SideCandidate>> source_side;
  CollectSideCandidates(region, request.source, walk_limit,
                        request.earliest_departure_s -
                            tuning.eta_window_slack_s,
                        request.latest_departure_s + tuning.eta_window_slack_s,
                        per_ride, &source_side);

  // Step 2: candidate rides around the destination; the drop-off may happen
  // any time between the window start and the onboard bound.
  std::vector<std::pair<RideId, SideCandidate>> dest_side;
  CollectSideCandidates(region, request.destination, walk_limit,
                        request.earliest_departure_s,
                        request.latest_departure_s + tuning.max_onboard_s,
                        per_ride, &dest_side);

  // Intersection R' = R1 ∩ R2 on sorted ride ids, then the final walking &
  // detour threshold checks (paper Section VII). Both sides hold runs of up
  // to per_ride entries per ride (least-walk first); each feasible
  // cross-combination of a run pair is a distinct meeting-point match, at
  // most per_ride of them per ride.
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
    const Ride* ride = rides.Find(ride_id);
    std::size_t emitted = 0;
    if (ride != nullptr && ride->active &&
        ride->seats_available >= request.seats) {
      for (std::size_t ii = i; ii < i_end && emitted < per_ride; ++ii) {
        const SideCandidate& s = source_side[ii].second;
        for (std::size_t jj = j; jj < j_end && emitted < per_ride; ++jj) {
          const SideCandidate& d = dest_side[jj].second;
          // The ride must reach the pickup cluster before the drop-off
          // cluster, and they must differ (same-cluster trips are below
          // system resolution).
          if (s.cluster == d.cluster || s.eta_s > d.eta_s) continue;
          if (s.walk_m + d.walk_m > walk_limit) continue;
          // Combined detour check (paper Section VII, final step) with the
          // joint cluster-level estimate — pure index lookups, no shortest
          // paths.
          std::size_t seg_s = 0;
          std::size_t seg_d = 0;
          double joint_detour = 0.0;
          if (!ChooseInsertionSegments(*ride, s.cluster, s.landmark,
                                       d.cluster, d.landmark, &seg_s, &seg_d,
                                       &joint_detour)) {
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

  std::sort(matches.begin(), matches.end(),
            [](const RideMatch& a, const RideMatch& b) {
              if (a.TotalWalkM() != b.TotalWalkM())
                return a.TotalWalkM() < b.TotalWalkM();
              return a.ride < b.ride;
            });
  if (tuning.max_results > 0 && matches.size() > tuning.max_results)
    matches.resize(tuning.max_results);
  CountSearch(matches.size());
  return matches;
}

}  // namespace xar
