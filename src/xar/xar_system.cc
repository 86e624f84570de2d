#include "xar/xar_system.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <unordered_map>
#include <utility>

#include "match/cluster_match_index.h"
#include "schedule/ride_schedule.h"
#include "xar/route_utils.h"

namespace xar {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

XarSystem::XarSystem(const RoadGraph& graph, const SpatialNodeIndex& spatial,
                     const RegionIndex& region, DistanceOracle& oracle,
                     XarOptions options)
    : XarSystem(graph, spatial, BorrowRegionSnapshot(region), oracle,
                options) {}

XarSystem::XarSystem(const RoadGraph& graph, const SpatialNodeIndex& spatial,
                     std::shared_ptr<const RegionSnapshot> snapshot,
                     DistanceOracle& oracle, XarOptions options)
    : graph_(&graph),
      spatial_(spatial),
      snapshot_(snapshot),
      oracle_(&oracle),
      options_(options),
      index_(MakeMatchIndex(options.match_index, snapshot, graph,
                            options.match_index_options)) {
  if (options_.ride_id_stride == 0) options_.ride_id_stride = 1;
  refresh_stats_.epoch = snapshot->epoch;
}

const RideIndex& XarSystem::ride_index() const {
  assert(index_->kind() == MatchIndexKind::kCluster);
  return static_cast<const ClusterMatchIndex&>(*index_).impl();
}

RefreshStats XarSystem::RefreshDiscretization(const GraphDelta& delta) {
  Stopwatch timer;
  std::shared_ptr<const RegionSnapshot> current =
      snapshot_.load(std::memory_order_acquire);
  const RoadGraph& build_graph =
      delta.graph != nullptr ? *delta.graph : *graph_;
  const DiscretizationOptions& build_options =
      delta.options.has_value() ? *delta.options : current->index->options();
  // Ready the incoming oracle's backend preprocessing (per-metric
  // hierarchies) first, inheriting what the current oracle's still holds:
  // the snapshot rebuild below batches its landmark metric on that backend,
  // and the swap installs a ready oracle so no post-refresh query pays the
  // build.
  Stopwatch prewarm_timer;
  if (delta.oracle != nullptr) PrewarmFrom(*delta.oracle, *oracle_);
  refresh_stats_.last_prewarm_ms = prewarm_timer.ElapsedMillis();
  // The incoming oracle routes over the incoming graph, so its backend can
  // batch the landmark rows; a delta without an oracle keeps the internal
  // Dijkstra build (the current oracle may still route the old weights).
  RoutingBackend* matrix_backend =
      delta.oracle != nullptr ? delta.oracle->mutable_routing_backend()
                              : nullptr;
  std::shared_ptr<const RegionSnapshot> next =
      BuildRegionSnapshot(build_graph, spatial_, build_options,
                          current->epoch + 1, matrix_backend);
  refresh_stats_.last_matrix_ms = next->index->landmark_metric().build_millis();
  AdoptSnapshot(std::move(next), delta.graph, delta.oracle);
  refresh_stats_.last_rebuild_ms = timer.ElapsedMillis();
  return refresh_stats_;
}

std::size_t XarSystem::AdoptSnapshot(
    std::shared_ptr<const RegionSnapshot> next, const RoadGraph* new_graph,
    DistanceOracle* new_oracle) {
  const bool graph_changed = new_graph != nullptr && new_graph != graph_;
  const bool metric_changed =
      graph_changed || (new_oracle != nullptr && new_oracle != oracle_);
  if (graph_changed) graph_ = new_graph;
  if (new_oracle != nullptr) oracle_ = new_oracle;

  // Re-home every live ride into the index rebound to the new region
  // (OnEpochSwap drops all registrations). Crossed associations are not
  // resurrected: registration recomputes them from the route, then
  // Advance(now) retires the already-passed ones — the same end state
  // incremental tracking maintains.
  index_->OnEpochSwap(next, *graph_);
  const double now = clock_.Now();
  std::size_t rehomed = 0;
  for (Ride& ride : rides_) {
    if (!ride.active) continue;
    RideSchedule* sched = schedules_[LocalIndex(ride.id)].get();
    bool replanned = false;
    if (sched != nullptr && metric_changed) {
      // Re-home the persistent schedule onto the new metric: every subtree
      // re-priced, then the route rebuilt from the re-priced best plan.
      // Riders whose deadlines the new metric breaks stay aboard with
      // relaxed deadlines — a booked rider is a commitment.
      pooling_counters_.relaxed_riders += sched->Reprice(*oracle_);
      pooling_counters_.reprices += 1;
      replanned =
          ApplyKineticPlan(ride, *sched, /*enforce_budget=*/false, nullptr)
              .ok();
    }
    if (!replanned && graph_changed) {
      // Same nodes, new weights: re-profile the existing route so index ETAs
      // and detour accounting reflect the new travel times.
      BuildCumulativeProfiles(*graph_, ride.route.nodes,
                              &ride.route_cum_time_s, &ride.route_cum_dist_m);
      ride.route.length_m = ride.route_cum_dist_m.back();
      ride.route.time_s = ride.route_cum_time_s.back();
      for (std::size_t v = 0; v < ride.via_points.size(); ++v) {
        ride.via_points[v].eta_s =
            ride.departure_time_s +
            ride.route_cum_time_s[ride.via_route_index[v]];
      }
    }
    index_->Insert(ride);
    index_->Advance(ride, now);
    ++rehomed;
  }

  const std::uint64_t epoch = next->epoch;
  snapshot_.store(std::move(next), std::memory_order_release);
  // Old event-queue entries stay (validated on pop); re-seed so re-homed
  // rides keep waking up under the new index's event times.
  for (const Ride& ride : rides_) {
    if (ride.active) ScheduleNextEvent(ride);
  }

  refresh_stats_.epoch = epoch;
  refresh_stats_.refreshes += 1;
  refresh_stats_.last_rides_rehomed = rehomed;
  refresh_stats_.total_rides_rehomed += rehomed;
  return rehomed;
}

Result<RideId> XarSystem::CreateRide(const RideOffer& offer) {
  NodeId src = spatial_.NearestNode(offer.source);
  NodeId dst = spatial_.NearestNode(offer.destination);
  if (src == dst) {
    return Status::InvalidArgument("ride source and destination coincide");
  }
  Path route = oracle_->DriveRoute(src, dst);
  if (!route.Found()) {
    return Status::NotFound("no drivable route between offer endpoints");
  }

  Ride ride;
  ride.id = RideId(options_.ride_id_offset +
                   static_cast<RideId::underlying_type>(rides_.size()) *
                       options_.ride_id_stride);
  ride.source = src;
  ride.destination = dst;
  ride.departure_time_s = offer.departure_time_s;
  ride.seats_total =
      offer.seats >= 0 ? offer.seats : options_.default_seats;
  ride.seats_available = ride.seats_total;
  ride.detour_limit_m = offer.detour_limit_m >= 0
                            ? offer.detour_limit_m
                            : options_.default_detour_limit_m;
  ride.route = std::move(route);
  BuildCumulativeProfiles(*graph_, ride.route.nodes, &ride.route_cum_time_s,
                          &ride.route_cum_dist_m);

  ViaPoint start{src, offer.departure_time_s, RequestId::Invalid(), false};
  ViaPoint end{dst, offer.departure_time_s + ride.route_cum_time_s.back(),
               RequestId::Invalid(), false};
  ride.via_points = {start, end};
  ride.via_route_index = {0, ride.route.nodes.size() - 1};

  rides_.push_back(std::move(ride));
  schedules_.push_back(nullptr);  // materialized on first kinetic booking
  ++active_rides_;
  const Ride& stored = rides_.back();
  index_->Insert(stored);
  ScheduleNextEvent(stored);
  return stored.id;
}

std::vector<RideMatch> XarSystem::Search(const RideRequest& request) const {
  return SearchTopK(request, options_.max_results);
}

std::vector<RideMatch> XarSystem::SearchTopK(const RideRequest& request,
                                             std::size_t k) const {
  // Resolve every option the backend needs, then delegate: the two-step
  // cluster search (paper Section VII) or the spatio-temporal hash probe
  // both run entirely inside the MatchIndex (src/match/).
  MatchTuning tuning;
  tuning.walk_limit_m = request.walk_limit_m >= 0
                            ? request.walk_limit_m
                            : options_.default_walk_limit_m;
  tuning.eta_window_slack_s = options_.eta_window_slack_s;
  tuning.max_onboard_s = options_.max_onboard_s;
  // Meeting points (XarOptions::meeting_points): keep several candidate
  // landmarks per ride and side instead of only the least-walk one. 1 is
  // the classic scenario and reproduces it exactly.
  tuning.per_ride =
      options_.meeting_points
          ? std::max<std::size_t>(1, options_.meeting_point_candidates)
          : 1;
  tuning.max_results = k;
  return index_->Candidates(request, tuning, RideTable(this));
}

Result<BookingRecord> XarSystem::Book(RideId ride_id,
                                      const RideRequest& request,
                                      const RideMatch& match) {
  if (!OwnsRide(ride_id)) {
    return Status::NotFound("unknown ride");
  }
  // Epoch revalidation: the match's cluster/landmark ids were minted by the
  // epoch it was searched on and are meaningless against a refreshed region.
  std::shared_ptr<const RegionSnapshot> pinned =
      snapshot_.load(std::memory_order_acquire);
  if (match.epoch != pinned->epoch) {
    return Status::FailedPrecondition(
        "match is stale: discretization epoch changed");
  }
  Ride& ride = MutableRide(ride_id);
  if (!ride.active) return Status::FailedPrecondition("ride already finished");
  if (ride.seats_available < request.seats) {
    return Status::ResourceExhausted("no seats left on ride");
  }

  // Locate the insertion segments from the index's support records — this
  // uses only precomputed cluster information, no shortest paths. The pair
  // is chosen jointly so that same-segment insertions price the full
  // src->dst traversal.
  std::size_t s = 0;
  std::size_t d = 0;
  double joint_estimate = 0.0;
  if (!index_->ChooseInsertionSegments(ride, match.source_cluster,
                                       match.pickup_landmark,
                                       match.dest_cluster,
                                       match.dropoff_landmark, &s, &d,
                                       &joint_estimate)) {
    return Status::FailedPrecondition("match is stale: cluster support gone");
  }
  // Re-check the budget under the current ride state. The search-time check
  // can be stale by the time an optimistic concurrent booking lands here.
  if (joint_estimate > ride.RemainingDetourBudget()) {
    return Status::FailedPrecondition("match is stale: detour budget spent");
  }

  NodeId pickup = pinned->index->GetLandmark(match.pickup_landmark).node;
  NodeId dropoff = pinned->index->GetLandmark(match.dropoff_landmark).node;

  if (options_.kinetic_booking) {
    // Persistent schedules accept riders onto in-progress rides too: the
    // tree is rooted at the last stop the vehicle passed.
    return BookKinetic(ride, request, match, pickup, dropoff);
  }

  double old_length = ride.route_cum_dist_m.back();
  double budget_before = ride.RemainingDetourBudget();

  // Splice the route (paper Section VIII-B): the only shortest-path
  // computations of the booking path, at most four.
  std::size_t sp_count = 0;
  auto sp = [&](NodeId a, NodeId b) -> Path {
    ++sp_count;
    return oracle_->DriveRoute(a, b);
  };

  std::vector<NodeId> new_nodes;
  std::vector<ViaPoint> new_vias;
  std::vector<std::size_t> new_via_idx;

  auto copy_route_span = [&](std::size_t from_idx, std::size_t to_idx) {
    for (std::size_t r = from_idx; r <= to_idx; ++r) {
      if (!new_nodes.empty() && new_nodes.back() == ride.route.nodes[r])
        continue;
      new_nodes.push_back(ride.route.nodes[r]);
    }
  };

  ViaPoint pickup_via{pickup, 0.0, request.id, true};
  ViaPoint dropoff_via{dropoff, 0.0, request.id, false};

  bool ok = true;
  auto splice_leg = [&](NodeId from, NodeId to) {
    if (from == to) return;  // nothing to add
    Path leg = sp(from, to);
    if (!leg.Found()) {
      ok = false;
      return;
    }
    AppendPathNodes(&new_nodes, leg.nodes);
  };

  if (s == d) {
    // v_s -> pickup -> dropoff -> v_{s+1}; 3 shortest paths.
    copy_route_span(0, ride.via_route_index[s]);
    // Via list: all vias up to s (prefix indices unchanged), then pickup and
    // dropoff, then the rest.
    for (std::size_t v = 0; v <= s; ++v) {
      new_vias.push_back(ride.via_points[v]);
      new_via_idx.push_back(ride.via_route_index[v]);
    }
    splice_leg(ride.via_points[s].node, pickup);
    new_vias.push_back(pickup_via);
    new_via_idx.push_back(new_nodes.size() - 1);
    splice_leg(pickup, dropoff);
    new_vias.push_back(dropoff_via);
    new_via_idx.push_back(new_nodes.size() - 1);
    splice_leg(dropoff, ride.via_points[s + 1].node);
    std::size_t resume = new_nodes.size() - 1;
    copy_route_span(ride.via_route_index[s + 1], ride.route.nodes.size() - 1);
    for (std::size_t v = s + 1; v < ride.via_points.size(); ++v) {
      new_vias.push_back(ride.via_points[v]);
      new_via_idx.push_back(resume + (ride.via_route_index[v] -
                                      ride.via_route_index[s + 1]));
    }
  } else {
    // v_s -> pickup -> v_{s+1} ... v_d -> dropoff -> v_{d+1}; 4 paths.
    for (std::size_t v = 0; v <= s; ++v) {
      new_vias.push_back(ride.via_points[v]);
    }
    copy_route_span(0, ride.via_route_index[s]);
    for (std::size_t v = 0; v <= s; ++v) {
      new_via_idx.push_back(ride.via_route_index[v]);
    }
    splice_leg(ride.via_points[s].node, pickup);
    new_vias.push_back(pickup_via);
    new_via_idx.push_back(new_nodes.size() - 1);
    splice_leg(pickup, ride.via_points[s + 1].node);

    // Middle untouched portion: vias s+1 .. d, route up to via d.
    std::size_t anchor = new_nodes.size() - 1;
    copy_route_span(ride.via_route_index[s + 1], ride.via_route_index[d]);
    for (std::size_t v = s + 1; v <= d; ++v) {
      new_vias.push_back(ride.via_points[v]);
      new_via_idx.push_back(anchor + (ride.via_route_index[v] -
                                      ride.via_route_index[s + 1]));
    }
    splice_leg(ride.via_points[d].node, dropoff);
    new_vias.push_back(dropoff_via);
    new_via_idx.push_back(new_nodes.size() - 1);
    splice_leg(dropoff, ride.via_points[d + 1].node);

    std::size_t resume = new_nodes.size() - 1;
    copy_route_span(ride.via_route_index[d + 1], ride.route.nodes.size() - 1);
    for (std::size_t v = d + 1; v < ride.via_points.size(); ++v) {
      new_vias.push_back(ride.via_points[v]);
      new_via_idx.push_back(resume + (ride.via_route_index[v] -
                                      ride.via_route_index[d + 1]));
    }
  }

  if (!ok) {
    return Status::Internal("booking splice found an unreachable leg");
  }
  assert(sp_count <= 4);

  // Commit the new shape.
  ride.route.nodes = std::move(new_nodes);
  BuildCumulativeProfiles(*graph_, ride.route.nodes, &ride.route_cum_time_s,
                          &ride.route_cum_dist_m);
  ride.route.length_m = ride.route_cum_dist_m.back();
  ride.route.time_s = ride.route_cum_time_s.back();
  ride.via_points = std::move(new_vias);
  ride.via_route_index = std::move(new_via_idx);
  for (std::size_t v = 0; v < ride.via_points.size(); ++v) {
    ride.via_points[v].eta_s =
        ride.departure_time_s + ride.route_cum_time_s[ride.via_route_index[v]];
  }

  double actual_detour = ride.route_cum_dist_m.back() - old_length;
  ride.detour_used_m += std::max(0.0, actual_detour);
  ride.seats_available -= request.seats;

  index_->Update(ride);
  index_->Advance(ride, clock_.Now());  // do not resurrect passed clusters
  ScheduleNextEvent(ride);

  BookingRecord record;
  record.request = request.id;
  record.ride = ride_id;
  record.seats = request.seats;
  record.pickup_node = pickup;
  record.dropoff_node = dropoff;
  record.actual_detour_m = std::max(0.0, actual_detour);
  record.estimated_detour_m = match.detour_estimate_m;
  record.budget_before_m = budget_before;
  record.walk_m = match.TotalWalkM();
  record.shortest_path_computations = sp_count;
  for (const ViaPoint& vp : ride.via_points) {
    if (vp.request == request.id) {
      (vp.is_pickup ? record.pickup_eta_s : record.dropoff_eta_s) = vp.eta_s;
    }
  }
  bookings_.push_back(record);
  return record;
}

Result<BookingRecord> XarSystem::SearchAndBook(const RideRequest& request) {
  for (const RideMatch& match : Search(request)) {
    Result<BookingRecord> booked = Book(match.ride, request, match);
    if (booked.ok()) return booked;
  }
  return Status::NotFound("no bookable ride for request");
}

RideSchedule* XarSystem::EnsureKineticSchedule(Ride& ride) {
  std::unique_ptr<RideSchedule>& slot = schedules_[LocalIndex(ride.id)];
  if (slot != nullptr) return slot.get();

  // Materialize from the via list. Root: the last via-point the vehicle
  // already passed (in-progress ride), or the source at departure. Via ETAs
  // are non-decreasing along the route, so the scan can stop at the first
  // future one.
  const double now = clock_.Now();
  NodeId root = ride.source;
  double root_time = ride.departure_time_s;
  for (const ViaPoint& vp : ride.via_points) {
    if (vp.eta_s > now) break;
    root = vp.node;
    root_time = vp.eta_s;
  }

  auto sched = std::make_unique<RideSchedule>(root, root_time,
                                              ride.seats_total, *oracle_);
  std::unordered_map<RequestId::underlying_type, const ViaPoint*> drops;
  drops.reserve(ride.via_points.size() / 2 + 1);
  for (const ViaPoint& vp : ride.via_points) {
    if (vp.request.valid() && !vp.is_pickup) drops[vp.request.value()] = &vp;
  }
  for (const ViaPoint& vp : ride.via_points) {
    if (!vp.request.valid() || !vp.is_pickup) continue;
    auto drop = drops.find(vp.request.value());
    if (drop == drops.end()) return nullptr;  // pickup without drop-off
    if (drop->second->eta_s <= now) continue;  // rider fully served
    // Pre-existing riders carry no recorded deadline (their booking predates
    // the schedule); seed them unconstrained — the current via order is the
    // feasibility witness for the build.
    ScheduleStop p{vp.node, vp.request, true, kInf};
    ScheduleStop d{drop->second->node, vp.request, false, kInf};
    if (vp.eta_s <= now) {
      sched->SeedOnboardRider(p, d);
    } else {
      sched->SeedPendingRider(p, d);
    }
  }
  if (!sched->FinishSeeding()) return nullptr;
  slot = std::move(sched);
  return slot.get();
}

Status XarSystem::ApplyKineticPlan(Ride& ride, const RideSchedule& schedule,
                                   bool enforce_budget,
                                   std::size_t* sp_count) {
  // Node order: source, committed stops (already passed — re-threaded so the
  // profile spans the whole ride), remaining stops best-first, destination.
  Schedule best = schedule.Best();
  std::vector<ScheduleStop> stops(schedule.committed());
  stops.insert(stops.end(), best.stops.begin(), best.stops.end());

  std::vector<NodeId> order = {ride.source};
  for (const ScheduleStop& stop : stops) order.push_back(stop.node);
  order.push_back(ride.destination);

  std::size_t legs = 0;
  std::vector<NodeId> new_nodes = {order.front()};
  std::vector<std::size_t> stop_route_idx = {0};
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (order[i] != new_nodes.back()) {
      ++legs;
      Path leg = oracle_->DriveRoute(new_nodes.back(), order[i]);
      if (!leg.Found()) {
        return Status::Internal("kinetic re-route found an unreachable leg");
      }
      AppendPathNodes(&new_nodes, leg.nodes);
    }
    stop_route_idx.push_back(new_nodes.size() - 1);
  }

  // Exact budget check before anything is committed. Detour accounting is
  // global on the kinetic path: everything beyond the driver's own shortest
  // path is shared detour (which forfeits the splice path's 4ε bound — see
  // DESIGN.md §14).
  std::vector<double> cum_time, cum_dist;
  BuildCumulativeProfiles(*graph_, new_nodes, &cum_time, &cum_dist);
  double base_length = oracle_->DriveDistance(ride.source, ride.destination);
  double detour_used = std::max(0.0, cum_dist.back() - base_length);
  if (enforce_budget && detour_used > ride.detour_limit_m) {
    return Status::FailedPrecondition("kinetic detour exceeds driver budget");
  }

  ride.route.nodes = std::move(new_nodes);
  ride.route_cum_time_s = std::move(cum_time);
  ride.route_cum_dist_m = std::move(cum_dist);
  ride.route.length_m = ride.route_cum_dist_m.back();
  ride.route.time_s = ride.route_cum_time_s.back();

  std::vector<ViaPoint> vias;
  std::vector<std::size_t> via_idx;
  vias.push_back(ViaPoint{ride.source, ride.departure_time_s,
                          RequestId::Invalid(), false});
  via_idx.push_back(0);
  for (std::size_t i = 0; i < stops.size(); ++i) {
    vias.push_back(
        ViaPoint{stops[i].node, 0.0, stops[i].request, stops[i].is_pickup});
    via_idx.push_back(stop_route_idx[i + 1]);
  }
  vias.push_back(ViaPoint{ride.destination, 0.0, RequestId::Invalid(), false});
  via_idx.push_back(ride.route.nodes.size() - 1);
  ride.via_points = std::move(vias);
  ride.via_route_index = std::move(via_idx);
  for (std::size_t v = 0; v < ride.via_points.size(); ++v) {
    ride.via_points[v].eta_s =
        ride.departure_time_s + ride.route_cum_time_s[ride.via_route_index[v]];
  }
  ride.detour_used_m = detour_used;
  if (sp_count != nullptr) *sp_count = legs;
  return Status::OK();
}

Result<BookingRecord> XarSystem::BookKinetic(Ride& ride,
                                             const RideRequest& request,
                                             const RideMatch& match,
                                             NodeId pickup, NodeId dropoff) {
  RideSchedule* sched = EnsureKineticSchedule(ride);
  if (sched == nullptr) {
    return Status::Internal(
        "malformed via-point list: pickup without drop-off");
  }
  // Commit any stop the vehicle already passed before grafting the new
  // rider: an insertion must never reorder history.
  pooling_counters_.advanced_stops += sched->AdvanceTo(clock_.Now());

  // The rider's detour budget, as deadlines: picked up within the ETA slack
  // of their departure window (mirroring the search-side feasibility check)
  // and dropped off within the onboard cap after that.
  double pickup_deadline =
      std::max(request.latest_departure_s, match.eta_source_s) +
      options_.eta_window_slack_s;
  double dropoff_deadline = pickup_deadline + options_.max_onboard_s;
  ScheduleStop p{pickup, request.id, true, pickup_deadline};
  ScheduleStop d{dropoff, request.id, false, dropoff_deadline};
  if (!sched->Insert(p, d)) {
    pooling_counters_.rejections += 1;
    return Status::NotFound("no feasible stop ordering for this rider");
  }

  double budget_before = ride.RemainingDetourBudget();
  double old_total = ride.route_cum_dist_m.back();
  std::size_t sp_count = 0;
  Status applied =
      ApplyKineticPlan(ride, *sched, /*enforce_budget=*/true, &sp_count);
  if (!applied.ok()) {
    // Roll the tree back. Remove regrafts by replaying the other riders,
    // which reproduces the pre-insert tree exactly (insertion keeps all
    // feasible orderings), so a failed booking leaves no trace.
    sched->Remove(request.id);
    pooling_counters_.rejections += 1;
    return applied;
  }
  pooling_counters_.insertions += 1;
  pooling_counters_.max_pooled_riders =
      std::max(pooling_counters_.max_pooled_riders, sched->ActiveRiders());
  ride.seats_available -= request.seats;

  index_->Update(ride);
  index_->Advance(ride, clock_.Now());
  ScheduleNextEvent(ride);

  BookingRecord record;
  record.request = request.id;
  record.ride = ride.id;
  record.seats = request.seats;
  record.pickup_node = pickup;
  record.dropoff_node = dropoff;
  record.actual_detour_m = std::max(0.0, ride.route.length_m - old_total);
  record.estimated_detour_m = match.detour_estimate_m;
  record.budget_before_m = budget_before;
  record.walk_m = match.TotalWalkM();
  record.shortest_path_computations = sp_count;
  for (const ViaPoint& vp : ride.via_points) {
    if (vp.request == request.id) {
      (vp.is_pickup ? record.pickup_eta_s : record.dropoff_eta_s) = vp.eta_s;
    }
  }
  bookings_.push_back(record);
  return record;
}

Status XarSystem::CancelBooking(RideId ride_id, RequestId request) {
  return RemoveRider(ride_id, request, /*allow_passed_pickup=*/false);
}

Status XarSystem::ReportNoShow(RideId ride_id, RequestId request) {
  return RemoveRider(ride_id, request, /*allow_passed_pickup=*/true);
}

Status XarSystem::RemoveRider(RideId ride_id, RequestId request,
                              bool allow_passed_pickup) {
  if (!OwnsRide(ride_id)) {
    return Status::NotFound("unknown ride");
  }
  Ride& ride = MutableRide(ride_id);
  if (!ride.active) {
    return Status::FailedPrecondition("ride already finished");
  }
  // Locate the rider's via-points.
  std::size_t pickup_idx = ride.via_points.size();
  std::size_t dropoff_idx = ride.via_points.size();
  for (std::size_t v = 0; v < ride.via_points.size(); ++v) {
    if (ride.via_points[v].request != request) continue;
    if (ride.via_points[v].is_pickup) {
      pickup_idx = v;
    } else {
      dropoff_idx = v;
    }
  }
  if (pickup_idx == ride.via_points.size()) {
    return Status::NotFound("no such booking on this ride");
  }
  if (!allow_passed_pickup &&
      ride.via_points[pickup_idx].eta_s <= clock_.Now()) {
    return Status::FailedPrecondition("rider already picked up");
  }
  // A no-show is reportable any time up to the drop-off; past that the
  // booking has already run its course and there is nothing to unwind.
  if (dropoff_idx != ride.via_points.size() &&
      ride.via_points[dropoff_idx].eta_s <= clock_.Now()) {
    return Status::FailedPrecondition("booking already completed");
  }

  // The booking record is the seat ledger; resolve it before touching
  // anything. A scheduled rider without a record is corrupted state — the
  // old code silently refunded one seat here, which broke the seat
  // accounting whenever the true booking held more.
  auto record = std::find_if(bookings_.begin(), bookings_.end(),
                             [&](const BookingRecord& b) {
                               return b.ride == ride_id &&
                                      b.request == request;
                             });
  if (record == bookings_.end()) {
    return Status::Internal("booking record missing for scheduled rider");
  }
  const int seats = record->seats;

  RideSchedule* sched = schedules_[LocalIndex(ride_id)].get();
  if (sched != nullptr) {
    // Persistent-kinetic unwinding: prune history first, drop the rider
    // from the live tree (the regraft replays the surviving riders, keeping
    // all their feasible orderings), then rebuild the route from the
    // surviving plan. Budget is not enforced — shedding a rider never
    // strands the others.
    pooling_counters_.advanced_stops += sched->AdvanceTo(clock_.Now());
    if (!sched->Remove(request)) {
      return Status::Internal("rider missing from kinetic schedule");
    }
    Status applied =
        ApplyKineticPlan(ride, *sched, /*enforce_budget=*/false, nullptr);
    if (!applied.ok()) return applied;
    pooling_counters_.removals += 1;
  } else {
    // Splice-path unwinding: remaining via-points, in order, without this
    // rider's pair.
    std::vector<ViaPoint> kept;
    for (const ViaPoint& vp : ride.via_points) {
      if (vp.request != request) kept.push_back(vp);
    }

    // Re-route through the kept via-points (back-end shortest paths).
    std::vector<NodeId> new_nodes;
    std::vector<std::size_t> new_via_idx;
    for (std::size_t v = 0; v < kept.size(); ++v) {
      if (v == 0) {
        new_nodes.push_back(kept[0].node);
      } else if (kept[v].node != new_nodes.back()) {
        Path leg = oracle_->DriveRoute(new_nodes.back(), kept[v].node);
        if (!leg.Found()) {
          return Status::Internal("cancellation re-route failed");
        }
        AppendPathNodes(&new_nodes, leg.nodes);
      }
      new_via_idx.push_back(new_nodes.size() - 1);
    }

    double old_length = ride.route_cum_dist_m.back();
    ride.route.nodes = std::move(new_nodes);
    BuildCumulativeProfiles(*graph_, ride.route.nodes, &ride.route_cum_time_s,
                            &ride.route_cum_dist_m);
    ride.route.length_m = ride.route_cum_dist_m.back();
    ride.route.time_s = ride.route_cum_time_s.back();
    ride.via_points = std::move(kept);
    ride.via_route_index = std::move(new_via_idx);
    for (std::size_t v = 0; v < ride.via_points.size(); ++v) {
      ride.via_points[v].eta_s =
          ride.departure_time_s +
          ride.route_cum_time_s[ride.via_route_index[v]];
    }

    // Refund the freed detour budget.
    double freed = std::max(0.0, old_length - ride.route.length_m);
    ride.detour_used_m = std::max(0.0, ride.detour_used_m - freed);
  }

  bookings_.erase(record);
  ride.seats_available =
      std::min(ride.seats_total, ride.seats_available + seats);

  index_->Update(ride);
  index_->Advance(ride, clock_.Now());  // do not resurrect passed clusters
  ScheduleNextEvent(ride);
  return Status::OK();
}

Status XarSystem::CancelRide(RideId ride_id) {
  if (!OwnsRide(ride_id)) {
    return Status::NotFound("unknown ride");
  }
  Ride& ride = MutableRide(ride_id);
  if (ride.active) FinishRide(ride);
  return Status::OK();
}

void XarSystem::AdvanceTime(double now_s) {
  clock_.AdvanceTo(now_s);
  while (!events_.empty() && events_.top().first < now_s) {
    auto [when, ride_id] = events_.top();
    events_.pop();
    Ride& ride = MutableRide(ride_id);
    if (!ride.active) continue;
    // Prune the persistent schedule first: stops the vehicle passed are
    // committed (riders board/alight, alternative orderings that begin
    // differently are discarded), so the tree always roots at the present.
    RideSchedule* sched = schedules_[LocalIndex(ride_id)].get();
    if (sched != nullptr) {
      pooling_counters_.advanced_stops += sched->AdvanceTo(now_s);
    }
    if (ride.ArrivalTimeS() <= now_s) {
      FinishRide(ride);
      continue;
    }
    index_->Advance(ride, now_s);
    ScheduleNextEvent(ride);
  }
}

void XarSystem::FinishRide(Ride& ride) {
  if (!ride.active) return;
  ride.active = false;
  --active_rides_;
  index_->Remove(ride.id);
  schedules_[LocalIndex(ride.id)].reset();
}

void XarSystem::ScheduleNextEvent(const Ride& ride) {
  double next = std::min(index_->NextEventTime(ride.id), ride.ArrivalTimeS());
  // A live schedule wakes up at its next stop too, so the tree is pruned as
  // each stop is passed, not only at cluster-exit events.
  const std::unique_ptr<RideSchedule>& sched = schedules_[LocalIndex(ride.id)];
  if (sched != nullptr && !sched->empty()) {
    next = std::min(next, sched->NextStopEtaS());
  }
  if (next < kInf) events_.emplace(next, ride.id);
}

const Ride* XarSystem::GetRide(RideId id) const {
  if (!OwnsRide(id)) return nullptr;
  return &rides_[LocalIndex(id)];
}

const RideSchedule* XarSystem::GetSchedule(RideId id) const {
  if (!OwnsRide(id)) return nullptr;
  return schedules_[LocalIndex(id)].get();
}

PoolingStats XarSystem::pooling_stats() const {
  PoolingStats stats = pooling_counters_;
  // Gauges scan the live fleet; FinishRide resets retired slots, so every
  // non-null slot is a live kinetic ride.
  for (const std::unique_ptr<RideSchedule>& sched : schedules_) {
    if (sched == nullptr) continue;
    stats.kinetic_rides += 1;
    stats.onboard_riders += static_cast<std::size_t>(sched->Onboard());
    stats.pending_stops += sched->PendingStops();
    stats.retained_orderings += sched->NumSchedules();
  }
  return stats;
}

std::size_t XarSystem::MemoryFootprint() const {
  std::size_t bytes = sizeof(*this) + index_->MemoryFootprint();
  for (const Ride& r : rides_) {
    bytes += sizeof(r);
    bytes += r.route.nodes.capacity() * sizeof(NodeId);
    bytes += (r.route_cum_time_s.capacity() + r.route_cum_dist_m.capacity()) *
             sizeof(double);
    bytes += r.via_points.capacity() * sizeof(ViaPoint);
    bytes += r.via_route_index.capacity() * sizeof(std::size_t);
  }
  bytes += bookings_.capacity() * sizeof(BookingRecord);
  for (const std::unique_ptr<RideSchedule>& sched : schedules_) {
    if (sched != nullptr) bytes += sched->MemoryFootprint();
  }
  return bytes;
}

}  // namespace xar
