#include "xar/xar_system.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <utility>

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
      index_(snapshot, graph) {
  if (options_.ride_id_stride == 0) options_.ride_id_stride = 1;
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
  // resurrected: registration recomputes them from the route ahead of the
  // clock — the same end state incremental tracking maintains.
  index_.OnEpochSwap(next, *graph_);
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
      std::vector<RouteStop> stops;
      stops.reserve(ride.via_points.size());
      for (std::size_t v = 0; v < ride.via_points.size(); ++v) {
        stops.push_back({ride.via_points[v], v});
      }
      CommitRoute(*RewriteRoute(*graph_, *oracle_, ride, stops), &ride);
    }
    index_.Insert(ride, now);
    ++rehomed;
  }

  snapshot_.store(std::move(next), std::memory_order_release);
  // Old event-queue entries stay (validated on pop); re-seed so re-homed
  // rides keep waking up under the new index's event times.
  for (const Ride& ride : rides_) {
    if (ride.active) ScheduleNextEvent(ride);
  }
  return rehomed;
}

Result<RideId> XarSystem::CreateRide(const RideOffer& offer) {
  XAR_ASSIGN_OR_RETURN(Ride ride,
                       PlanRide(*graph_, spatial_, *oracle_, offer,
                                options_.default_seats,
                                options_.default_detour_limit_m));
  ride.id = RideId(options_.ride_id_offset +
                   static_cast<RideId::underlying_type>(rides_.size()) *
                       options_.ride_id_stride);

  rides_.push_back(std::move(ride));
  schedules_.push_back(nullptr);  // materialized on first kinetic booking
  bookings_.emplace_back();
  ++active_rides_;
  const Ride& stored = rides_.back();
  // An offer departing before the clock has already passed its early
  // clusters: they are not registered at all.
  index_.Insert(stored, clock_.Now());
  ScheduleNextEvent(stored);
  return stored.id;
}

std::vector<RideMatch> XarSystem::Search(const RideRequest& request) const {
  return SearchTopK(request, options_.max_results);
}

std::vector<RideMatch> XarSystem::SearchTopK(const RideRequest& request,
                                             std::size_t k) const {
  // Resolve every option the index needs, then delegate: the two-step
  // cluster search (paper Section VII) runs entirely inside the MatchIndex
  // (src/match/).
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
  return index_.Candidates(request, tuning, RideTable(this));
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
  if (!index_.ChooseInsertionSegments(ride, match.source_cluster,
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

  // Splice the route (paper Section VIII-B) — the only shortest-path
  // computations of the booking path, at most four — or, with kinetic
  // booking, insert into the ride's persistent schedule, which accepts
  // riders onto in-progress rides too: the tree is rooted at the last stop
  // the vehicle passed.
  Result<BookingRecord> record =
      options_.kinetic_booking
          ? BookKinetic(ride, request, match, pickup, dropoff)
          : SpliceRider(*graph_, *oracle_, &ride, s, d, pickup, dropoff,
                        request);
  if (!record.ok()) return record;
  record->estimated_detour_m = match.detour_estimate_m;
  record->walk_m = match.TotalWalkM();

  index_.Update(ride, clock_.Now());  // do not resurrect passed clusters
  ScheduleNextEvent(ride);
  bookings_[LocalIndex(ride_id)].push_back(*record);
  return record;
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
  // Via order: source, committed stops (already passed — re-threaded so the
  // profile spans the whole ride), remaining stops best-first, destination;
  // every leg routed afresh.
  std::vector<RouteStop> stops = {
      {ViaPoint{ride.source, 0.0, RequestId::Invalid(), false}}};
  auto add = [&stops](const ScheduleStop& stop) {
    stops.push_back({ViaPoint{stop.node, 0.0, stop.request, stop.is_pickup}});
  };
  for (const ScheduleStop& stop : schedule.committed()) add(stop);
  for (const ScheduleStop& stop : schedule.Best().stops) add(stop);
  stops.push_back(
      {ViaPoint{ride.destination, 0.0, RequestId::Invalid(), false}});
  std::optional<RouteRewrite> rewrite =
      RewriteRoute(*graph_, *oracle_, ride, stops);
  if (!rewrite) {
    return Status::Internal("kinetic re-route found an unreachable leg");
  }

  // Exact budget check before anything is committed. Detour accounting is
  // global on the kinetic path: everything beyond the driver's own shortest
  // path is shared detour (which forfeits the splice path's 4ε bound — see
  // DESIGN.md §14).
  double base_length = oracle_->DriveDistance(ride.source, ride.destination);
  double detour_used = std::max(0.0, rewrite->route.length_m - base_length);
  if (enforce_budget && detour_used > ride.detour_limit_m) {
    return Status::FailedPrecondition("kinetic detour exceeds driver budget");
  }
  if (sp_count != nullptr) *sp_count = rewrite->shortest_paths;
  CommitRoute(std::move(*rewrite), &ride);
  ride.detour_used_m = detour_used;
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
  double old_length = ride.route.length_m;
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
  return MakeBookingRecord(ride, request, old_length, budget_before, sp_count);
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
  std::vector<BookingRecord>& records = bookings_[LocalIndex(ride_id)];
  auto record = std::find_if(
      records.begin(), records.end(),
      [&](const BookingRecord& b) { return b.request == request; });
  if (record == records.end()) {
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
    // Splice-path unwinding: re-route through the remaining via-points, in
    // order, without this rider's pair, every leg afresh.
    std::vector<RouteStop> kept;
    for (const ViaPoint& vp : ride.via_points) {
      if (vp.request != request) kept.push_back({vp});
    }
    std::optional<RouteRewrite> rewrite =
        RewriteRoute(*graph_, *oracle_, ride, kept);
    if (!rewrite) return Status::Internal("cancellation re-route failed");
    double old_length = ride.route.length_m;
    CommitRoute(std::move(*rewrite), &ride);

    // Refund the freed detour budget.
    double freed = std::max(0.0, old_length - ride.route.length_m);
    ride.detour_used_m = std::max(0.0, ride.detour_used_m - freed);
  }

  records.erase(record);
  ride.seats_available =
      std::min(ride.seats_total, ride.seats_available + seats);

  index_.Update(ride, clock_.Now());  // do not resurrect passed clusters
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
    index_.Advance(ride, now_s);
    ScheduleNextEvent(ride);
  }
}

void XarSystem::FinishRide(Ride& ride) {
  if (!ride.active) return;
  ride.active = false;
  --active_rides_;
  index_.Remove(ride.id);
  schedules_[LocalIndex(ride.id)].reset();
  // Move-assigning an empty vector frees the slot's storage, so a serving
  // shard's ledger stays bounded by its live bookings.
  bookings_[LocalIndex(ride.id)] = std::vector<BookingRecord>();
}

void XarSystem::ScheduleNextEvent(const Ride& ride) {
  double next = std::min(index_.NextEventTime(ride.id), ride.ArrivalTimeS());
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

std::span<const BookingRecord> XarSystem::bookings(RideId ride) const {
  if (!OwnsRide(ride)) return {};
  return bookings_[LocalIndex(ride)];
}

std::size_t XarSystem::NumBookings() const {
  std::size_t total = 0;
  for (const std::vector<BookingRecord>& records : bookings_) {
    total += records.size();
  }
  return total;
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
  // index_ is a member: count its inline bytes once, inside its footprint.
  std::size_t bytes =
      sizeof(*this) - sizeof(index_) + index_.MemoryFootprint();
  for (const Ride& r : rides_) {
    bytes += sizeof(r);
    bytes += r.route.nodes.capacity() * sizeof(NodeId);
    bytes += (r.route_cum_time_s.capacity() + r.route_cum_dist_m.capacity()) *
             sizeof(double);
    bytes += r.via_points.capacity() * sizeof(ViaPoint);
    bytes += r.via_route_index.capacity() * sizeof(std::size_t);
  }
  bytes += bookings_.capacity() * sizeof(bookings_.front());
  for (const std::vector<BookingRecord>& records : bookings_) {
    bytes += records.capacity() * sizeof(BookingRecord);
  }
  for (const std::unique_ptr<RideSchedule>& sched : schedules_) {
    if (sched != nullptr) bytes += sched->MemoryFootprint();
  }
  return bytes;
}

}  // namespace xar
