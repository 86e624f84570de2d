#include "tshare/tshare_system.h"

#include <algorithm>
#include <limits>

#include "xar/route_utils.h"

namespace xar {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

TShareSystem::TShareSystem(const RoadGraph& graph,
                           const SpatialNodeIndex& spatial,
                           DistanceOracle& routing_oracle,
                           TShareOptions options,
                           DistanceOracle* search_oracle)
    : graph_(graph),
      spatial_(spatial),
      oracle_(routing_oracle),
      search_oracle_(search_oracle != nullptr ? *search_oracle
                                              : routing_oracle),
      options_(options),
      grid_(graph.bounds(), options.grid_cell_m),
      cell_lists_(grid_.CellCount()) {}

std::vector<std::pair<GridId, double>> TShareSystem::FirstVisitKeys(
    const Ride& ride) const {
  // Every grid the route crosses, keyed by the ETA of the first route node
  // inside the cell (a route that re-enters a cell keeps its first visit).
  std::vector<std::pair<GridId, double>> keys;
  GridId prev = GridId::Invalid();
  for (std::size_t j = 0; j < ride.route.nodes.size(); ++j) {
    GridId g = grid_.GridOf(graph_.PositionOf(ride.route.nodes[j]));
    if (g == prev) continue;
    prev = g;
    if (std::none_of(keys.begin(), keys.end(),
                     [g](const auto& key) { return key.first == g; })) {
      keys.emplace_back(g, ride.departure_time_s + ride.route_cum_time_s[j]);
    }
  }
  return keys;
}

void TShareSystem::IndexRideCells(const Ride& ride) {
  for (const auto& [g, eta_s] : FirstVisitKeys(ride)) {
    cell_lists_[g.value()].Insert(ride.id, eta_s);
  }
}

void TShareSystem::DeindexRideCells(const Ride& ride) {
  for (const auto& [g, eta_s] : FirstVisitKeys(ride)) {
    cell_lists_[g.value()].Erase(ride.id, eta_s);
  }
}

Result<RideId> TShareSystem::CreateRide(const RideOffer& offer) {
  XAR_ASSIGN_OR_RETURN(Ride ride,
                       PlanRide(graph_, spatial_, oracle_, offer,
                                options_.default_seats,
                                options_.default_detour_limit_m));
  ride.id = RideId(static_cast<RideId::underlying_type>(rides_.size()));
  rides_.push_back(std::move(ride));
  ++active_rides_;
  const Ride& stored = rides_.back();
  IndexRideCells(stored);
  events_.emplace(stored.ArrivalTimeS(), stored.id);
  return stored.id;
}


double TShareSystem::BestInsertion(const Ride& ride, NodeId node,
                                   std::size_t from_segment,
                                   std::size_t* segment) {
  double best = kInf;
  for (std::size_t s = from_segment; s + 1 <= ride.NumSegments() &&
                                     s + 1 < ride.via_points.size();
       ++s) {
    NodeId a = ride.via_points[s].node;
    NodeId b = ride.via_points[s + 1].node;
    double seg_len = ride.route_cum_dist_m[ride.via_route_index[s + 1]] -
                     ride.route_cum_dist_m[ride.via_route_index[s]];
    search_sp_count_ += 2;  // the lazy shortest-path cost of T-Share search
    double detour = search_oracle_.DriveDistance(a, node) +
                    search_oracle_.DriveDistance(node, b) - seg_len;
    if (detour < best) {
      best = detour;
      *segment = s;
    }
  }
  return std::max(0.0, best);
}

std::vector<TShareMatch> TShareSystem::Search(const RideRequest& request,
                                              std::size_t k) {
  NodeId origin = spatial_.NearestNode(request.source);
  NodeId dest = spatial_.NearestNode(request.destination);
  double t_begin =
      request.earliest_departure_s - options_.eta_window_slack_s;
  double t_end = request.latest_departure_s + options_.eta_window_slack_s;

  // Incremental dual-side expansion (Ma et al. Section 5): grids around the
  // origin are explored in increasing distance order; each temporally
  // compatible taxi discovered is immediately verified with exact (lazy)
  // insertion-detour computations for pickup AND drop-off. The search stops
  // as soon as k feasible matches are found, or the grid budget is spent —
  // so the cost scales with how many matches are requested, unlike XAR.
  std::vector<TShareMatch> matches;
  std::vector<bool> seen(rides_.size(), false);
  GridId center = grid_.GridOf(request.source);
  std::size_t explored = 0;
  bool done = false;
  for (std::size_t ring = 0;
       !done && explored < options_.max_grids_explored; ++ring) {
    std::vector<GridId> cells = grid_.Ring(center, ring);
    if (cells.empty() && ring > 0) break;  // ran off the map
    // Taxis in an outer ring spend extra time driving to the requester:
    // widen the temporal probe accordingly.
    double ring_travel_s =
        static_cast<double>(ring) * options_.grid_cell_m / 8.33;
    for (GridId g : cells) {
      if (done || explored >= options_.max_grids_explored) break;
      ++explored;
      for (const PotentialRide& pr :
           cell_lists_[g.value()].EtaRange(t_begin - ring_travel_s, t_end)) {
        if (seen[pr.ride.value()]) continue;
        seen[pr.ride.value()] = true;
        const Ride& ride = rides_[pr.ride.value()];
        if (!ride.active || ride.seats_available < request.seats) continue;

        TShareMatch m;
        m.ride = pr.ride;
        m.pickup_node = origin;
        m.dropoff_node = dest;
        m.eta_source_s = pr.eta_s;
        double pickup_detour =
            BestInsertion(ride, origin, 0, &m.pickup_segment);
        if (pickup_detour > ride.RemainingDetourBudget()) continue;
        double dropoff_detour =
            BestInsertion(ride, dest, m.pickup_segment, &m.dropoff_segment);
        m.detour_m = pickup_detour + dropoff_detour;
        if (m.detour_m > ride.RemainingDetourBudget()) continue;
        matches.push_back(m);
        if (k > 0 && matches.size() >= k) {
          done = true;  // original T-Share early exit at k matches
          break;
        }
      }
    }
  }

  std::sort(matches.begin(), matches.end(),
            [](const TShareMatch& a, const TShareMatch& b) {
              if (a.detour_m != b.detour_m) return a.detour_m < b.detour_m;
              return a.ride < b.ride;
            });
  return matches;
}

Result<BookingRecord> TShareSystem::Book(RideId ride_id,
                                         const RideRequest& request,
                                         const TShareMatch& match) {
  if (ride_id.value() >= rides_.size()) {
    return Status::NotFound("unknown ride");
  }
  Ride& ride = MutableRide(ride_id);
  if (!ride.active) return Status::FailedPrecondition("ride already finished");
  if (ride.seats_available < request.seats) {
    return Status::ResourceExhausted("no seats left on ride");
  }
  std::size_t s = match.pickup_segment;
  std::size_t d = match.dropoff_segment;
  if (s >= ride.NumSegments() || d >= ride.NumSegments()) {
    return Status::FailedPrecondition("match is stale: segments changed");
  }
  if (d < s) d = s;

  DeindexRideCells(ride);
  Result<BookingRecord> record =
      SpliceRider(graph_, oracle_, &ride, s, d, match.pickup_node,
                  match.dropoff_node, request);
  IndexRideCells(ride);  // the new route's cells, or the old on failure
  if (!record.ok()) return record;
  events_.emplace(ride.ArrivalTimeS(), ride.id);

  record->estimated_detour_m = match.detour_m;
  record->walk_m = 0.0;  // T-Share detours to the door
  bookings_.push_back(*record);
  return record;
}

void TShareSystem::AdvanceTime(double now_s) {
  clock_.AdvanceTo(now_s);
  while (!events_.empty() && events_.top().first < now_s) {
    auto [when, ride_id] = events_.top();
    events_.pop();
    Ride& ride = MutableRide(ride_id);
    if (!ride.active) continue;
    if (ride.ArrivalTimeS() <= now_s) {
      ride.active = false;
      --active_rides_;
      DeindexRideCells(ride);
    } else {
      events_.emplace(ride.ArrivalTimeS(), ride_id);
    }
  }
}

const Ride* TShareSystem::GetRide(RideId id) const {
  if (id.value() >= rides_.size()) return nullptr;
  return &rides_[id.value()];
}

std::size_t TShareSystem::MemoryFootprint() const {
  std::size_t bytes = sizeof(*this);
  for (const ClusterRideList& list : cell_lists_) {
    bytes += list.MemoryFootprint();
  }
  for (const Ride& r : rides_) {
    bytes += sizeof(r) + r.route.nodes.capacity() * sizeof(NodeId) +
             (r.route_cum_time_s.capacity() + r.route_cum_dist_m.capacity()) *
                 sizeof(double) +
             r.via_points.capacity() * sizeof(ViaPoint) +
             r.via_route_index.capacity() * sizeof(std::size_t);
  }
  bytes += bookings_.capacity() * sizeof(BookingRecord);
  return bytes;
}

}  // namespace xar
