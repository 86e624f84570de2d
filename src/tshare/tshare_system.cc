#include "tshare/tshare_system.h"

#include <algorithm>
#include <cassert>
#include <cmath>
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
  NodeId src = spatial_.NearestNode(offer.source);
  NodeId dst = spatial_.NearestNode(offer.destination);
  if (src == dst) {
    return Status::InvalidArgument("ride source and destination coincide");
  }
  Path route = oracle_.DriveRoute(src, dst);
  if (!route.Found()) {
    return Status::NotFound("no drivable route between offer endpoints");
  }

  Ride ride;
  ride.id = RideId(static_cast<RideId::underlying_type>(rides_.size()));
  ride.source = src;
  ride.destination = dst;
  ride.departure_time_s = offer.departure_time_s;
  ride.seats_total = offer.seats >= 0 ? offer.seats : options_.default_seats;
  ride.seats_available = ride.seats_total;
  ride.detour_limit_m = offer.detour_limit_m >= 0
                            ? offer.detour_limit_m
                            : options_.default_detour_limit_m;
  ride.route = std::move(route);
  BuildCumulativeProfiles(graph_, ride.route.nodes, &ride.route_cum_time_s,
                          &ride.route_cum_dist_m);
  ride.via_points = {
      ViaPoint{src, offer.departure_time_s, RequestId::Invalid(), false},
      ViaPoint{dst, offer.departure_time_s + ride.route_cum_time_s.back(),
               RequestId::Invalid(), false}};
  ride.via_route_index = {0, ride.route.nodes.size() - 1};

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

  double old_length = ride.route_cum_dist_m.back();
  std::size_t sp_count = 0;
  bool ok = true;
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
  auto splice_leg = [&](NodeId from, NodeId to) {
    if (from == to) return;
    ++sp_count;
    Path leg = oracle_.DriveRoute(from, to);
    if (!leg.Found()) {
      ok = false;
      return;
    }
    AppendPathNodes(&new_nodes, leg.nodes);
  };

  ViaPoint pickup_via{match.pickup_node, 0.0, request.id, true};
  ViaPoint dropoff_via{match.dropoff_node, 0.0, request.id, false};

  if (s == d) {
    copy_route_span(0, ride.via_route_index[s]);
    for (std::size_t v = 0; v <= s; ++v) {
      new_vias.push_back(ride.via_points[v]);
      new_via_idx.push_back(ride.via_route_index[v]);
    }
    splice_leg(ride.via_points[s].node, match.pickup_node);
    new_vias.push_back(pickup_via);
    new_via_idx.push_back(new_nodes.size() - 1);
    splice_leg(match.pickup_node, match.dropoff_node);
    new_vias.push_back(dropoff_via);
    new_via_idx.push_back(new_nodes.size() - 1);
    splice_leg(match.dropoff_node, ride.via_points[s + 1].node);
    std::size_t resume = new_nodes.size() - 1;
    copy_route_span(ride.via_route_index[s + 1], ride.route.nodes.size() - 1);
    for (std::size_t v = s + 1; v < ride.via_points.size(); ++v) {
      new_vias.push_back(ride.via_points[v]);
      new_via_idx.push_back(resume + (ride.via_route_index[v] -
                                      ride.via_route_index[s + 1]));
    }
  } else {
    copy_route_span(0, ride.via_route_index[s]);
    for (std::size_t v = 0; v <= s; ++v) {
      new_vias.push_back(ride.via_points[v]);
      new_via_idx.push_back(ride.via_route_index[v]);
    }
    splice_leg(ride.via_points[s].node, match.pickup_node);
    new_vias.push_back(pickup_via);
    new_via_idx.push_back(new_nodes.size() - 1);
    splice_leg(match.pickup_node, ride.via_points[s + 1].node);
    std::size_t anchor = new_nodes.size() - 1;
    copy_route_span(ride.via_route_index[s + 1], ride.via_route_index[d]);
    for (std::size_t v = s + 1; v <= d; ++v) {
      new_vias.push_back(ride.via_points[v]);
      new_via_idx.push_back(anchor + (ride.via_route_index[v] -
                                      ride.via_route_index[s + 1]));
    }
    splice_leg(ride.via_points[d].node, match.dropoff_node);
    new_vias.push_back(dropoff_via);
    new_via_idx.push_back(new_nodes.size() - 1);
    splice_leg(match.dropoff_node, ride.via_points[d + 1].node);
    std::size_t resume = new_nodes.size() - 1;
    copy_route_span(ride.via_route_index[d + 1], ride.route.nodes.size() - 1);
    for (std::size_t v = d + 1; v < ride.via_points.size(); ++v) {
      new_vias.push_back(ride.via_points[v]);
      new_via_idx.push_back(resume + (ride.via_route_index[v] -
                                      ride.via_route_index[d + 1]));
    }
  }

  if (!ok) {
    IndexRideCells(ride);  // restore the old index entries
    return Status::Internal("booking splice found an unreachable leg");
  }

  ride.route.nodes = std::move(new_nodes);
  BuildCumulativeProfiles(graph_, ride.route.nodes, &ride.route_cum_time_s,
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
  IndexRideCells(ride);
  events_.emplace(ride.ArrivalTimeS(), ride.id);

  BookingRecord record;
  record.request = request.id;
  record.ride = ride_id;
  record.pickup_node = match.pickup_node;
  record.dropoff_node = match.dropoff_node;
  record.actual_detour_m = std::max(0.0, actual_detour);
  record.estimated_detour_m = match.detour_m;
  record.walk_m = 0.0;  // T-Share detours to the door
  record.shortest_path_computations = sp_count;
  for (const ViaPoint& vp : ride.via_points) {
    if (vp.request == request.id) {
      (vp.is_pickup ? record.pickup_eta_s : record.dropoff_eta_s) = vp.eta_s;
    }
  }
  bookings_.push_back(record);
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
