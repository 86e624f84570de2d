#ifndef XAR_TSHARE_TSHARE_SYSTEM_H_
#define XAR_TSHARE_TSHARE_SYSTEM_H_

#include <cstddef>
#include <queue>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "common/result.h"
#include "geo/grid.h"
#include "graph/oracle.h"
#include "graph/road_graph.h"
#include "graph/spatial_index.h"
#include "match/cluster_ride_list.h"
#include "xar/ride.h"

namespace xar {

/// Configuration of the T-Share re-implementation.
struct TShareOptions {
  /// Grid cell size. The paper's benchmark sets 1000 m ("equivalent to the
  /// cluster size of XAR").
  double grid_cell_m = 1000.0;

  /// Cap on explored neighbor grids per search side (paper: 80 grids ≈ 4 km
  /// max taxi detour in their NY setup).
  std::size_t max_grids_explored = 80;

  double default_detour_limit_m = 4000.0;
  int default_seats = 3;
  double eta_window_slack_s = 240.0;
  double max_onboard_s = 2700.0;
};

/// A candidate match produced by T-Share's dual-side search. Unlike XAR,
/// T-Share taxis detour to the requester's exact origin/destination nodes,
/// so there is no walking leg; the detour below is the *exact* insertion
/// detour computed with (lazy) shortest paths during search.
struct TShareMatch {
  RideId ride;
  NodeId pickup_node;
  NodeId dropoff_node;
  double detour_m = 0.0;       ///< exact combined insertion detour
  double eta_source_s = 0.0;   ///< taxi ETA at the pickup grid
  std::size_t pickup_segment = 0;
  std::size_t dropoff_segment = 0;
};

/// Re-implementation of T-Share (Ma, Zheng, Wolfson, ICDE 2013) following
/// the description in the XAR paper: a flat grid spatio-temporal index with
/// per-grid temporally ordered taxi lists, dual-side expanding grid search,
/// and lazy shortest-path feasibility checks *during search*. The search
/// cost therefore scales with the candidate count and with how many matches
/// are requested — the contrast XAR's Figures 4-5 measure.
///
/// `routing_oracle` computes real routes for ride creation and booking.
/// `search_oracle` is what the lazy feasibility checks in Search use: pass
/// the same GraphOracle for the real system, or a HaversineOracle for the
/// "no shortest path" variant of Fig. 5a (nullptr = use routing_oracle).
class TShareSystem {
 public:
  TShareSystem(const RoadGraph& graph, const SpatialNodeIndex& spatial,
               DistanceOracle& routing_oracle, TShareOptions options = {},
               DistanceOracle* search_oracle = nullptr);

  TShareSystem(const TShareSystem&) = delete;
  TShareSystem& operator=(const TShareSystem&) = delete;

  /// Registers a taxi ride: computes its route and inserts it into the
  /// temporal list of every grid the route passes through.
  Result<RideId> CreateRide(const RideOffer& offer);

  /// Dual-side search. Expands grids outward from the request's origin and
  /// destination (up to the grid cap), collects temporally compatible taxis
  /// and verifies each candidate with exact insertion-detour computations.
  /// Returns up to `k` feasible matches (0 = all), ordered by detour.
  std::vector<TShareMatch> Search(const RideRequest& request,
                                  std::size_t k = 0);

  /// Books a verified match: splices the route at the chosen segments and
  /// refreshes the grid lists along the changed route.
  Result<BookingRecord> Book(RideId ride, const RideRequest& request,
                             const TShareMatch& match);

  /// Retires rides that have arrived before `now_s`.
  void AdvanceTime(double now_s);

  const Ride* GetRide(RideId id) const;
  std::size_t NumRides() const { return rides_.size(); }
  std::size_t NumActiveRides() const { return active_rides_; }
  double Now() const { return clock_.Now(); }

  /// Shortest-path computations incurred by Search so far (lazy SP count).
  std::size_t search_sp_count() const { return search_sp_count_; }

  std::size_t MemoryFootprint() const;

  /// The temporal taxi list of a grid cell.
  const ClusterRideList& CellList(GridId g) const {
    return cell_lists_[g.value()];
  }

 private:
  /// Exact minimum insertion detour of `node` over the segments of `ride`
  /// at or after `from_segment`; fills the chosen segment. Uses 2 oracle
  /// distance queries per segment plus cached segment lengths.
  double BestInsertion(const Ride& ride, NodeId node,
                       std::size_t from_segment, std::size_t* segment);

  /// The (cell, ETA) key of each grid cell `ride`'s route visits. Index and
  /// Deindex both call it: a ride's route does not change while it is
  /// indexed, so Deindex recomputes exactly the keys Index inserted.
  std::vector<std::pair<GridId, double>> FirstVisitKeys(
      const Ride& ride) const;
  void IndexRideCells(const Ride& ride);
  void DeindexRideCells(const Ride& ride);
  Ride& MutableRide(RideId id) { return rides_[id.value()]; }

  const RoadGraph& graph_;
  const SpatialNodeIndex& spatial_;
  DistanceOracle& oracle_;         // routing (create/book)
  DistanceOracle& search_oracle_;  // lazy checks in Search
  TShareOptions options_;
  GridSpec grid_;

  std::vector<ClusterRideList> cell_lists_;  // one temporal list per grid
  std::vector<Ride> rides_;
  std::vector<BookingRecord> bookings_;
  VirtualClock clock_;
  std::size_t active_rides_ = 0;
  std::size_t search_sp_count_ = 0;

  using Event = std::pair<double, RideId>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
};

}  // namespace xar

#endif  // XAR_TSHARE_TSHARE_SYSTEM_H_
