#ifndef XAR_MATCH_MATCH_INDEX_H_
#define XAR_MATCH_MATCH_INDEX_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/stats_registry.h"
#include "discretize/region_index.h"
#include "discretize/region_snapshot.h"
#include "graph/road_graph.h"
#include "match/cluster_ride_list.h"
#include "xar/ride.h"

namespace xar {

/// A ride's association with one pass-through cluster (paper Section VI):
/// the cluster a route segment drives through, its ETA, and the clusters
/// reachable from it within the ride's remaining detour budget.
struct PassThroughCluster {
  ClusterId cluster;
  LandmarkId landmark;      ///< landmark of the grid where the route entered
  double eta_s = 0.0;
  std::size_t segment = 0;  ///< which via-point segment produced it
  bool crossed = false;     ///< tracking: the ride has already passed it
  /// Reachable clusters (paper's detour test d_CC' + d_C'v - d_Cv <= d),
  /// in increasing id order, and their cluster-level detour estimates,
  /// parallel arrays.
  std::vector<ClusterId> reachable;
  std::vector<double> reachable_detour_m;
};

/// Everything the index knows about one registered ride.
struct RideRegistration {
  std::vector<PassThroughCluster> pass_throughs;  ///< in segment order
  /// Every cluster this ride currently appears under (sorted, unique).
  std::vector<ClusterId> registered_clusters;
};

/// Point-in-time copy of the index counters (the "match" stats section).
struct MatchCounters {
  std::uint64_t inserts = 0;         ///< rides registered
  std::uint64_t removes = 0;         ///< rides fully unregistered
  std::uint64_t updates = 0;         ///< re-registrations after bookings
  std::uint64_t evictions = 0;       ///< cluster lists left by tracking
  std::uint64_t searches = 0;        ///< Candidates() calls
  std::uint64_t empty_searches = 0;  ///< Candidates() calls returning none
  std::uint64_t candidates = 0;      ///< matches returned, total

  MatchCounters& operator+=(const MatchCounters& other) {
    inserts += other.inserts;
    removes += other.removes;
    updates += other.updates;
    evictions += other.evictions;
    searches += other.searches;
    empty_searches += other.empty_searches;
    candidates += other.candidates;
    return *this;
  }
};

/// Aggregated view of one or more indexes (a sharded system sums its
/// shards) for the stats surface.
struct MatchIndexStats {
  std::size_t registered_rides = 0;
  std::size_t bytes = 0;
  MatchCounters counters;
};

/// "match" stats section for the unified StatsRegistry surface.
StatsSection MatchStatsSection(const MatchIndexStats& stats);

/// How a ride table lays out its ids: ride `offset + k * stride` sits in
/// slot k < size (XarOptions::ride_id_offset and ride_id_stride). Search
/// keys its per-ride scratch by slot.
struct RideSlots {
  std::uint32_t offset = 0;
  std::uint32_t stride = 1;
  std::size_t size = 0;

  /// The slot of `id`, or `size` when the table has no such slot.
  std::size_t Of(RideId id) const {
    const std::uint32_t rel = id.value() - offset;  // wraps below offset
    const std::size_t slot = rel / stride;
    return slot < size && rel % stride == 0 ? slot : size;
  }
};

/// Resolves a candidate ride id to the live ride state. Implemented by the
/// owning XarSystem; the index never stores ride state itself, so a
/// candidate probe always checks seats/activity against the current truth.
class RideLookup {
 public:
  virtual ~RideLookup() = default;
  virtual const Ride* Find(RideId id) const = 0;
  /// The id layout of the table Find reads; ids outside it are not found.
  virtual RideSlots Slots() const = 0;
};

/// The per-search knobs the systems layer resolved for one Candidates()
/// call (defaults applied, meeting-points fan-out, top-k). A plain value
/// type: copyable, no lifetime ties to the request it rides along with.
struct MatchTuning {
  double walk_limit_m = 0.0;        ///< resolved walking threshold
  double eta_window_slack_s = 0.0;  ///< departure-window slack (both sides)
  double max_onboard_s = 0.0;       ///< destination-side ETA probe bound
  std::size_t per_ride = 1;         ///< meeting-point candidates per side
  std::size_t max_results = 0;      ///< top-k (0 = all)
};

/// The XAR match index: per-cluster potential-ride lists (paper Section VI)
/// plus the per-ride cluster associations that keep them valid as rides
/// move (tracking) and change shape (booking), probed by the paper's
/// shortest-path-free two-step search (Section VII). This is the structure
/// whose size Fig. 3c reports.
///
/// Contract:
///  - Insert/Remove/Update track ride lifecycle; Update re-derives all
///    associations after a booking/cancellation changed the ride's shape.
///  - Candidates returns feasible matches ranked by MatchRankLess, each
///    carrying the landmarks/clusters Book needs and stamped with the epoch
///    of the snapshot it was computed on. Each candidate ride costs one
///    gather visit per side and one joint estimate per kept entry pair
///    (DESIGN.md §12).
///  - Advance implements tracking (paper Section VIII-A): retire index
///    entries the ride has driven past; NextEventTime is the next moment
///    tracking has work to do for the ride.
///  - ChooseInsertionSegments resolves a match to concrete via-segment
///    insertion points with a precomputed-metric detour estimate — no
///    shortest paths. Book then splices with <= 4 exact shortest paths and
///    charges the *actual* detour, which is what keeps the paper's 4ε
///    guarantee (DESIGN.md §12).
///  - OnEpochSwap rebinds the index to a fresh discretization snapshot,
///    dropping every registration; the caller re-Inserts live rides (the
///    refresh path's re-homing).
///
/// Thread safety: none — instances are owned by one XarSystem and guarded
/// by its shard lock, exactly like the ride state they index. Counters are
/// atomics only because Candidates() is called under shared (reader) locks;
/// its scratch (and ChooseInsertionSegments') is per thread.
class MatchIndex {
 public:
  /// Binds the index to `snapshot`'s discretization over `graph`. The
  /// snapshot is pinned (kept alive) until the next OnEpochSwap.
  MatchIndex(std::shared_ptr<const RegionSnapshot> snapshot,
             const RoadGraph& graph);

  MatchIndex(const MatchIndex&) = delete;
  MatchIndex& operator=(const MatchIndex&) = delete;

  /// Computes `ride`'s pass-through clusters (from its current route and
  /// via-points) and their reachable clusters (within the remaining detour
  /// budget), then registers the ride under all of them. The ride must not
  /// already be registered.
  void Insert(const Ride& ride);

  /// Removes the ride from every cluster list. No-op if absent.
  void Remove(RideId ride);

  /// Re-derives all associations after a booking changed the ride's route,
  /// via-points or detour budget.
  void Update(const Ride& ride);

  /// Tracking (paper Section VIII-A): marks pass-through clusters with
  /// eta < now as crossed, and evicts the ride from clusters no longer
  /// supported by any valid pass-through. Returns the number of clusters the
  /// ride was evicted from.
  std::size_t Advance(const Ride& ride, double now_s);

  /// Ranked feasible matches for `request`, resolved against the snapshot
  /// pinned at entry; candidate ids are checked against `rides`, which must
  /// be the table the indexed rides came from.
  std::vector<RideMatch> Candidates(const RideRequest& request,
                                    const MatchTuning& tuning,
                                    const RideLookup& rides) const;

  /// Picks the pickup/drop-off insertion segments for a booking *jointly*,
  /// minimizing the estimate of the composed detour (the two independent
  /// per-side estimates are not additive when both points land on the same
  /// segment). Candidate supports are found at cluster level; the estimate
  /// itself is computed on the precomputed *landmark* metric (the paper's
  /// in-memory landmark distances) using the concrete pickup/drop-off
  /// landmarks, which is what keeps the Fig. 3a approximation tight.
  /// Requires seg_src <= seg_dst. Returns false when no valid support pair
  /// exists (stale match). No shortest paths are computed, and the cost is
  /// linear in the ride's pass-throughs: each contributes its pickup,
  /// drop-off and same-segment terms once, and the first strict minimum over
  /// segment-ordered (pickup, drop-off) pass-through pairs wins.
  bool ChooseInsertionSegments(const Ride& ride, ClusterId source_cluster,
                               LandmarkId pickup_landmark,
                               ClusterId dest_cluster,
                               LandmarkId dropoff_landmark,
                               std::size_t* seg_src, std::size_t* seg_dst,
                               double* joint_estimate_m) const;

  /// Rebinds to `snapshot` over `graph` and drops every registration.
  void OnEpochSwap(std::shared_ptr<const RegionSnapshot> snapshot,
                   const RoadGraph& graph);

  /// The potential-ride list of a cluster.
  const ClusterRideList& ListOf(ClusterId c) const {
    return lists_[c.value()];
  }

  const RideRegistration* RegistrationOf(RideId ride) const;

  /// Earliest ETA among the ride's uncrossed pass-through clusters — the
  /// next moment tracking has work to do for this ride. +inf if none.
  double NextEventTime(RideId ride) const;

  /// The uncrossed pass-through of `ride` that supports `cluster` (as
  /// itself or as a reachable cluster) at the lowest detour estimate.
  /// Returns nullptr if unsupported.
  const PassThroughCluster* BestSupport(RideId ride, ClusterId cluster) const;

  std::size_t NumRegisteredRides() const { return registrations_.size(); }

  /// Bytes held by the index: all cluster lists and registrations (Fig. 3c).
  std::size_t MemoryFootprint() const;

  /// Snapshot of this instance's counters.
  MatchCounters counters() const;

  /// This instance's stats row (single-system surface; sharded systems
  /// aggregate counters() across shards instead).
  MatchIndexStats stats() const {
    return MatchIndexStats{NumRegisteredRides(), MemoryFootprint(),
                           counters()};
  }

 private:
  struct Support {
    double eta_s;
    double detour_m;
  };

  struct AtomicCounters {
    std::atomic<std::uint64_t> inserts{0};
    std::atomic<std::uint64_t> removes{0};
    std::atomic<std::uint64_t> updates{0};
    std::atomic<std::uint64_t> evictions{0};
    mutable std::atomic<std::uint64_t> searches{0};
    mutable std::atomic<std::uint64_t> empty_searches{0};
    mutable std::atomic<std::uint64_t> candidates{0};
  };

  void Register(const Ride& ride);
  void Unregister(RideId ride);

  /// Min-aggregated (eta, detour) of `ride` for each cluster it touches,
  /// over uncrossed pass-throughs.
  std::unordered_map<ClusterId, Support> AggregateSupports(
      const RideRegistration& reg) const;

  std::vector<PassThroughCluster> ComputePassThroughs(const Ride& ride) const;

  void CountSearch(std::size_t returned) const;

  /// Pinned per search (acquire), swapped by OnEpochSwap (release).
  std::atomic<std::shared_ptr<const RegionSnapshot>> snapshot_;
  /// The region of snapshot_, read by the lock-guarded ride-state paths.
  const RegionIndex* region_;
  const RoadGraph* graph_;
  std::vector<ClusterRideList> lists_;  // one per cluster
  std::unordered_map<RideId, RideRegistration> registrations_;
  AtomicCounters counters_;
};

}  // namespace xar

#endif  // XAR_MATCH_MATCH_INDEX_H_
