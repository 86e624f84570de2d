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
/// reachable from it within the ride's remaining detour budget. Only
/// pass-throughs still ahead of the clock are kept.
struct PassThroughCluster {
  ClusterId cluster;
  LandmarkId landmark;      ///< landmark of the grid where the route entered
  double eta_s = 0.0;
  std::size_t segment = 0;  ///< which via-point segment produced it
  /// The pricing terms of the via-point ending `segment`: its grid's
  /// landmark (invalid when that grid carries none), the landmark's cluster
  /// (invalid with it), and the landmark-metric distance from here to it.
  /// Via-points change only in calls that re-register the ride, so these
  /// stay exact until the next Insert or Update.
  LandmarkId next_landmark;
  ClusterId next_cluster;
  double here_to_next_m = 0.0;
  /// Reachable clusters (paper's detour test d_CC' + d_C'v - d_Cv <= d), in
  /// increasing id order.
  std::vector<ClusterId> reachable;
};

/// Everything the index knows about one registered ride.
struct RideRegistration {
  std::vector<PassThroughCluster> pass_throughs;  ///< in segment order
  /// Every cluster this ride currently appears under (sorted, unique), and
  /// the ETA it is listed at there, parallel arrays: the list's full
  /// (eta, ride) key, so removal and re-keying are one binary search.
  std::vector<ClusterId> registered_clusters;
  std::vector<double> registered_eta_s;
  /// Which pass-throughs support each registered cluster: SupportWords()
  /// words per cluster, in registered_clusters order, where bit k of the
  /// cluster's run is set iff pass_throughs[k] drives through the cluster
  /// or reaches it.
  std::vector<std::uint64_t> registered_support;

  /// Mask words per registered cluster: one per 64 pass-throughs, min 1.
  std::size_t SupportWords() const {
    return pass_throughs.empty() ? 1 : (pass_throughs.size() + 63) / 64;
  }
};

/// Point-in-time copy of the index counters (the "match" stats section).
struct MatchCounters {
  std::uint64_t inserts = 0;         ///< rides registered
  std::uint64_t removes = 0;         ///< rides fully unregistered
  std::uint64_t updates = 0;         ///< re-registrations after bookings
  std::uint64_t evictions = 0;       ///< cluster lists left by Advance
  std::uint64_t searches = 0;        ///< Candidates() calls
  std::uint64_t empty_searches = 0;  ///< Candidates() calls returning none
  std::uint64_t candidates = 0;      ///< matches returned, total
  /// What Update did to the cluster entries of the rides it re-derived:
  /// left at their key, moved to a new ETA, erased, and inserted.
  std::uint64_t update_kept = 0;
  std::uint64_t update_moved = 0;
  std::uint64_t update_left = 0;
  std::uint64_t update_entered = 0;

  MatchCounters& operator+=(const MatchCounters& other) {
    inserts += other.inserts;
    removes += other.removes;
    updates += other.updates;
    evictions += other.evictions;
    searches += other.searches;
    empty_searches += other.empty_searches;
    candidates += other.candidates;
    update_kept += other.update_kept;
    update_moved += other.update_moved;
    update_left += other.update_left;
    update_entered += other.update_entered;
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
///  - Insert/Remove/Update track ride lifecycle; Insert and Update
///    register only the pass-throughs ahead of the clock they are given.
///    Update re-derives all associations after a booking/cancellation
///    changed the ride's shape, and touches only the list entries whose key
///    that changed.
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

  /// Computes `ride`'s pass-through clusters still ahead of `now_s` (from
  /// its current route and via-points) and their reachable clusters (within
  /// the remaining detour budget), then registers the ride under all of
  /// them. The ride must not already be registered.
  void Insert(const Ride& ride, double now_s);

  /// Removes the ride from every cluster list. No-op if absent.
  void Remove(RideId ride);

  /// Re-derives all associations ahead of `now_s` after a booking changed
  /// the ride's route, via-points or detour budget. Entries whose
  /// (eta, ride) key is unchanged stay put, a changed ETA moves in place,
  /// and only clusters the ride left or entered are erased or inserted: the
  /// lists end exactly as Remove then Insert would leave them.
  void Update(const Ride& ride, double now_s);

  /// Tracking (paper Section VIII-A): drops the pass-throughs with
  /// eta < now and evicts the ride from clusters no longer supported by a
  /// remaining one. Returns the number of clusters the ride was evicted
  /// from.
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
  /// segment). Candidate supports are the registration's support masks of
  /// the two clusters (a cluster the ride is not registered under has
  /// none); the estimate itself is computed on the precomputed *landmark*
  /// metric (the paper's in-memory landmark distances) using the concrete
  /// pickup/drop-off landmarks, which is what keeps the Fig. 3a
  /// approximation tight. Requires seg_src <= seg_dst. Returns false when no
  /// valid support pair exists (stale match). No shortest paths are
  /// computed: two binary searches over the registered clusters, then each
  /// pass-through supporting either cluster contributes its pickup,
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

  /// Earliest ETA among the ride's pass-through clusters — the next moment
  /// tracking has work to do for this ride. +inf if none.
  double NextEventTime(RideId ride) const;

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
  /// What Rekey did to a ride's list entries.
  struct Rekeyed {
    std::size_t kept = 0;
    std::size_t moved = 0;
    std::size_t left = 0;
    std::size_t entered = 0;
  };

  struct AtomicCounters {
    std::atomic<std::uint64_t> inserts{0};
    std::atomic<std::uint64_t> removes{0};
    std::atomic<std::uint64_t> updates{0};
    std::atomic<std::uint64_t> evictions{0};
    mutable std::atomic<std::uint64_t> searches{0};
    mutable std::atomic<std::uint64_t> empty_searches{0};
    mutable std::atomic<std::uint64_t> candidates{0};
    std::atomic<std::uint64_t> update_kept{0};
    std::atomic<std::uint64_t> update_moved{0};
    std::atomic<std::uint64_t> update_left{0};
    std::atomic<std::uint64_t> update_entered{0};
  };

  /// Computes `ride`'s pass-throughs ahead of `now_s` into its registration
  /// (made if absent) and rekeys its list entries to them.
  Rekeyed Register(const Ride& ride, double now_s);

  /// Brings `ride`'s list entries from `reg`'s registered keys to the
  /// supports of its pass-throughs, merging the two in cluster order: a
  /// kept key is left alone, a changed ETA is moved, a cluster no longer
  /// supported is erased and a newly supported one inserted.
  Rekeyed Rekey(RideId ride, RideRegistration* reg);

  /// The clusters `reg`'s pass-throughs support, in cluster-id order, with
  /// the min ETA of their supports and the mask of which pass-throughs they
  /// are (RideRegistration::registered_support's layout), as parallel
  /// arrays.
  void AggregateSupports(const RideRegistration& reg,
                         std::vector<ClusterId>* clusters,
                         std::vector<double>* eta_s,
                         std::vector<std::uint64_t>* support);

  /// The first visit of each cluster in each route segment, dropped when
  /// it lies behind `now_s`.
  std::vector<PassThroughCluster> ComputePassThroughs(const Ride& ride,
                                                      double now_s);

  void CountSearch(std::size_t returned) const;

  /// Pinned per search (acquire), swapped by OnEpochSwap (release).
  std::atomic<std::shared_ptr<const RegionSnapshot>> snapshot_;
  /// The region of snapshot_, read by the lock-guarded ride-state paths.
  const RegionIndex* region_;
  const RoadGraph* graph_;
  std::vector<ClusterRideList> lists_;  // one per cluster
  /// AggregateSupports' per-cluster min ETA, +inf between calls, and its
  /// per-cluster support mask (the registration's words per cluster at
  /// cluster * words), zero between calls.
  std::vector<double> support_eta_;
  std::vector<std::uint64_t> support_mask_;
  /// ComputePassThroughs' per-cluster mark: the segment stamp that last saw
  /// the cluster.
  std::vector<std::uint32_t> seen_stamp_;
  std::uint32_t seen_generation_ = 0;
  std::unordered_map<RideId, RideRegistration> registrations_;
  AtomicCounters counters_;
};

}  // namespace xar

#endif  // XAR_MATCH_MATCH_INDEX_H_
