#ifndef XAR_XAR_XAR_SYSTEM_H_
#define XAR_XAR_XAR_SYSTEM_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "common/result.h"
#include "discretize/region_index.h"
#include "discretize/region_snapshot.h"
#include "graph/oracle.h"
#include "graph/road_graph.h"
#include "graph/spatial_index.h"
#include "schedule/ride_schedule.h"
#include "xar/options.h"
#include "xar/ride.h"
#include "match/match_index.h"
#include "match/ride_index.h"

namespace xar {

/// Pooling observability (XarOptions::kinetic_booking with persistent
/// per-ride schedules): lifecycle counters plus live-fleet gauges, snapshot
/// by pooling_stats().
struct PoolingStats {
  // Counters (monotone over the system's life).
  std::size_t insertions = 0;      ///< riders inserted into live trees
  std::size_t rejections = 0;      ///< infeasible insertion attempts
  std::size_t removals = 0;        ///< riders unwound (cancel / no-show)
  std::size_t advanced_stops = 0;  ///< stops committed as vehicles passed them
  std::size_t reprices = 0;        ///< schedule re-pricings on metric swaps
  std::size_t relaxed_riders = 0;  ///< riders kept with relaxed deadlines
  std::size_t max_pooled_riders = 0;  ///< peak concurrent riders on one ride
  // Gauges (scanned over the live fleet at snapshot time).
  std::size_t kinetic_rides = 0;       ///< rides owning a live schedule
  std::size_t onboard_riders = 0;      ///< riders currently aboard, fleet-wide
  std::size_t pending_stops = 0;       ///< outstanding stops, fleet-wide
  std::size_t retained_orderings = 0;  ///< feasible orderings retained, total

  PoolingStats& operator+=(const PoolingStats& o) {
    insertions += o.insertions;
    rejections += o.rejections;
    removals += o.removals;
    advanced_stops += o.advanced_stops;
    reprices += o.reprices;
    relaxed_riders += o.relaxed_riders;
    max_pooled_riders = std::max(max_pooled_riders, o.max_pooled_riders);
    kinetic_rides += o.kinetic_rides;
    onboard_riders += o.onboard_riders;
    pending_stops += o.pending_stops;
    retained_orderings += o.retained_orderings;
    return *this;
  }
};

/// "pooling" stats section for the unified StatsRegistry surface.
inline StatsSection PoolingStatsSection(const PoolingStats& s) {
  StatsSection section;
  section.name = "pooling";
  section.AddRow(
      {StatsMetric::Counter("insertions", s.insertions),
       StatsMetric::Counter("rejections", s.rejections),
       StatsMetric::Counter("removals", s.removals),
       StatsMetric::Counter("advanced_stops", s.advanced_stops),
       StatsMetric::Counter("reprices", s.reprices),
       StatsMetric::Counter("relaxed_riders", s.relaxed_riders),
       StatsMetric::Counter("max_pooled_riders", s.max_pooled_riders),
       StatsMetric::Gauge("kinetic_rides",
                          static_cast<double>(s.kinetic_rides), 0),
       StatsMetric::Gauge("onboard_riders",
                          static_cast<double>(s.onboard_riders), 0),
       StatsMetric::Gauge("pending_stops",
                          static_cast<double>(s.pending_stops), 0),
       StatsMetric::Gauge("retained_orderings",
                          static_cast<double>(s.retained_orderings), 0)});
  return section;
}

/// The XAR run-time unit (paper Fig. 1): ride creation, shortest-path-free
/// search, booking with at most four shortest-path computations, and
/// tracking against a virtual clock.
///
/// Typical lifecycle:
///   XarSystem xar(graph, spatial, region, oracle);
///   RideId r = *xar.CreateRide(offer);
///   auto matches = xar.Search(request);          // no shortest paths
///   auto booking = xar.Book(matches[0].ride, request, matches[0]);
///   xar.AdvanceTime(now);                        // tracking
///
/// The discretization is held as a versioned RegionSnapshot and can be
/// rebuilt and swapped at runtime (RefreshDiscretization); searches pin the
/// snapshot they start on, and Book rejects matches from older epochs as
/// stale (drive the retry from SearchAndBook or the caller).
class XarSystem {
 public:
  /// Legacy path: borrows a caller-owned region (epoch 0). The caller must
  /// keep `region` alive until the first RefreshDiscretization (or the
  /// system's destruction, if never refreshed).
  XarSystem(const RoadGraph& graph, const SpatialNodeIndex& spatial,
            const RegionIndex& region, DistanceOracle& oracle,
            XarOptions options = {});

  /// Shares an existing snapshot (e.g. one ConcurrentXarSystem distributes
  /// across its shards).
  XarSystem(const RoadGraph& graph, const SpatialNodeIndex& spatial,
            std::shared_ptr<const RegionSnapshot> snapshot,
            DistanceOracle& oracle, XarOptions options = {});

  XarSystem(const XarSystem&) = delete;
  XarSystem& operator=(const XarSystem&) = delete;

  // --- Operations (paper O1/O2/O3) ---------------------------------------

  /// O2: registers a new ride offer. Computes the driver's shortest route
  /// (the only permitted shortest-path use outside booking) and indexes the
  /// ride's pass-through/reachable clusters.
  Result<RideId> CreateRide(const RideOffer& offer);

  /// O1: retrieves feasible matches for `request` by pure index probes —
  /// walkable-cluster lists, per-cluster ETA ranges, candidate-set
  /// intersection, then walking/detour threshold checks. Never computes a
  /// shortest path. Results sorted by least total walking.
  std::vector<RideMatch> Search(const RideRequest& request) const;

  /// As Search, but with an explicit top-k override (0 = all).
  std::vector<RideMatch> SearchTopK(const RideRequest& request,
                                    std::size_t k) const;

  /// Books `match` on `ride`: inserts pickup/drop-off via-points, splices
  /// the route using <= 4 shortest-path computations (paper Section VIII-B),
  /// charges the actual detour against the driver's budget, and refreshes
  /// the ride's index entries. Matches computed on an older discretization
  /// epoch are rejected as stale (FailedPrecondition).
  Result<BookingRecord> Book(RideId ride, const RideRequest& request,
                             const RideMatch& match);

  /// Search + booking in walk order: books the first candidate Book
  /// accepts. The serial counterpart of ConcurrentXarSystem::SearchAndBook
  /// (no retry rounds — nothing races with us here).
  Result<BookingRecord> SearchAndBook(const RideRequest& request);

  /// Cancels a previously confirmed booking: removes the rider's via-points,
  /// re-routes the ride through its remaining via-points (shortest paths,
  /// back-end), restores the seat and detour budget, and refreshes the index.
  /// Fails if the ride has already passed the pickup point.
  Status CancelBooking(RideId ride, RequestId request);

  /// Reports a rider absent at their pickup point (a no-show): the driver
  /// keeps going, the rider's via-points are removed, the seat and detour
  /// budget are returned and the ride is re-indexed — the same unwinding as
  /// CancelBooking, except it is legal *after* the pickup ETA has passed
  /// (that is exactly when a no-show is discovered). Fails only once the
  /// rider's drop-off ETA has passed, i.e. the booking already completed.
  Status ReportNoShow(RideId ride, RequestId request);

  /// Cancels a whole ride offer: evicts it from every cluster list. Existing
  /// co-rider bookings on it are dropped (the caller is responsible for
  /// re-matching them). Idempotent on already-finished rides.
  Status CancelRide(RideId ride);

  /// O3 (tracking): advances the virtual clock, retiring finished rides and
  /// evicting obsolete cluster associations of in-progress ones.
  void AdvanceTime(double now_s);

  // --- Refresh (live map updates) ----------------------------------------

  /// Rebuilds the discretization over the (possibly updated) graph, re-homes
  /// every live ride into a fresh RideIndex, and swaps the snapshot with an
  /// epoch bump. Serial: callers that share this system across threads must
  /// hold the writer lock (ConcurrentXarSystem does this per shard, building
  /// the snapshot once outside all locks). An empty delta is a "no-op"
  /// refresh: same tables, new epoch.
  RefreshStats RefreshDiscretization(const GraphDelta& delta = {});

  /// Installs an already-built snapshot (skipping the rebuild) and re-homes
  /// live rides; returns how many were re-homed. `new_graph`, if non-null,
  /// replaces the current graph (same node ids/topology required — routes
  /// are re-profiled, not re-planned); `new_oracle` likewise.
  std::size_t AdoptSnapshot(std::shared_ptr<const RegionSnapshot> next,
                            const RoadGraph* new_graph,
                            DistanceOracle* new_oracle);

  // --- Introspection -------------------------------------------------------

  double Now() const { return clock_.Now(); }
  const Ride* GetRide(RideId id) const;

  /// True iff `id` is one this instance has assigned (it matches the
  /// offset/stride pattern of XarOptions and has been created). Writes on
  /// foreign ids are rejected with NotFound.
  bool OwnsRide(RideId id) const {
    return id.valid() && id.value() >= options_.ride_id_offset &&
           (id.value() - options_.ride_id_offset) % options_.ride_id_stride ==
               0 &&
           LocalIndex(id) < rides_.size();
  }
  std::size_t NumRides() const { return rides_.size(); }
  std::size_t NumActiveRides() const { return active_rides_; }
  /// The candidate-generation index behind Search (XarOptions::match_index).
  const MatchIndex& match_index() const { return *index_; }
  /// The wrapped cluster structure, for introspection of pass-throughs and
  /// registrations. Only meaningful on the default kCluster backend;
  /// asserts on others.
  const RideIndex& ride_index() const;
  /// The current region. The reference stays valid until the next
  /// RefreshDiscretization/AdoptSnapshot; pin the snapshot() instead when
  /// holding it across a possible refresh.
  const RegionIndex& region() const {
    return *snapshot_.load(std::memory_order_acquire)->index;
  }
  /// Pins the current snapshot (keeps its RegionIndex alive past refreshes).
  std::shared_ptr<const RegionSnapshot> snapshot() const {
    return snapshot_.load(std::memory_order_acquire);
  }
  /// Current discretization generation (0 until the first refresh).
  std::uint64_t epoch() const {
    return snapshot_.load(std::memory_order_acquire)->epoch;
  }
  const RefreshStats& refresh_stats() const { return refresh_stats_; }
  /// Lifecycle counters plus live gauges scanned over the current fleet's
  /// persistent schedules (all zero while kinetic_booking is off).
  PoolingStats pooling_stats() const;
  /// The ride's persistent kinetic schedule, or nullptr when it has none
  /// (kinetic_booking off, no kinetic booking yet, or the ride finished).
  /// Test/introspection seam — never mutate through it.
  const RideSchedule* GetSchedule(RideId id) const;
  const XarOptions& options() const { return options_; }
  /// The oracle answering this system's routing queries (swapped by
  /// AdoptSnapshot on graph deltas). Exposed for the stats surface.
  const DistanceOracle& oracle() const { return *oracle_; }
  const std::vector<BookingRecord>& bookings() const { return bookings_; }

  /// Bytes held by the ride index plus ride state (Fig. 3c numerator; add
  /// region().MemoryFootprint() for the full in-memory structure).
  std::size_t MemoryFootprint() const;

 private:
  /// RideLookup the match index resolves candidate ids against: backends
  /// never store ride state, this system's table is the truth.
  class RideTable final : public RideLookup {
   public:
    explicit RideTable(const XarSystem* system) : system_(system) {}
    const Ride* Find(RideId id) const override {
      return system_->GetRide(id);
    }

   private:
    const XarSystem* system_;
  };

  /// Position of `id` in rides_ under the offset/stride id scheme.
  std::size_t LocalIndex(RideId id) const {
    return (id.value() - options_.ride_id_offset) / options_.ride_id_stride;
  }
  Ride& MutableRide(RideId id) { return rides_[LocalIndex(id)]; }
  void FinishRide(Ride& ride);
  void ScheduleNextEvent(const Ride& ride);

  /// Kinetic-booking path (XarOptions::kinetic_booking): inserts the rider
  /// into the ride's persistent kinetic schedule — materializing it from the
  /// via list on first use — and rebuilds the route stop-to-stop from the
  /// committed prefix plus the best remaining ordering. Works on departed
  /// (in-progress) rides: the tree is rooted at the last passed stop.
  /// Returns NotFound if no feasible ordering exists.
  Result<BookingRecord> BookKinetic(Ride& ride, const RideRequest& request,
                                    const RideMatch& match, NodeId pickup,
                                    NodeId dropoff);

  /// The ride's persistent schedule, materialized from its via list on first
  /// use (root at the last passed via-point; passed pickups become onboard
  /// riders). nullptr only on corrupted ride state.
  RideSchedule* EnsureKineticSchedule(Ride& ride);

  /// Rebuilds the ride's route/via/profile state from its schedule: source,
  /// committed stops, best remaining ordering, destination. With
  /// `enforce_budget`, fails (ride untouched) when the exact route exceeds
  /// the driver's detour limit — callers roll the tree back.
  Status ApplyKineticPlan(Ride& ride, const RideSchedule& schedule,
                          bool enforce_budget, std::size_t* sp_count);

  /// Shared unwinding behind CancelBooking and ReportNoShow: removes the
  /// rider's via-point pair, re-routes through the kept via-points, refunds
  /// seat + detour budget, re-indexes. `allow_passed_pickup` is the only
  /// difference between the two callers.
  Status RemoveRider(RideId ride, RequestId request, bool allow_passed_pickup);

  const RoadGraph* graph_;  ///< swapped by AdoptSnapshot on graph deltas
  const SpatialNodeIndex& spatial_;
  /// Current discretization. Atomic so in-flight searches can pin it while a
  /// refresh swaps in the next epoch; the old RegionIndex stays alive until
  /// the last pinned reader releases it.
  std::atomic<std::shared_ptr<const RegionSnapshot>> snapshot_;
  DistanceOracle* oracle_;  ///< swapped by AdoptSnapshot on graph deltas
  XarOptions options_;

  std::vector<Ride> rides_;  // indexed by RideId
  /// Persistent kinetic schedules, parallel to rides_ (nullptr = none).
  /// Kept out of Ride so GetRide copies (ConcurrentXarSystem hands rides
  /// across its lock boundary by value) stay cheap and tree-free.
  std::vector<std::unique_ptr<RideSchedule>> schedules_;
  /// The pluggable candidate-generation index (XarOptions::match_index).
  /// Rebound to the new snapshot on refresh (OnEpochSwap) — a backend
  /// resolves against exactly one region epoch.
  std::unique_ptr<MatchIndex> index_;
  std::vector<BookingRecord> bookings_;
  VirtualClock clock_;
  std::size_t active_rides_ = 0;
  RefreshStats refresh_stats_;
  PoolingStats pooling_counters_;  ///< counters only; gauges scanned live

  // Tracking wake-up queue: (event time, ride). Entries may be stale; they
  // are validated on pop.
  using Event = std::pair<double, RideId>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
};

}  // namespace xar

#endif  // XAR_XAR_XAR_SYSTEM_H_
