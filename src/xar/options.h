#ifndef XAR_XAR_OPTIONS_H_
#define XAR_XAR_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "graph/oracle_cache.h"
#include "graph/routing_backend.h"

namespace xar {

/// Runtime knobs of the XAR matching engine.
struct XarOptions {
  /// Default maximum detour (meters) a driver accepts, when the offer does
  /// not specify one. The paper's T-Share comparison uses ~4 km.
  double default_detour_limit_m = 4000.0;

  /// Default walking threshold (meters) for requests that do not set one.
  double default_walk_limit_m = 1000.0;

  /// Seats offered to co-riders when an offer does not specify (paper:
  /// capacity 4 including the driver => 3 shareable seats).
  int default_seats = 3;

  /// Slack added on both sides of a request's departure window when probing
  /// cluster ETA lists, absorbing ETA estimation error.
  double eta_window_slack_s = 240.0;

  /// Upper bound on the time a matched rider can remain on board; bounds the
  /// destination-side ETA probe window (Step 2 of Search).
  double max_onboard_s = 2700.0;

  /// If nonzero, Search returns at most this many matches (top-k by least
  /// walking). Zero = return all feasible matches.
  std::size_t max_results = 0;

  /// Booking-time schedule optimization (extension; see DESIGN.md §6):
  /// when true, bookings re-order every rider stop not yet passed with the
  /// ride's persistent kinetic tree (Huang et al.) instead of splicing the
  /// new pair into fixed segments — on in-progress rides too, where the
  /// tree is rooted at the last stop the vehicle passed. Produces shorter
  /// multi-rider routes but forfeits the paper's <= 4 shortest-path bound
  /// per booking (the route is rebuilt stop-to-stop).
  bool kinetic_booking = false;

  /// Retry policy of ConcurrentXarSystem::SearchAndBook: total number of
  /// search rounds (first try + re-searches). A round is only re-run when
  /// the previous one's candidates all went stale or the discretization
  /// epoch moved mid-search; 1 disables re-searching entirely.
  std::size_t search_and_book_rounds = 2;

  /// Meeting-points scenario (Laupichler & Sanders 2023): when true, Search
  /// keeps up to meeting_point_candidates pickup/drop-off landmarks per
  /// ride and side (instead of only the least-walk one), emitting one match
  /// per feasible combination — a rider willing to walk a little further
  /// can board at a meeting point that costs the driver less detour. Every
  /// emitted match passes the same walk/ETA/detour threshold checks, so the
  /// 4-epsilon detour guarantee is unchanged. Book then takes the
  /// combinations in walk order like any other candidates.
  bool meeting_points = false;

  /// Per ride and side, how many candidate meeting points Search keeps (and
  /// at most how many combined matches it emits per ride) when
  /// meeting_points is on.
  std::size_t meeting_point_candidates = 4;

  /// Which shortest-path backend the GraphOracle serving this system runs
  /// on cache misses. The system takes the oracle by reference, so this is
  /// honored by whoever constructs the oracle (simulators, benches,
  /// examples, the command-server main); contraction hierarchies are the
  /// production default — order-of-magnitude fewer settled nodes per
  /// booking once the lazy per-metric build has run.
  RoutingBackendKind routing_backend = RoutingBackendKind::kCh;

  /// The distance cache of the GraphOracle serving this system. kClock
  /// (lossy lock-free CLOCK approximation) is the only value.
  OracleCachePolicy oracle_cache = OracleCachePolicy::kClock;

  /// Worker threads for backend preprocessing (contraction-hierarchy
  /// builds); 0 = hardware concurrency. Honored wherever the oracle is
  /// constructed (see BackendOptions()), including the off-thread Prewarm a
  /// RefreshDiscretization runs before swapping snapshots — the build is
  /// deterministic, so thread count never changes a route.
  std::size_t preprocess_threads = 0;

  /// RoutingBackendOptions carrying this struct's backend knobs; pass to
  /// GraphOracle / MakeRoutingBackend so simulators, benches and servers
  /// construct identically-configured backends.
  RoutingBackendOptions BackendOptions() const {
    RoutingBackendOptions backend_options;
    backend_options.ch.preprocess_threads = preprocess_threads;
    return backend_options;
  }

  /// Ride-id assignment: the i-th created ride gets
  /// id = ride_id_offset + i * ride_id_stride. The defaults (0, 1) produce
  /// the dense 0,1,2,... ids of a standalone system. A sharded deployment
  /// (ConcurrentXarSystem) gives shard s offset = s and stride = N so ids
  /// are globally unique and the owning shard is recoverable as id % N.
  std::uint32_t ride_id_offset = 0;
  std::uint32_t ride_id_stride = 1;
};

}  // namespace xar

#endif  // XAR_XAR_OPTIONS_H_
