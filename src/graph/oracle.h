#ifndef XAR_GRAPH_ORACLE_H_
#define XAR_GRAPH_ORACLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/stats_registry.h"
#include "graph/oracle_cache.h"
#include "graph/path.h"
#include "graph/road_graph.h"
#include "graph/routing_backend.h"

namespace xar {

/// Point-to-point distance/route provider.
///
/// Everything above the graph layer (discretization, XAR booking/creation,
/// T-Share's lazy shortest paths, the MMTP) talks to this interface, which
/// makes the routing backend swappable: real routing, haversine (the paper's
/// Fig. 5a T-Share variant) or a test double.
///
/// Implementations must be safe to call from multiple threads: the sharded
/// ConcurrentXarSystem lets bookings on different shards run concurrently,
/// and all of them share one oracle.
class DistanceOracle {
 public:
  virtual ~DistanceOracle() = default;

  /// Driving distance in meters; +inf if unreachable.
  virtual double DriveDistance(NodeId from, NodeId to) = 0;

  /// Driving time in seconds; +inf if unreachable.
  virtual double DriveTime(NodeId from, NodeId to) = 0;

  /// Walking distance in meters; +inf if unreachable.
  virtual double WalkDistance(NodeId from, NodeId to) = 0;

  /// Full driving route (shortest by distance). Empty path if unreachable.
  virtual Path DriveRoute(NodeId from, NodeId to) = 0;

  /// Driving distance from `from` to each of `targets` (same order); +inf
  /// where unreachable. Default: one DriveDistance per target, so every
  /// oracle (haversine, test doubles) supports the batch API.
  virtual std::vector<double> DriveDistancesToMany(
      NodeId from, const std::vector<NodeId>& targets);

  /// Batch driving distances, row-major |sources| x |targets|. GraphOracle
  /// probes its cache per pair and answers all misses with ONE backend
  /// many-to-many call (CH target buckets); the default loops
  /// DriveDistance.
  virtual std::vector<double> DriveDistanceMatrix(
      const std::vector<NodeId>& sources, const std::vector<NodeId>& targets);

  /// Number of real shortest-path computations performed (cache misses).
  /// Lets benchmarks report how many shortest paths each operation cost.
  virtual std::size_t computation_count() const { return 0; }

  /// Distance queries answered from a cache without a computation.
  virtual std::size_t cache_hit_count() const { return 0; }

  /// Cumulative nodes settled by the underlying search backend.
  virtual std::size_t settled_count() const { return 0; }

  /// Stable name of the routing backend answering cache misses.
  virtual const char* backend_name() const { return "none"; }

  /// Stable name of the distance-cache policy ("none" for cache-less
  /// oracles); see OracleCachePolicy.
  virtual const char* cache_policy_name() const { return "none"; }

  /// Insert-path counters of the distance cache (all zero for cache-less
  /// oracles); see OracleCacheCounters.
  virtual OracleCacheCounters cache_counters() const { return {}; }

  /// Forces any lazy backend preprocessing (e.g. contraction hierarchies
  /// for all metrics) to run now. Refresh paths call this off-thread, with
  /// no locks held, so the first post-swap query never pays a build.
  virtual void Prewarm() {}

  /// The routing backend answering cache misses, when there is one
  /// (GraphOracle); nullptr for backend-less oracles (haversine, doubles).
  /// Lets the stats surface reach preprocessing timings through the
  /// DistanceOracle interface the systems hold.
  virtual const RoutingBackend* routing_backend() const { return nullptr; }

  /// Mutable variant, for callers that route batch work through the
  /// backend directly (the landmark-matrix rebuild during a refresh).
  virtual RoutingBackend* mutable_routing_backend() { return nullptr; }
};

/// Exact oracle backed by a pluggable RoutingBackend over a RoadGraph, with
/// a distance result cache in front of it (distance queries only; routes are
/// always computed). The default backend is contraction hierarchies — the
/// fastest per query once its lazy per-metric build has run; Dijkstra needs
/// no preprocessing and ALT only a few landmark searches.
///
/// The cache is the lossy lock-free CLOCK approximation (OracleClockCache):
/// no locks on the read or insert path, so same-bucket insertions never
/// serialize. Losing an insert race drops the entry and the backend
/// recomputes; returned distances are bit-identical either way because the
/// backend is a pure function of (from, to, metric). Capacity 0 means no
/// cache at all, which makes the uncached oracle the differential reference
/// for the cached one.
///
/// Thread-safe: the backend leases per-thread workspaces internally, so any
/// number of threads can query concurrently. Two threads racing on the same
/// cold key may both compute it; computation_count() reports real
/// computations, so single-threaded counts are exact.
class GraphOracle : public DistanceOracle {
 public:
  /// `cache_capacity` = max cached (src,dst,metric) distance entries;
  /// 0 disables caching. `cache_policy` names the cache kind; CLOCK is the
  /// only one.
  explicit GraphOracle(const RoadGraph& graph,
                       std::size_t cache_capacity = 1 << 16,
                       RoutingBackendKind backend = RoutingBackendKind::kCh,
                       const RoutingBackendOptions& backend_options = {},
                       OracleCachePolicy cache_policy =
                           OracleCachePolicy::kClock);

  /// Takes ownership of a caller-built backend (tests, unusual configs).
  GraphOracle(const RoadGraph& graph, std::unique_ptr<RoutingBackend> backend,
              std::size_t cache_capacity = 1 << 16);

  double DriveDistance(NodeId from, NodeId to) override;
  double DriveTime(NodeId from, NodeId to) override;
  double WalkDistance(NodeId from, NodeId to) override;
  Path DriveRoute(NodeId from, NodeId to) override;

  std::vector<double> DriveDistancesToMany(
      NodeId from, const std::vector<NodeId>& targets) override;
  std::vector<double> DriveDistanceMatrix(
      const std::vector<NodeId>& sources,
      const std::vector<NodeId>& targets) override;

  std::size_t computation_count() const override {
    return computations_.load(std::memory_order_relaxed);
  }
  std::size_t cache_hit_count() const override {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  std::size_t settled_count() const override {
    return backend_->settled_count();
  }
  const char* backend_name() const override { return backend_->name(); }
  const char* cache_policy_name() const override {
    return cache_ == nullptr ? "none"
                             : OracleCachePolicyName(OracleCachePolicy::kClock);
  }
  OracleCacheCounters cache_counters() const override {
    return cache_ == nullptr ? OracleCacheCounters{} : cache_->counters();
  }
  void Prewarm() override;

  RoutingBackend& backend() { return *backend_; }
  const RoutingBackend& backend() const { return *backend_; }
  const RoutingBackend* routing_backend() const override {
    return backend_.get();
  }
  RoutingBackend* mutable_routing_backend() override { return backend_.get(); }

 private:
  double CachedDistance(NodeId from, NodeId to, Metric metric);

  const RoadGraph& graph_;
  std::unique_ptr<RoutingBackend> backend_;
  /// Null when the capacity is 0.
  std::unique_ptr<OracleClockCache> cache_;

  std::atomic<std::size_t> computations_{0};
  std::atomic<std::size_t> cache_hits_{0};
};

/// Straight-line (haversine) approximation oracle. DriveRoute returns the
/// two-node direct path. Used for the "no shortest path" T-Share variant and
/// as a cheap lower-bound oracle in tests. Stateless per query, hence
/// trivially thread-safe.
class HaversineOracle : public DistanceOracle {
 public:
  /// `drive_speed_mps` converts distances to times.
  explicit HaversineOracle(const RoadGraph& graph,
                           double drive_speed_mps = 8.33);

  double DriveDistance(NodeId from, NodeId to) override;
  double DriveTime(NodeId from, NodeId to) override;
  double WalkDistance(NodeId from, NodeId to) override;
  Path DriveRoute(NodeId from, NodeId to) override;

  const char* backend_name() const override { return "haversine"; }

 private:
  const RoadGraph& graph_;
  double drive_speed_mps_;
};

/// Readies `incoming` to replace `outgoing` in a refresh: its routing
/// backend first takes over the outgoing backend's preprocessing where it
/// still holds (RoutingBackend::InheritFrom), then Prewarm builds the rest.
/// Both refresh paths call this off-thread before the swap.
void PrewarmFrom(DistanceOracle& incoming, const DistanceOracle& outgoing);

/// "oracle" stats section (backend, cache policy, computations, cache hits,
/// hit rate, settled nodes, insert-path counters, and how each prepared
/// metric's preprocessing was obtained, e.g. `drive_m=inherited`). Register
/// on a StatsRegistry:
///   registry.Register("oracle", [&] { return OracleStatsSection(oracle); });
StatsSection OracleStatsSection(const DistanceOracle& oracle);

/// "preprocess" stats section: one row per prepared metric (metric, build
/// ms, worker threads, batches, shortcuts, source). Empty for
/// preprocessing-free backends.
StatsSection PreprocessStatsSection(const RoutingBackend& backend);

}  // namespace xar

#endif  // XAR_GRAPH_ORACLE_H_
