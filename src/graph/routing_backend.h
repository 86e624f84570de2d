#ifndef XAR_GRAPH_ROUTING_BACKEND_H_
#define XAR_GRAPH_ROUTING_BACKEND_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "graph/contraction_hierarchy.h"
#include "graph/path.h"
#include "graph/road_graph.h"

namespace xar {

/// Stable lowercase name of a metric ("drive_m", "drive_s", "walk_m") for
/// logs, stats sections and bench JSON.
const char* MetricName(Metric metric);

/// The shortest-path algorithm the oracle runs on a cache miss.
enum class RoutingBackendKind {
  kDijkstra,  ///< plain unidirectional Dijkstra (baseline; best one-to-many)
  kAStar,     ///< A* with the geometric heuristic (no preprocessing)
  kAlt,       ///< A* with landmark (anchor) lower bounds (light preprocessing)
  kCh,        ///< contraction hierarchies (heavy preprocessing, fastest)
};

/// Stable lowercase name ("dijkstra", "astar", "alt", "ch") for logs/JSON.
const char* RoutingBackendName(RoutingBackendKind kind);

/// Inverse of RoutingBackendName; nullopt on unknown names.
std::optional<RoutingBackendKind> ParseRoutingBackend(std::string_view name);

/// Like ParseRoutingBackend, but unknown names yield an InvalidArgument
/// status that lists the valid names. Use this wherever the name comes
/// from user input (CLI flags, environment variables, config files) so a
/// typo is an error instead of a silent fall-through to the default.
Result<RoutingBackendKind> RoutingBackendFromString(std::string_view name);

/// How a backend obtained one metric's preprocessing product.
enum class PreprocessSource {
  kBuilt,      ///< built from scratch on this backend's graph
  kReordered,  ///< re-contracted in an outgoing backend's node order
  kInherited,  ///< shared unchanged from an outgoing backend (no build)
};

/// Stable lowercase name ("built", "reordered", "inherited").
const char* PreprocessSourceName(PreprocessSource source);

/// One metric's preprocessing product (e.g. its contraction hierarchy):
/// how it was obtained, how long this backend spent on it and with how many
/// worker threads. The stats surface renders these under the "preprocess"
/// section and names each source in the "oracle" section.
struct PreprocessTiming {
  Metric metric = Metric::kDriveDistance;
  PreprocessSource source = PreprocessSource::kBuilt;
  double build_ms = 0.0;     ///< 0 for an inherited product
  std::size_t threads = 1;   ///< worker threads the build ran with
  std::size_t batches = 0;   ///< independent-set rounds (CH; 0 otherwise)
  std::size_t shortcuts = 0; ///< shortcut arcs added (CH; 0 otherwise)
};

struct RoutingBackendOptions {
  /// Landmark count for the ALT backend.
  std::size_t alt_anchors = 8;
  /// Preprocessing knobs for the CH backend.
  ChOptions ch;
};

/// Point-to-point routing engine behind the DistanceOracle.
///
/// A backend owns whatever preprocessing its algorithm needs (anchor tables,
/// hierarchies) plus a pool of per-thread query workspaces, so every method
/// is safe to call from any number of threads concurrently. Preprocessing
/// is lazy per metric: the first query (or an explicit Prepare) under a
/// metric pays the build, later queries reuse it.
class RoutingBackend {
 public:
  virtual ~RoutingBackend() = default;

  /// One-to-one distance under `metric`; +inf if unreachable.
  virtual double Distance(NodeId from, NodeId to, Metric metric) = 0;

  /// One-to-one path (original-graph nodes + both totals); empty path if
  /// unreachable.
  virtual Path Route(NodeId from, NodeId to, Metric metric) = 0;

  /// Distance from `src` to each of `targets` (same order); +inf where
  /// unreachable. Backends with a fast one-to-many (Dijkstra's native
  /// search, CH target buckets) override the default point-to-point loop.
  virtual std::vector<double> DistancesToMany(NodeId src,
                                              const std::vector<NodeId>& targets,
                                              Metric metric);

  /// Batch distances from every source to every target, row-major
  /// |sources| x |targets| (+inf where unreachable). The CH backend answers
  /// the whole batch with one bucket structure (build the target buckets
  /// once, scan them once per source); everything else falls back to one
  /// DistancesToMany per source.
  virtual std::vector<double> ManyToMany(const std::vector<NodeId>& sources,
                                         const std::vector<NodeId>& targets,
                                         Metric metric);

  /// Forces any preprocessing for `metric` to run now (no-op for backends
  /// without preprocessing). Used to build hierarchies off-thread before a
  /// refresh swap so no query ever pays the build under a lock.
  virtual void Prepare(Metric /*metric*/) {}

  /// Takes over what `outgoing` (the backend this one replaces in a
  /// refresh) has already prepared, as far as it still holds for this
  /// backend's graph. Call it before this backend serves queries, while
  /// `outgoing` is alive; afterwards this backend needs nothing from it.
  /// The CH backend shares each hierarchy whose metric's arc weights are
  /// unchanged and re-contracts the others in the outgoing node order, so
  /// a congestion refresh, which changes driving times only, rebuilds one
  /// hierarchy instead of three. Metrics already prepared here, and
  /// backends of another kind, witness limit or arc set, are left alone.
  virtual void InheritFrom(const RoutingBackend& /*outgoing*/) {}

  virtual RoutingBackendKind kind() const = 0;
  const char* name() const { return RoutingBackendName(kind()); }

  /// Cumulative nodes settled across all queries (all threads).
  virtual std::size_t settled_count() const = 0;

  /// Cumulative Distance/Route/DistancesToMany calls.
  virtual std::size_t query_count() const = 0;

  /// Total milliseconds this backend spent in preprocessing so far (0 when
  /// none ran; inherited products cost nothing).
  virtual double preprocess_millis() const { return 0.0; }

  /// Per-metric preprocessing timings completed so far (one entry per
  /// metric whose product is ready). Empty for preprocessing-free backends.
  virtual std::vector<PreprocessTiming> preprocess_timings() const {
    return {};
  }

  /// Rough bytes held: preprocessing products + pooled idle workspaces.
  virtual std::size_t MemoryFootprint() const = 0;

  /// Batch calls (DistancesToMany / ManyToMany) answered by a true
  /// many-to-many structure — the CH target buckets. One increment per
  /// batch call, regardless of its size.
  std::size_t m2m_batch_count() const {
    return m2m_batch_.load(std::memory_order_relaxed);
  }

  /// One-to-many requests served by a fallback loop (per-pair or native
  /// single-source). A ManyToMany falling back counts once per source row —
  /// that is what it actually costs.
  std::size_t m2m_fallback_count() const {
    return m2m_fallback_.load(std::memory_order_relaxed);
  }

 protected:
  void CountBatchQuery() {
    m2m_batch_.fetch_add(1, std::memory_order_relaxed);
  }
  void CountFallbackQuery() {
    m2m_fallback_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::size_t> m2m_batch_{0};
  std::atomic<std::size_t> m2m_fallback_{0};
};

/// Builds a backend of `kind` over `graph`. The graph must outlive the
/// backend.
std::unique_ptr<RoutingBackend> MakeRoutingBackend(
    RoutingBackendKind kind, const RoadGraph& graph,
    const RoutingBackendOptions& options = {});

}  // namespace xar

#endif  // XAR_GRAPH_ROUTING_BACKEND_H_
