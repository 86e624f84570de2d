#include "graph/routing_backend.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <span>
#include <utility>

#include "common/enum_option.h"
#include "graph/alt.h"
#include "graph/dijkstra.h"
#include "graph/path_profile.h"

namespace xar {

std::vector<double> RoutingBackend::DistancesToMany(
    NodeId src, const std::vector<NodeId>& targets, Metric metric) {
  CountFallbackQuery();
  std::vector<double> out;
  out.reserve(targets.size());
  for (NodeId t : targets) out.push_back(Distance(src, t, metric));
  return out;
}

std::vector<double> RoutingBackend::ManyToMany(
    const std::vector<NodeId>& sources, const std::vector<NodeId>& targets,
    Metric metric) {
  // Fallback shape: one one-to-many per source (each row counts itself via
  // the DistancesToMany override it lands in).
  std::vector<double> out;
  out.reserve(sources.size() * targets.size());
  for (NodeId s : sources) {
    std::vector<double> row = DistancesToMany(s, targets, metric);
    out.insert(out.end(), row.begin(), row.end());
  }
  return out;
}

namespace {

constexpr std::size_t kNumMetrics = 3;

std::size_t MetricIndex(Metric metric) {
  return static_cast<std::size_t>(metric);
}

/// Same nodes, and at every node the same arcs in the same order (the
/// GraphDelta contract): node ids, and with them a node order, carry over.
bool SameArcs(const RoadGraph& a, const RoadGraph& b) {
  if (&a == &b) return true;
  if (a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges()) {
    return false;
  }
  for (std::size_t u = 0; u < a.NumNodes(); ++u) {
    const NodeId node(static_cast<NodeId::underlying_type>(u));
    std::span<const RoadEdge> ea = a.OutEdges(node);
    std::span<const RoadEdge> eb = b.OutEdges(node);
    if (ea.size() != eb.size()) return false;
    for (std::size_t i = 0; i < ea.size(); ++i) {
      if (ea[i].to != eb[i].to) return false;
    }
  }
  return true;
}

/// Whether every arc of two SameArcs graphs weighs exactly the same under
/// `metric`.
bool SameWeights(const RoadGraph& a, const RoadGraph& b, Metric metric) {
  if (&a == &b) return true;
  for (std::size_t u = 0; u < a.NumNodes(); ++u) {
    const NodeId node(static_cast<NodeId::underlying_type>(u));
    std::span<const RoadEdge> ea = a.OutEdges(node);
    std::span<const RoadEdge> eb = b.OutEdges(node);
    for (std::size_t i = 0; i < ea.size(); ++i) {
      if (RoadGraph::EdgeWeight(ea[i], metric) !=
          RoadGraph::EdgeWeight(eb[i], metric)) {
        return false;
      }
    }
  }
  return true;
}

/// Lease pool of per-thread query workspaces: engines keep mutable state,
/// so one engine must never run two queries at once. The pool grows to the
/// peak number of concurrent callers and then stops allocating.
template <typename Engine>
class EnginePool {
 public:
  class Lease {
   public:
    Lease(EnginePool& pool, std::unique_ptr<Engine> engine)
        : owner_(pool), engine_(std::move(engine)) {}
    ~Lease() { owner_.Release(std::move(engine_)); }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Engine& operator*() { return *engine_; }
    Engine* operator->() { return engine_.get(); }

   private:
    EnginePool& owner_;
    std::unique_ptr<Engine> engine_;
  };

  template <typename Factory>
  Lease Acquire(Factory&& make) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!idle_.empty()) {
        std::unique_ptr<Engine> engine = std::move(idle_.back());
        idle_.pop_back();
        return Lease(*this, std::move(engine));
      }
    }
    return Lease(*this, make());
  }

  /// Sum of `footprint` over idle engines (leased ones are transient).
  template <typename FootprintFn>
  std::size_t IdleFootprint(FootprintFn&& footprint) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t bytes = 0;
    for (const auto& engine : idle_) bytes += footprint(*engine);
    return bytes;
  }

 private:
  void Release(std::unique_ptr<Engine> engine) {
    std::lock_guard<std::mutex> lock(mutex_);
    idle_.push_back(std::move(engine));
  }

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Engine>> idle_;
};

class DijkstraBackend final : public RoutingBackend {
 public:
  explicit DijkstraBackend(const RoadGraph& graph) : graph_(graph) {}

  double Distance(NodeId from, NodeId to, Metric metric) override {
    auto engine = AcquireEngine();
    double d = engine->Distance(from, to, metric);
    Account(engine->last_settled_count());
    return d;
  }

  Path Route(NodeId from, NodeId to, Metric metric) override {
    auto engine = AcquireEngine();
    Path p = engine->ShortestPath(from, to, metric);
    Account(engine->last_settled_count());
    return p;
  }

  std::vector<double> DistancesToMany(NodeId src,
                                      const std::vector<NodeId>& targets,
                                      Metric metric) override {
    CountFallbackQuery();
    auto engine = AcquireEngine();
    std::vector<double> out = engine->DistancesToMany(src, targets, metric);
    Account(engine->last_settled_count());
    return out;
  }

  std::vector<double> ManyToMany(const std::vector<NodeId>& sources,
                                 const std::vector<NodeId>& targets,
                                 Metric metric) override {
    // One leased engine serves every row; each row is still a native
    // single-source search, so it counts as a fallback query.
    auto engine = AcquireEngine();
    std::vector<double> out;
    out.reserve(sources.size() * targets.size());
    for (NodeId s : sources) {
      CountFallbackQuery();
      std::vector<double> row = engine->DistancesToMany(s, targets, metric);
      Account(engine->last_settled_count());
      out.insert(out.end(), row.begin(), row.end());
    }
    return out;
  }

  RoutingBackendKind kind() const override {
    return RoutingBackendKind::kDijkstra;
  }
  std::size_t settled_count() const override {
    return settled_.load(std::memory_order_relaxed);
  }
  std::size_t query_count() const override {
    return queries_.load(std::memory_order_relaxed);
  }
  std::size_t MemoryFootprint() const override {
    return sizeof(*this) + engines_.IdleFootprint([](const DijkstraEngine& e) {
      return e.MemoryFootprint();
    });
  }

 private:
  EnginePool<DijkstraEngine>::Lease AcquireEngine() {
    return engines_.Acquire(
        [this] { return std::make_unique<DijkstraEngine>(graph_); });
  }
  void Account(std::size_t settled) {
    settled_.fetch_add(settled, std::memory_order_relaxed);
    queries_.fetch_add(1, std::memory_order_relaxed);
  }

  const RoadGraph& graph_;
  EnginePool<DijkstraEngine> engines_;
  std::atomic<std::size_t> settled_{0};
  std::atomic<std::size_t> queries_{0};
};

/// Shared scaffolding for the preprocessing backends (ALT, CH): one lazily
/// built immutable product per metric (std::call_once so racing first
/// queries — and TSan — see exactly one build), plus a workspace pool.
class AltBackend final : public RoutingBackend {
 public:
  AltBackend(const RoadGraph& graph, std::size_t anchors)
      : graph_(graph), anchors_(anchors) {}

  double Distance(NodeId from, NodeId to, Metric metric) override {
    PerMetric& pm = Ensure(metric);
    auto engine = pm.pool.Acquire(
        [&pm] { return std::make_unique<AltEngine>(*pm.prototype); });
    double d = engine->Distance(from, to);
    Account(engine->last_settled_count());
    return d;
  }

  Path Route(NodeId from, NodeId to, Metric metric) override {
    PerMetric& pm = Ensure(metric);
    auto engine = pm.pool.Acquire(
        [&pm] { return std::make_unique<AltEngine>(*pm.prototype); });
    Path p = engine->ShortestPath(from, to);
    Account(engine->last_settled_count());
    return p;
  }

  std::vector<double> DistancesToMany(NodeId src,
                                      const std::vector<NodeId>& targets,
                                      Metric metric) override {
    // Per-pair ALT (no one-to-many structure), but through ONE leased
    // engine so the loop does not pay a pool round-trip per target.
    CountFallbackQuery();
    PerMetric& pm = Ensure(metric);
    auto engine = pm.pool.Acquire(
        [&pm] { return std::make_unique<AltEngine>(*pm.prototype); });
    std::vector<double> out;
    out.reserve(targets.size());
    std::size_t settled = 0;
    for (NodeId t : targets) {
      out.push_back(engine->Distance(src, t));
      settled += engine->last_settled_count();
    }
    Account(settled);
    return out;
  }

  void Prepare(Metric metric) override { Ensure(metric); }

  RoutingBackendKind kind() const override { return RoutingBackendKind::kAlt; }
  std::size_t settled_count() const override {
    return settled_.load(std::memory_order_relaxed);
  }
  std::size_t query_count() const override {
    return queries_.load(std::memory_order_relaxed);
  }
  double preprocess_millis() const override {
    return static_cast<double>(
               preprocess_micros_.load(std::memory_order_relaxed)) /
           1000.0;
  }
  std::size_t MemoryFootprint() const override {
    std::size_t bytes = sizeof(*this);
    for (const PerMetric& pm : metrics_) {
      // The prototype's footprint covers the shared tables; idle clones
      // only add their workspaces, which the prototype's count mirrors.
      if (pm.prototype) bytes += pm.prototype->MemoryFootprint();
      bytes += pm.pool.IdleFootprint([](const AltEngine& e) {
        return e.MemoryFootprint() / 2;  // tables shared with the prototype
      });
    }
    return bytes;
  }

 private:
  struct PerMetric {
    std::once_flag once;
    std::unique_ptr<AltEngine> prototype;
    EnginePool<AltEngine> pool;
  };

  PerMetric& Ensure(Metric metric) {
    PerMetric& pm = metrics_[MetricIndex(metric)];
    std::call_once(pm.once, [this, &pm, metric] {
      auto start = std::chrono::steady_clock::now();
      pm.prototype = std::make_unique<AltEngine>(graph_, anchors_, metric);
      auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
      preprocess_micros_.fetch_add(micros, std::memory_order_relaxed);
    });
    return pm;
  }
  void Account(std::size_t settled) {
    settled_.fetch_add(settled, std::memory_order_relaxed);
    queries_.fetch_add(1, std::memory_order_relaxed);
  }

  const RoadGraph& graph_;
  std::size_t anchors_;
  PerMetric metrics_[kNumMetrics];
  std::atomic<std::size_t> settled_{0};
  std::atomic<std::size_t> queries_{0};
  std::atomic<std::int64_t> preprocess_micros_{0};
};

class ChBackend final : public RoutingBackend {
 public:
  ChBackend(const RoadGraph& graph, ChOptions options)
      : graph_(graph), options_(options) {}

  double Distance(NodeId from, NodeId to, Metric metric) override {
    PerMetric& pm = Ensure(metric);
    auto query = pm.pool.Acquire(
        [&pm] { return std::make_unique<ChQuery>(*pm.hierarchy); });
    double d = query->Distance(from, to);
    Account(query->last_settled_count());
    return d;
  }

  Path Route(NodeId from, NodeId to, Metric metric) override {
    PerMetric& pm = Ensure(metric);
    std::vector<NodeId> nodes;
    {
      auto query = pm.pool.Acquire(
          [&pm] { return std::make_unique<ChQuery>(*pm.hierarchy); });
      nodes = query->RouteNodes(from, to);
      Account(query->last_settled_count());
    }
    // The hierarchy may be shared from an outgoing backend whose graph has
    // other weights under other metrics (congested times under a shared
    // drive_m hierarchy), so the totals come from this backend's graph.
    return ProfileNodePath(graph_, std::move(nodes), metric);
  }

  std::vector<double> DistancesToMany(NodeId src,
                                      const std::vector<NodeId>& targets,
                                      Metric metric) override {
    CountBatchQuery();
    PerMetric& pm = Ensure(metric);
    auto query = pm.pool.Acquire(
        [&pm] { return std::make_unique<ChQuery>(*pm.hierarchy); });
    std::vector<double> out = query->DistancesToMany(src, targets);
    Account(query->last_settled_count());
    return out;
  }

  std::vector<double> ManyToMany(const std::vector<NodeId>& sources,
                                 const std::vector<NodeId>& targets,
                                 Metric metric) override {
    CountBatchQuery();
    PerMetric& pm = Ensure(metric);
    auto query = pm.pool.Acquire(
        [&pm] { return std::make_unique<ChQuery>(*pm.hierarchy); });
    std::vector<double> out = query->ManyToMany(sources, targets);
    Account(query->last_settled_count());
    return out;
  }

  void Prepare(Metric metric) override { Ensure(metric); }

  void InheritFrom(const RoutingBackend& outgoing) override {
    const auto* from = dynamic_cast<const ChBackend*>(&outgoing);
    // The witness limit shapes the hierarchy, so only an equal one yields
    // what a build here would have; other arcs invalidate node order too.
    if (from == nullptr || from == this ||
        from->options_.witness_search_limit != options_.witness_search_limit ||
        !SameArcs(from->graph_, graph_)) {
      return;
    }
    for (std::size_t i = 0; i < kNumMetrics; ++i) {
      const PerMetric& old = from->metrics_[i];
      if (!old.ready.load(std::memory_order_acquire)) continue;
      const Metric metric = static_cast<Metric>(i);
      if (SameWeights(from->graph_, graph_, metric)) {
        // Equal weights: a build here would reproduce it byte for byte.
        Obtain(metric, PreprocessSource::kInherited,
               [&old] { return old.hierarchy; });
      } else {
        // Changed weights: re-contracted in the outgoing node order, now,
        // while the outgoing hierarchy is known to be alive.
        Obtain(metric, PreprocessSource::kReordered, [&] {
          return std::make_shared<const ContractionHierarchy>(
              graph_, metric, *old.hierarchy, options_);
        });
      }
    }
  }

  RoutingBackendKind kind() const override { return RoutingBackendKind::kCh; }
  std::size_t settled_count() const override {
    return settled_.load(std::memory_order_relaxed);
  }
  std::size_t query_count() const override {
    return queries_.load(std::memory_order_relaxed);
  }
  double preprocess_millis() const override {
    return static_cast<double>(
               preprocess_micros_.load(std::memory_order_relaxed)) /
           1000.0;
  }
  std::vector<PreprocessTiming> preprocess_timings() const override {
    std::vector<PreprocessTiming> timings;
    for (std::size_t i = 0; i < kNumMetrics; ++i) {
      const PerMetric& pm = metrics_[i];
      if (!pm.ready.load(std::memory_order_acquire)) continue;
      PreprocessTiming t;
      t.metric = static_cast<Metric>(i);
      t.source = pm.source;
      t.build_ms = pm.source == PreprocessSource::kInherited
                       ? 0.0
                       : pm.hierarchy->build_millis();
      t.threads = pm.hierarchy->threads_used();
      t.batches = pm.hierarchy->num_batches();
      t.shortcuts = pm.hierarchy->NumShortcuts();
      timings.push_back(t);
    }
    return timings;
  }
  std::size_t MemoryFootprint() const override {
    std::size_t bytes = sizeof(*this);
    for (const PerMetric& pm : metrics_) {
      if (pm.hierarchy) bytes += pm.hierarchy->MemoryFootprint();
      bytes += pm.pool.IdleFootprint([](const ChQuery& q) {
        return q.MemoryFootprint();
      });
    }
    return bytes;
  }

 private:
  struct PerMetric {
    std::once_flag once;
    /// Shared with the backends this one was inherited from or hands over to.
    std::shared_ptr<const ContractionHierarchy> hierarchy;
    PreprocessSource source = PreprocessSource::kBuilt;
    /// Set (release) after `hierarchy` and `source` are final, so stats
    /// readers can observe finished builds without racing the call_once.
    std::atomic<bool> ready{false};
    EnginePool<ChQuery> pool;
  };

  PerMetric& Ensure(Metric metric) {
    return Obtain(metric, PreprocessSource::kBuilt, [this, metric] {
      return std::make_shared<const ContractionHierarchy>(graph_, metric,
                                                          options_);
    });
  }

  /// Installs `make()` as the metric's hierarchy unless one is already in
  /// place (std::call_once, so racing first queries see exactly one).
  /// Only built and reordered hierarchies count as preprocessing time.
  template <typename Make>
  PerMetric& Obtain(Metric metric, PreprocessSource source, Make&& make) {
    PerMetric& pm = metrics_[MetricIndex(metric)];
    std::call_once(pm.once, [&] {
      auto start = std::chrono::steady_clock::now();
      pm.hierarchy = make();
      pm.source = source;
      if (source != PreprocessSource::kInherited) {
        auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
        preprocess_micros_.fetch_add(micros, std::memory_order_relaxed);
      }
      pm.ready.store(true, std::memory_order_release);
    });
    return pm;
  }
  void Account(std::size_t settled) {
    settled_.fetch_add(settled, std::memory_order_relaxed);
    queries_.fetch_add(1, std::memory_order_relaxed);
  }

  const RoadGraph& graph_;
  ChOptions options_;
  PerMetric metrics_[kNumMetrics];
  std::atomic<std::size_t> settled_{0};
  std::atomic<std::size_t> queries_{0};
  std::atomic<std::int64_t> preprocess_micros_{0};
};

}  // namespace

const char* RoutingBackendName(RoutingBackendKind kind) {
  switch (kind) {
    case RoutingBackendKind::kDijkstra:
      return "dijkstra";
    case RoutingBackendKind::kAlt:
      return "alt";
    case RoutingBackendKind::kCh:
      return "ch";
  }
  return "unknown";
}

std::optional<RoutingBackendKind> ParseRoutingBackend(std::string_view name) {
  Result<RoutingBackendKind> kind = RoutingBackendFromString(name);
  if (!kind.ok()) return std::nullopt;
  return kind.value();
}

Result<RoutingBackendKind> RoutingBackendFromString(std::string_view name) {
  return ParseEnumOption<RoutingBackendKind>(
      "routing backend", name,
      {{"dijkstra", RoutingBackendKind::kDijkstra},
       {"alt", RoutingBackendKind::kAlt},
       {"ch", RoutingBackendKind::kCh}});
}

const char* PreprocessSourceName(PreprocessSource source) {
  switch (source) {
    case PreprocessSource::kBuilt:
      return "built";
    case PreprocessSource::kReordered:
      return "reordered";
    case PreprocessSource::kInherited:
      return "inherited";
  }
  return "unknown";
}

const char* MetricName(Metric metric) {
  switch (metric) {
    case Metric::kDriveDistance:
      return "drive_m";
    case Metric::kDriveTime:
      return "drive_s";
    case Metric::kWalkDistance:
      return "walk_m";
  }
  return "unknown";
}

std::unique_ptr<RoutingBackend> MakeRoutingBackend(
    RoutingBackendKind kind, const RoadGraph& graph,
    const RoutingBackendOptions& options) {
  switch (kind) {
    case RoutingBackendKind::kDijkstra:
      return std::make_unique<DijkstraBackend>(graph);
    case RoutingBackendKind::kAlt:
      return std::make_unique<AltBackend>(graph, options.alt_anchors);
    case RoutingBackendKind::kCh:
      return std::make_unique<ChBackend>(graph, options.ch);
  }
  return nullptr;
}

}  // namespace xar
