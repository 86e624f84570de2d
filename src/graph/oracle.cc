#include "graph/oracle.h"

#include <utility>

namespace xar {

std::vector<double> DistanceOracle::DriveDistancesToMany(
    NodeId from, const std::vector<NodeId>& targets) {
  std::vector<double> out;
  out.reserve(targets.size());
  for (NodeId t : targets) out.push_back(DriveDistance(from, t));
  return out;
}

std::vector<double> DistanceOracle::DriveDistanceMatrix(
    const std::vector<NodeId>& sources, const std::vector<NodeId>& targets) {
  std::vector<double> out;
  out.reserve(sources.size() * targets.size());
  for (NodeId s : sources) {
    std::vector<double> row = DriveDistancesToMany(s, targets);
    out.insert(out.end(), row.begin(), row.end());
  }
  return out;
}

GraphOracle::GraphOracle(const RoadGraph& graph, std::size_t cache_capacity,
                         RoutingBackendKind backend,
                         const RoutingBackendOptions& backend_options,
                         OracleCachePolicy /*cache_policy*/)
    : GraphOracle(graph, MakeRoutingBackend(backend, graph, backend_options),
                  cache_capacity) {}

GraphOracle::GraphOracle(const RoadGraph& graph,
                         std::unique_ptr<RoutingBackend> backend,
                         std::size_t cache_capacity)
    : graph_(graph), backend_(std::move(backend)) {
  if (cache_capacity > 0) {
    cache_ = std::make_unique<OracleClockCache>(cache_capacity);
  }
}

void PrewarmFrom(DistanceOracle& incoming, const DistanceOracle& outgoing) {
  RoutingBackend* backend = incoming.mutable_routing_backend();
  const RoutingBackend* previous = outgoing.routing_backend();
  if (backend != nullptr && previous != nullptr) {
    backend->InheritFrom(*previous);
  }
  incoming.Prewarm();
}

void GraphOracle::Prewarm() {
  backend_->Prepare(Metric::kDriveDistance);
  backend_->Prepare(Metric::kDriveTime);
  backend_->Prepare(Metric::kWalkDistance);
}

double GraphOracle::CachedDistance(NodeId from, NodeId to, Metric metric) {
  if (cache_ == nullptr) {
    computations_.fetch_add(1, std::memory_order_relaxed);
    return backend_->Distance(from, to, metric);
  }
  OracleCacheKey key = MakeOracleCacheKey(from, to, metric);
  if (std::optional<double> cached = cache_->Lookup(key)) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    return *cached;
  }
  computations_.fetch_add(1, std::memory_order_relaxed);
  double d = backend_->Distance(from, to, metric);
  // Lossy: a lost race or an all-hot window simply drops the entry — the
  // next miss recomputes. Correctness never depends on the insert landing.
  (void)cache_->Insert(key, d);
  return d;
}

std::vector<double> GraphOracle::DriveDistancesToMany(
    NodeId from, const std::vector<NodeId>& targets) {
  return DriveDistanceMatrix({from}, targets);
}

std::vector<double> GraphOracle::DriveDistanceMatrix(
    const std::vector<NodeId>& sources, const std::vector<NodeId>& targets) {
  const Metric metric = Metric::kDriveDistance;
  const std::size_t s_count = sources.size();
  const std::size_t t_count = targets.size();
  std::vector<double> out(s_count * t_count, 0.0);
  if (s_count == 0 || t_count == 0) return out;

  // Probe the cache per pair; remember which rows/columns still owe a
  // distance so the backend batch covers exactly the missing span.
  std::vector<char> missing(s_count * t_count, 0);
  std::vector<char> src_missing(s_count, 0);
  std::vector<char> tgt_missing(t_count, 0);
  std::size_t hits = 0;
  std::size_t misses = 0;
  for (std::size_t s = 0; s < s_count; ++s) {
    for (std::size_t t = 0; t < t_count; ++t) {
      std::optional<double> cached;
      if (cache_ != nullptr) {
        cached = cache_->Lookup(
            MakeOracleCacheKey(sources[s], targets[t], metric));
      }
      if (cached) {
        out[s * t_count + t] = *cached;
        ++hits;
      } else {
        missing[s * t_count + t] = 1;
        src_missing[s] = 1;
        tgt_missing[t] = 1;
        ++misses;
      }
    }
  }
  cache_hits_.fetch_add(hits, std::memory_order_relaxed);
  if (misses == 0) return out;
  computations_.fetch_add(misses, std::memory_order_relaxed);

  // One backend many-to-many over the rows/columns with at least one miss.
  // The submatrix may recompute a few cached pairs — harmless; a bucket-CH
  // source scan costs the same regardless of how many of its targets are
  // wanted.
  std::vector<NodeId> miss_sources;
  std::vector<std::size_t> src_at(s_count, 0);
  for (std::size_t s = 0; s < s_count; ++s) {
    if (src_missing[s]) {
      src_at[s] = miss_sources.size();
      miss_sources.push_back(sources[s]);
    }
  }
  std::vector<NodeId> miss_targets;
  std::vector<std::size_t> tgt_at(t_count, 0);
  for (std::size_t t = 0; t < t_count; ++t) {
    if (tgt_missing[t]) {
      tgt_at[t] = miss_targets.size();
      miss_targets.push_back(targets[t]);
    }
  }
  std::vector<double> sub =
      backend_->ManyToMany(miss_sources, miss_targets, metric);

  for (std::size_t s = 0; s < s_count; ++s) {
    for (std::size_t t = 0; t < t_count; ++t) {
      if (!missing[s * t_count + t]) continue;
      double d = sub[src_at[s] * miss_targets.size() + tgt_at[t]];
      out[s * t_count + t] = d;
      if (cache_ != nullptr) {
        (void)cache_->Insert(MakeOracleCacheKey(sources[s], targets[t], metric),
                             d);
      }
    }
  }
  return out;
}

double GraphOracle::DriveDistance(NodeId from, NodeId to) {
  return CachedDistance(from, to, Metric::kDriveDistance);
}

double GraphOracle::DriveTime(NodeId from, NodeId to) {
  return CachedDistance(from, to, Metric::kDriveTime);
}

double GraphOracle::WalkDistance(NodeId from, NodeId to) {
  return CachedDistance(from, to, Metric::kWalkDistance);
}

Path GraphOracle::DriveRoute(NodeId from, NodeId to) {
  computations_.fetch_add(1, std::memory_order_relaxed);
  return backend_->Route(from, to, Metric::kDriveDistance);
}

HaversineOracle::HaversineOracle(const RoadGraph& graph,
                                 double drive_speed_mps)
    : graph_(graph), drive_speed_mps_(drive_speed_mps) {}

double HaversineOracle::DriveDistance(NodeId from, NodeId to) {
  return HaversineMeters(graph_.PositionOf(from), graph_.PositionOf(to));
}

double HaversineOracle::DriveTime(NodeId from, NodeId to) {
  return DriveDistance(from, to) / drive_speed_mps_;
}

double HaversineOracle::WalkDistance(NodeId from, NodeId to) {
  return DriveDistance(from, to);
}

Path HaversineOracle::DriveRoute(NodeId from, NodeId to) {
  Path p;
  p.nodes = {from, to};
  p.length_m = DriveDistance(from, to);
  p.time_s = DriveTime(from, to);
  return p;
}

StatsSection OracleStatsSection(const DistanceOracle& oracle) {
  std::size_t computations = oracle.computation_count();
  std::size_t hits = oracle.cache_hit_count();
  std::size_t lookups = computations + hits;
  double hit_rate =
      lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
  OracleCacheCounters cache = oracle.cache_counters();
  const RoutingBackend* backend = oracle.routing_backend();
  StatsSection section;
  section.name = "oracle";
  std::vector<StatsMetric> row = {
      StatsMetric::Text("backend", oracle.backend_name()),
      StatsMetric::Text("cache", oracle.cache_policy_name()),
      StatsMetric::Counter("computations", computations),
      StatsMetric::Counter("cache_hits", hits),
      StatsMetric::Gauge("hit_rate", hit_rate),
      StatsMetric::Counter("settled_nodes", oracle.settled_count()),
      StatsMetric::Counter("m2m_batch_queries",
                           backend ? backend->m2m_batch_count() : 0),
      StatsMetric::Counter("m2m_fallback_queries",
                           backend ? backend->m2m_fallback_count() : 0),
      StatsMetric::Counter("cache_insertions", cache.insertions),
      StatsMetric::Counter("cache_evictions", cache.evictions),
      StatsMetric::Counter("cache_drops", cache.drops),
      StatsMetric::Counter("cache_races", cache.races)};
  // How each prepared metric's preprocessing was obtained, e.g.
  // drive_m=inherited after a congestion refresh.
  if (backend != nullptr) {
    for (const PreprocessTiming& t : backend->preprocess_timings()) {
      row.push_back(StatsMetric::Text(MetricName(t.metric),
                                      PreprocessSourceName(t.source)));
    }
  }
  section.AddRow(std::move(row));
  return section;
}

StatsSection PreprocessStatsSection(const RoutingBackend& backend) {
  StatsSection section;
  section.name = "preprocess";
  for (const PreprocessTiming& t : backend.preprocess_timings()) {
    section.AddRow({StatsMetric::Text("metric", MetricName(t.metric)),
                    StatsMetric::Gauge("build_ms", t.build_ms, 1),
                    StatsMetric::Counter("threads", t.threads),
                    StatsMetric::Counter("batches", t.batches),
                    StatsMetric::Counter("shortcuts", t.shortcuts),
                    StatsMetric::Text("source",
                                      PreprocessSourceName(t.source))});
  }
  return section;
}

}  // namespace xar
