#include "graph/oracle.h"

#include <algorithm>
#include <utility>

namespace xar {
namespace {

/// Stripe-count heuristic: enough stripes to keep shard-parallel bookings
/// off each other's locks, but never so many that per-stripe capacity drops
/// below a useful LRU window (tiny test caches get exactly one stripe, i.e.
/// strict global LRU — the pre-concurrency behaviour).
std::size_t StripeCountFor(std::size_t cache_capacity) {
  constexpr std::size_t kMaxStripes = 16;
  constexpr std::size_t kMinStripeCapacity = 64;
  std::size_t stripes = 1;
  while (stripes < kMaxStripes &&
         cache_capacity / (stripes * 2) >= kMinStripeCapacity) {
    stripes *= 2;
  }
  return stripes;
}

}  // namespace

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
                         OracleCachePolicy cache_policy)
    : GraphOracle(graph, MakeRoutingBackend(backend, graph, backend_options),
                  cache_capacity, cache_policy) {}

GraphOracle::GraphOracle(const RoadGraph& graph,
                         std::unique_ptr<RoutingBackend> backend,
                         std::size_t cache_capacity,
                         OracleCachePolicy cache_policy)
    : graph_(graph),
      backend_(std::move(backend)),
      cache_capacity_(cache_capacity),
      policy_(cache_policy) {
  if (cache_capacity_ == 0) return;
  if (policy_ == OracleCachePolicy::kClock) {
    clock_cache_ = std::make_unique<OracleClockCache>(cache_capacity_);
    return;
  }
  std::size_t num_stripes = StripeCountFor(cache_capacity_);
  stripe_capacity_ = std::max<std::size_t>(1, cache_capacity_ / num_stripes);
  stripes_.reserve(num_stripes);
  for (std::size_t s = 0; s < num_stripes; ++s) {
    stripes_.push_back(std::make_unique<Stripe>());
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

OracleCacheCounters GraphOracle::cache_counters() const {
  if (clock_cache_ != nullptr) return clock_cache_->counters();
  OracleCacheCounters c;
  c.insertions = lru_insertions_.load(std::memory_order_relaxed);
  c.evictions = lru_evictions_.load(std::memory_order_relaxed);
  c.races = lru_races_.load(std::memory_order_relaxed);
  return c;
}

double GraphOracle::CachedDistance(NodeId from, NodeId to, Metric metric) {
  if (cache_capacity_ == 0) {
    computations_.fetch_add(1, std::memory_order_relaxed);
    return backend_->Distance(from, to, metric);
  }
  OracleCacheKey key = MakeOracleCacheKey(from, to, metric);
  if (clock_cache_ != nullptr) {
    if (std::optional<double> cached = clock_cache_->Lookup(key)) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return *cached;
    }
    computations_.fetch_add(1, std::memory_order_relaxed);
    double d = backend_->Distance(from, to, metric);
    // Lossy: a lost race or an all-hot window simply drops the entry — the
    // next miss recomputes. Correctness never depends on the insert landing.
    (void)clock_cache_->Insert(key, d);
    return d;
  }
  return StripedLruDistance(key, from, to, metric);
}

double GraphOracle::StripedLruDistance(const OracleCacheKey& key, NodeId from,
                                       NodeId to, Metric metric) {
  Stripe& stripe = StripeOf(key);
  {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    auto it = stripe.map.find(key);
    if (it != stripe.map.end()) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      stripe.lru.splice(stripe.lru.begin(), stripe.lru, it->second.lru_it);
      return it->second.distance;
    }
  }
  // Miss: compute outside the stripe lock so same-stripe lookups (and other
  // threads racing on this very key) are never blocked behind a search.
  computations_.fetch_add(1, std::memory_order_relaxed);
  double d = backend_->Distance(from, to, metric);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  auto it = stripe.map.find(key);
  if (it != stripe.map.end()) {
    // A racing thread inserted the same key first; keep its entry.
    lru_races_.fetch_add(1, std::memory_order_relaxed);
    return it->second.distance;
  }
  stripe.lru.push_front(key);
  stripe.map.emplace(key, CacheEntry{d, stripe.lru.begin()});
  lru_insertions_.fetch_add(1, std::memory_order_relaxed);
  if (stripe.map.size() > stripe_capacity_) {
    stripe.map.erase(stripe.lru.back());
    stripe.lru.pop_back();
    lru_evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  return d;
}

std::optional<double> GraphOracle::CacheProbe(const OracleCacheKey& key) {
  if (cache_capacity_ == 0) return std::nullopt;
  if (clock_cache_ != nullptr) return clock_cache_->Lookup(key);
  Stripe& stripe = StripeOf(key);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  auto it = stripe.map.find(key);
  if (it == stripe.map.end()) return std::nullopt;
  stripe.lru.splice(stripe.lru.begin(), stripe.lru, it->second.lru_it);
  return it->second.distance;
}

void GraphOracle::CacheInsert(const OracleCacheKey& key, double distance) {
  if (cache_capacity_ == 0) return;
  if (clock_cache_ != nullptr) {
    (void)clock_cache_->Insert(key, distance);
    return;
  }
  Stripe& stripe = StripeOf(key);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  if (stripe.map.find(key) != stripe.map.end()) {
    lru_races_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  stripe.lru.push_front(key);
  stripe.map.emplace(key, CacheEntry{distance, stripe.lru.begin()});
  lru_insertions_.fetch_add(1, std::memory_order_relaxed);
  if (stripe.map.size() > stripe_capacity_) {
    stripe.map.erase(stripe.lru.back());
    stripe.lru.pop_back();
    lru_evictions_.fetch_add(1, std::memory_order_relaxed);
  }
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
      OracleCacheKey key = MakeOracleCacheKey(sources[s], targets[t], metric);
      if (std::optional<double> cached = CacheProbe(key)) {
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
      CacheInsert(MakeOracleCacheKey(sources[s], targets[t], metric), d);
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
