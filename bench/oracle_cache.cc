// Multi-threaded throughput of the oracle's lock-free CLOCK distance cache,
// measured on the cache itself by pairing a GraphOracle with an instant
// stub backend — so every measured cycle is cache lookup/insert/eviction
// work, not shortest-path search.
//
// Two phases per thread count:
//   - insert-heavy: every query is a distinct key, far more keys than
//     capacity, so each op is a miss + insert (+ eviction once warm);
//   - mixed 90% hot: 90% of queries draw from a warmed hot set, 10% are
//     cold distinct keys — the steady-state booking-path shape.
//
// Emits a table and BENCH_oracle_cache.json (see bench/README.md).

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/clock.h"
#include "graph/oracle.h"
#include "graph/routing_backend.h"

namespace xar {
namespace bench {
namespace {

/// Routing backend whose "shortest path" is a few integer mixes: distances
/// are a pure deterministic function of (from, to, metric), so oracles stay
/// correct while the backend cost is negligible next to the cache work.
class InstantBackend : public RoutingBackend {
 public:
  double Distance(NodeId from, NodeId to, Metric metric) override {
    queries_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t z = (static_cast<std::uint64_t>(from.value()) << 32) |
                      to.value();
    z += static_cast<std::uint64_t>(metric) + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<double>((z ^ (z >> 31)) & 0xFFFFFF);
  }
  Path Route(NodeId, NodeId, Metric) override { return Path{}; }
  RoutingBackendKind kind() const override {
    return RoutingBackendKind::kDijkstra;  // closest label for a stub
  }
  std::size_t settled_count() const override { return 0; }
  std::size_t query_count() const override {
    return queries_.load(std::memory_order_relaxed);
  }
  std::size_t MemoryFootprint() const override { return sizeof(*this); }

 private:
  std::atomic<std::size_t> queries_{0};
};

constexpr std::size_t kCacheCapacity = std::size_t{1} << 15;
constexpr std::size_t kHotKeys = kCacheCapacity / 2;

NodeId FromOf(std::uint64_t key) {
  return NodeId(static_cast<std::uint32_t>(key >> 16));
}
NodeId ToOf(std::uint64_t key) {
  return NodeId(static_cast<std::uint32_t>(key & 0xFFFF));
}

std::uint64_t Mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Exact-thread-count worker fan-out (same idiom as throughput_scaling):
/// the calling thread does not participate, so `threads` is exact.
template <typename Body>
double RunWorkers(std::size_t threads, std::size_t ops, const Body& body) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  Stopwatch wall;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < ops; i = next.fetch_add(1, std::memory_order_relaxed)) {
        body(i);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  return wall.ElapsedSeconds();
}

struct SeriesPoint {
  std::size_t threads = 0;
  double insert_mops = 0.0;  ///< insert-heavy phase, million ops/s
  double mixed_mops = 0.0;   ///< mixed 90%-hot phase, million ops/s
  double mixed_hit_rate = 0.0;
  OracleCacheCounters counters;  ///< after both phases
};

SeriesPoint MeasurePoint(const RoadGraph& graph, std::size_t threads,
                         std::size_t insert_ops, std::size_t mixed_ops) {
  SeriesPoint point;
  point.threads = threads;

  GraphOracle oracle(graph, std::make_unique<InstantBackend>(),
                     kCacheCapacity);

  // Insert-heavy: key == op index, all distinct, working set >> capacity.
  double elapsed = RunWorkers(threads, insert_ops, [&](std::size_t i) {
    (void)oracle.DriveDistance(FromOf(i), ToOf(i));
  });
  point.insert_mops = static_cast<double>(insert_ops) / elapsed / 1e6;

  // Mixed: warm the hot set serially, then 90% hot lookups / 10% cold
  // distinct inserts. Hot keys live in a disjoint id range (bit 40 set in
  // the packed key) so the insert phase cannot have seeded them.
  constexpr std::uint64_t kHotBase = std::uint64_t{1} << 40;
  for (std::size_t h = 0; h < kHotKeys; ++h) {
    (void)oracle.DriveDistance(FromOf(kHotBase + h), ToOf(kHotBase + h));
  }
  const std::size_t hits_before = oracle.cache_hit_count();
  const std::size_t queries_before =
      oracle.computation_count() + oracle.cache_hit_count();
  constexpr std::uint64_t kColdBase = std::uint64_t{1} << 41;
  elapsed = RunWorkers(threads, mixed_ops, [&](std::size_t i) {
    std::uint64_t key = (i % 10 == 0) ? kColdBase + i
                                      : kHotBase + Mix(i) % kHotKeys;
    (void)oracle.DriveDistance(FromOf(key), ToOf(key));
  });
  point.mixed_mops = static_cast<double>(mixed_ops) / elapsed / 1e6;
  const std::size_t queries =
      oracle.computation_count() + oracle.cache_hit_count() - queries_before;
  point.mixed_hit_rate =
      queries == 0 ? 0.0
                   : static_cast<double>(oracle.cache_hit_count() -
                                         hits_before) /
                         static_cast<double>(queries);
  point.counters = oracle.cache_counters();
  return point;
}

}  // namespace

int Run() {
  PrintHeader("ORACLE CACHE", "distance-cache throughput: lock-free CLOCK");
  const double scale = BenchScale();
  const std::size_t insert_ops = static_cast<std::size_t>(400000 * scale);
  const std::size_t mixed_ops = static_cast<std::size_t>(600000 * scale);

  // The graph only anchors the oracle (the stub backend never reads it).
  CityOptions copt;
  copt.rows = 4;
  copt.cols = 4;
  RoadGraph graph = GenerateCity(copt);

  const unsigned host_cores = std::thread::hardware_concurrency();
  std::printf("host cores: %u | cache capacity: %zu | insert ops: %zu | "
              "mixed ops: %zu (90%% hot over %zu keys)\n",
              host_cores, kCacheCapacity, insert_ops, mixed_ops, kHotKeys);
  if (host_cores <= 1) {
    std::printf("WARNING: only %u hardware core(s) visible — thread counts "
                "above 1 time-slice a single core; contention effects are "
                "muted, so read multi-thread deltas as a lower bound.\n",
                host_cores);
  }
  std::printf("\n%8s %14s %14s %10s %12s %8s\n", "threads", "insert Mops/s",
              "mixed Mops/s", "hit rate", "evictions", "drops");

  std::vector<SeriesPoint> series;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    SeriesPoint p = MeasurePoint(graph, threads, insert_ops, mixed_ops);
    std::printf("%8zu %14.2f %14.2f %9.1f%% %12zu %8zu\n", p.threads,
                p.insert_mops, p.mixed_mops, 100.0 * p.mixed_hit_rate,
                static_cast<std::size_t>(p.counters.evictions),
                static_cast<std::size_t>(p.counters.drops));
    series.push_back(p);
  }

  const char* json_path = "BENCH_oracle_cache.json";
  std::FILE* f = std::fopen(json_path, "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"oracle_cache\",\n");
    std::fprintf(f, "  \"policy\": \"clock\",\n");
    std::fprintf(f, "  \"scale\": %.2f,\n", scale);
    std::fprintf(f, "  \"host_cores\": %u,\n", host_cores);
    std::fprintf(f, "  \"cache_capacity\": %zu,\n", kCacheCapacity);
    std::fprintf(f, "  \"insert_ops\": %zu,\n", insert_ops);
    std::fprintf(f, "  \"mixed_ops\": %zu,\n", mixed_ops);
    std::fprintf(f, "  \"hot_keys\": %zu,\n", kHotKeys);
    std::fprintf(f, "  \"series\": [\n");
    for (std::size_t i = 0; i < series.size(); ++i) {
      const SeriesPoint& p = series[i];
      std::fprintf(
          f,
          "    {\"threads\": %zu, "
          "\"insert_mops\": %.3f, \"mixed_mops\": %.3f, "
          "\"mixed_hit_rate\": %.4f, \"evictions\": %zu, \"drops\": %zu, "
          "\"races\": %zu}%s\n",
          p.threads, p.insert_mops, p.mixed_mops, p.mixed_hit_rate,
          static_cast<std::size_t>(p.counters.evictions),
          static_cast<std::size_t>(p.counters.drops),
          static_cast<std::size_t>(p.counters.races),
          i + 1 < series.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path);
  }
  return 0;
}

}  // namespace bench
}  // namespace xar

int main() { return xar::bench::Run(); }
