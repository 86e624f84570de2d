// Routing-backend comparison: point-to-point query latency, settled nodes,
// preprocessing time and resident memory for Dijkstra / ALT / CH at
// three city sizes. This is the evidence behind making CH the default
// oracle backend: it must settle >= 10x fewer nodes than Dijkstra on the
// largest city while answering the same distances. Emits a human-readable
// table per city and a JSON trajectory point (BENCH_routing_backends.json,
// see bench/README.md).

#include <cstddef>
#include <cstdio>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "common/clock.h"
#include "common/stats.h"
#include "graph/generator.h"
#include "graph/routing_backend.h"

namespace xar {
namespace bench {
namespace {

constexpr RoutingBackendKind kKinds[] = {RoutingBackendKind::kDijkstra,
                                         RoutingBackendKind::kAlt,
                                         RoutingBackendKind::kCh};

struct BackendRow {
  const char* name = "";
  double preprocess_ms = 0.0;
  double mean_query_us = 0.0;
  double p99_query_us = 0.0;
  double settled_per_query = 0.0;
  std::size_t memory_bytes = 0;
};

struct CityResult {
  std::size_t rows = 0, cols = 0;
  std::size_t nodes = 0, edges = 0;
  std::size_t queries = 0;
  std::vector<BackendRow> backends;
  double ch_vs_dijkstra_settled = 0.0;  ///< dijkstra settled / ch settled
};

std::vector<std::pair<NodeId, NodeId>> SamplePairs(const RoadGraph& g,
                                                   std::size_t n,
                                                   std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint32_t> pick(
      0, static_cast<std::uint32_t>(g.NumNodes() - 1));
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pairs.emplace_back(NodeId(pick(rng)), NodeId(pick(rng)));
  }
  return pairs;
}

CityResult RunCity(std::size_t rows, std::size_t cols, std::size_t queries) {
  CityOptions copt;
  copt.rows = rows;
  copt.cols = cols;
  copt.seed = 1234;
  RoadGraph g = GenerateCity(copt);

  CityResult result;
  result.rows = rows;
  result.cols = cols;
  result.nodes = g.NumNodes();
  result.edges = g.NumEdges();
  result.queries = queries;
  auto pairs = SamplePairs(g, queries, 4321);

  double dijkstra_settled = 0.0, ch_settled = 0.0;
  for (RoutingBackendKind kind : kKinds) {
    auto backend = MakeRoutingBackend(kind, g);

    // Pay preprocessing up front (as the oracle's Prewarm does on refresh)
    // so query timings measure queries, not lazy builds.
    backend->Prepare(Metric::kDriveDistance);
    BackendRow row;
    row.name = backend->name();
    row.preprocess_ms = backend->preprocess_millis();

    PercentileTracker latency_us;
    latency_us.Reserve(pairs.size());
    for (auto [a, b] : pairs) {
      Stopwatch timer;
      (void)backend->Distance(a, b, Metric::kDriveDistance);
      latency_us.Add(timer.ElapsedMillis() * 1000.0);
    }
    row.mean_query_us = latency_us.mean();
    row.p99_query_us = latency_us.Percentile(99);
    row.settled_per_query = static_cast<double>(backend->settled_count()) /
                            static_cast<double>(backend->query_count());
    row.memory_bytes = backend->MemoryFootprint();
    result.backends.push_back(row);

    if (kind == RoutingBackendKind::kDijkstra) {
      dijkstra_settled = row.settled_per_query;
    } else if (kind == RoutingBackendKind::kCh) {
      ch_settled = row.settled_per_query;
    }
  }
  result.ch_vs_dijkstra_settled =
      ch_settled > 0.0 ? dijkstra_settled / ch_settled : 0.0;
  return result;
}

}  // namespace

int Run() {
  PrintHeader("ROUTING BACKENDS",
              "query latency / settled nodes / preprocessing per backend");
  const double scale = BenchScale();
  const std::size_t queries = static_cast<std::size_t>(400 * scale);

  struct CitySpec {
    std::size_t rows, cols;
  };
  // A 224x224 city (50k nodes) is left out: its drive_m CH build had not
  // finished after 38 minutes on 4 cores (see bench/ch_preprocess.cc for
  // build-time scaling).
  const CitySpec cities[] = {{16, 16}, {28, 28}, {56, 56}};

  std::vector<CityResult> results;
  for (const CitySpec& spec : cities) {
    CityResult r = RunCity(spec.rows, spec.cols, queries);
    std::printf("\ncity %zux%zu — %zu nodes, %zu edges, %zu queries "
                "(drive-distance metric):\n",
                r.rows, r.cols, r.nodes, r.edges, r.queries);
    std::printf("%10s %14s %14s %14s %16s %12s\n", "backend", "prep ms",
                "mean query us", "p99 query us", "settled/query", "MB");
    for (const BackendRow& b : r.backends) {
      std::printf("%10s %14.1f %14.2f %14.2f %16.1f %12.2f\n", b.name,
                  b.preprocess_ms, b.mean_query_us, b.p99_query_us,
                  b.settled_per_query,
                  static_cast<double>(b.memory_bytes) / 1048576.0);
    }
    std::printf("CH settles %.1fx fewer nodes than Dijkstra here.\n",
                r.ch_vs_dijkstra_settled);
    results.push_back(std::move(r));
  }

  const double largest_ratio = results.back().ch_vs_dijkstra_settled;
  std::printf("\nlargest city (%zux%zu): CH vs Dijkstra settled-node ratio "
              "%.1fx (acceptance floor: 10x)\n",
              results.back().rows, results.back().cols, largest_ratio);

  const char* json_path = "BENCH_routing_backends.json";
  std::FILE* f = std::fopen(json_path, "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"routing_backends\",\n");
    std::fprintf(f, "  \"scale\": %.2f,\n", scale);
    std::fprintf(f, "  \"host_cores\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"queries_per_backend\": %zu,\n", queries);
    std::fprintf(f, "  \"cities\": [\n");
    for (std::size_t c = 0; c < results.size(); ++c) {
      const CityResult& r = results[c];
      std::fprintf(f,
                   "    {\"rows\": %zu, \"cols\": %zu, \"nodes\": %zu, "
                   "\"edges\": %zu,\n     \"backends\": [\n",
                   r.rows, r.cols, r.nodes, r.edges);
      for (std::size_t i = 0; i < r.backends.size(); ++i) {
        const BackendRow& b = r.backends[i];
        std::fprintf(f,
                     "      {\"name\": \"%s\", \"preprocess_ms\": %.2f, "
                     "\"mean_query_us\": %.2f, \"p99_query_us\": %.2f, "
                     "\"settled_per_query\": %.1f, \"memory_bytes\": %zu}%s\n",
                     b.name, b.preprocess_ms, b.mean_query_us, b.p99_query_us,
                     b.settled_per_query, b.memory_bytes,
                     i + 1 < r.backends.size() ? "," : "");
      }
      std::fprintf(f, "     ],\n     \"ch_vs_dijkstra_settled\": %.2f}%s\n",
                   r.ch_vs_dijkstra_settled,
                   c + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"largest_city_ch_vs_dijkstra_settled\": %.2f\n",
                 largest_ratio);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}

}  // namespace bench
}  // namespace xar

int main() { return xar::bench::Run(); }
