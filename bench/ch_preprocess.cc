// Contraction-hierarchy preprocessing scaling: wall time of the batched
// independent-set contraction (src/graph/contraction_hierarchy.cc) at 1/2/4/8
// worker threads on city-scale graphs, including the >= 50k-node point the
// ROADMAP's city-growth item requires. Also re-verifies the determinism
// contract on every point: each parallel build must produce the same
// shortcut count and node order as the 1-thread build. A second row per
// city times what a congestion refresh does instead of a full build:
// re-contracting the drive_s hierarchy of a congested copy of the city in
// the free-flow hierarchy's node order (the ContractionHierarchy
// re-contraction constructor), against a full build of the same congested graph, and
// checks that the re-contraction is exact and identical at 1 and 4
// threads. Emits a table per city and a JSON trajectory point
// (BENCH_ch_preprocess.json, see bench/README.md).
//
// Like throughput_scaling, the recorded speedup is only meaningful relative
// to `host_cores`: a 1-core container shows ~flat scaling by construction
// (the >= 2.5x @ 4-thread target applies to a 4+ core host).

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "graph/contraction_hierarchy.h"
#include "graph/dijkstra.h"
#include "graph/generator.h"
#include "graph/road_graph.h"

namespace xar {
namespace bench {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

struct ThreadPoint {
  std::size_t threads = 0;
  double build_ms = 0.0;
  std::size_t batches = 0;
  std::size_t shortcuts = 0;
  bool deterministic = true;  ///< ranks + shortcuts equal the 1-thread build
};

/// Congested drive_s: a full build vs re-contraction in the free-flow
/// order, both on one thread.
struct ReorderPoint {
  double full_build_ms = 0.0;
  std::size_t full_shortcuts = 0;
  double reorder_ms = 0.0;
  std::size_t reorder_shortcuts = 0;
  bool exact = true;          ///< re-contracted distances equal Dijkstra's
  bool deterministic = true;  ///< 4-thread re-contraction == 1-thread
};

struct CityResult {
  std::size_t rows = 0, cols = 0;
  std::size_t nodes = 0, edges = 0;
  std::vector<ThreadPoint> points;
  double speedup_4t = 0.0;  ///< 1-thread ms / 4-thread ms
  ReorderPoint reorder;
};

/// Rush-hour-like slow-downs: one factor in [1, 2.5] per street (both
/// directions), fixed by the endpoint pair.
RoadGraph Congested(const RoadGraph& g) {
  return ScaleEdgeWeights(g, [](NodeId from, NodeId to) {
    const std::uint64_t lo = std::min(from.value(), to.value());
    const std::uint64_t hi = std::max(from.value(), to.value());
    Rng rng(lo * 0x9e3779b97f4a7c15ULL + hi);
    return 1.0 + 1.5 * rng.NextDouble();
  });
}

ReorderPoint RunReorder(const RoadGraph& g) {
  const RoadGraph congested = Congested(g);
  ChOptions serial;
  serial.preprocess_threads = 1;
  ChOptions quad;
  quad.preprocess_threads = 4;
  const ContractionHierarchy free_flow(g, Metric::kDriveTime, serial);

  ReorderPoint point;
  ContractionHierarchy full(congested, Metric::kDriveTime, serial);
  point.full_build_ms = full.build_millis();
  point.full_shortcuts = full.NumShortcuts();
  ContractionHierarchy one(congested, Metric::kDriveTime, free_flow, serial);
  point.reorder_ms = one.build_millis();
  point.reorder_shortcuts = one.NumShortcuts();
  ContractionHierarchy four(congested, Metric::kDriveTime, free_flow, quad);
  point.deterministic = four.NumShortcuts() == one.NumShortcuts() &&
                        four.num_batches() == one.num_batches();
  for (std::size_t v = 0; v < g.NumNodes() && point.deterministic; ++v) {
    const NodeId n(static_cast<NodeId::underlying_type>(v));
    point.deterministic = four.RankOf(n) == one.RankOf(n);
  }

  DijkstraEngine dijkstra(congested);
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const NodeId a(static_cast<NodeId::underlying_type>(
        rng.NextIndex(g.NumNodes())));
    const NodeId b(static_cast<NodeId::underlying_type>(
        rng.NextIndex(g.NumNodes())));
    const double expect = dijkstra.Distance(a, b, Metric::kDriveTime);
    const double got = one.Distance(a, b);
    if (std::abs(got - expect) > 1e-6 * std::max(1.0, expect)) {
      point.exact = false;
    }
    if (four.Distance(a, b) != got) point.deterministic = false;
  }
  std::printf("  congested drive_s, 1 thread: full build %.0f ms (%zu "
              "shortcuts), given order %.0f ms (%zu shortcuts), exact=%s "
              "deterministic=%s\n",
              point.full_build_ms, point.full_shortcuts, point.reorder_ms,
              point.reorder_shortcuts, point.exact ? "yes" : "NO",
              point.deterministic ? "yes" : "NO");
  std::fflush(stdout);
  return point;
}

CityResult RunCity(std::size_t rows, std::size_t cols) {
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

  std::vector<std::size_t> reference_ranks;
  double serial_ms = 0.0, quad_ms = 0.0;
  for (std::size_t threads : kThreadCounts) {
    ChOptions opt;
    opt.preprocess_threads = threads;
    ContractionHierarchy ch(g, Metric::kDriveDistance, opt);

    ThreadPoint point;
    point.threads = threads;
    point.build_ms = ch.build_millis();
    point.batches = ch.num_batches();
    point.shortcuts = ch.NumShortcuts();
    if (threads == 1) {
      serial_ms = point.build_ms;
      reference_ranks.reserve(g.NumNodes());
      for (std::size_t v = 0; v < g.NumNodes(); ++v) {
        reference_ranks.push_back(
            ch.RankOf(NodeId(static_cast<NodeId::underlying_type>(v))));
      }
    } else {
      for (std::size_t v = 0; v < g.NumNodes(); ++v) {
        if (ch.RankOf(NodeId(static_cast<NodeId::underlying_type>(v))) !=
            reference_ranks[v]) {
          point.deterministic = false;
          break;
        }
      }
      point.deterministic =
          point.deterministic &&
          point.shortcuts == result.points.front().shortcuts &&
          point.batches == result.points.front().batches;
    }
    if (threads == 4) quad_ms = point.build_ms;
    result.points.push_back(point);
    std::printf("  threads=%zu build_ms=%.0f batches=%zu shortcuts=%zu "
                "deterministic=%s\n",
                point.threads, point.build_ms, point.batches, point.shortcuts,
                point.deterministic ? "yes" : "NO");
    std::fflush(stdout);
  }
  result.speedup_4t = quad_ms > 0.0 ? serial_ms / quad_ms : 0.0;
  result.reorder = RunReorder(g);
  return result;
}

}  // namespace

int Run() {
  PrintHeader("CH PREPROCESS",
              "parallel contraction-hierarchy build scaling (1/2/4/8 threads)");
  const unsigned host_cores = std::thread::hardware_concurrency();
  std::printf("host cores: %u\n", host_cores);
  if (host_cores <= 1) {
    std::printf("warning: single-core host — thread scaling will be ~flat "
                "by construction; the >= 2.5x @ 4-thread target applies to "
                "a 4+ core machine.\n");
  }

  // The largest city clears the ROADMAP's >= 50k-node bar.
  struct CitySpec {
    std::size_t rows, cols;
  };
  const CitySpec cities[] = {{75, 75}, {140, 140}, {224, 224}};

  std::vector<CityResult> results;
  for (const CitySpec& spec : cities) {
    std::printf("\ncity %zux%zu:\n", spec.rows, spec.cols);
    CityResult r = RunCity(spec.rows, spec.cols);
    std::printf("  %zu nodes, %zu edges: 1->4 thread speedup %.2fx\n",
                r.nodes, r.edges, r.speedup_4t);
    results.push_back(std::move(r));
  }

  const char* json_path = "BENCH_ch_preprocess.json";
  std::FILE* f = std::fopen(json_path, "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"ch_preprocess\",\n");
    std::fprintf(f, "  \"host_cores\": %u,\n", host_cores);
    std::fprintf(f, "  \"metric\": \"drive_m\",\n");
    std::fprintf(f, "  \"cities\": [\n");
    for (std::size_t c = 0; c < results.size(); ++c) {
      const CityResult& r = results[c];
      std::fprintf(f,
                   "    {\"rows\": %zu, \"cols\": %zu, \"nodes\": %zu, "
                   "\"edges\": %zu,\n     \"series\": [\n",
                   r.rows, r.cols, r.nodes, r.edges);
      for (std::size_t i = 0; i < r.points.size(); ++i) {
        const ThreadPoint& p = r.points[i];
        std::fprintf(f,
                     "      {\"threads\": %zu, \"build_ms\": %.1f, "
                     "\"batches\": %zu, \"shortcuts\": %zu, "
                     "\"deterministic\": %s}%s\n",
                     p.threads, p.build_ms, p.batches, p.shortcuts,
                     p.deterministic ? "true" : "false",
                     i + 1 < r.points.size() ? "," : "");
      }
      const ReorderPoint& o = r.reorder;
      std::fprintf(f,
                   "     ],\n     \"speedup_1_to_4_threads\": %.2f,\n"
                   "     \"congested_drive_s_1_thread\": {\"full_build_ms\": "
                   "%.1f, \"full_shortcuts\": %zu, \"given_order_ms\": %.1f, "
                   "\"given_order_shortcuts\": %zu, \"exact\": %s, "
                   "\"deterministic\": %s}}%s\n",
                   r.speedup_4t, o.full_build_ms, o.full_shortcuts,
                   o.reorder_ms, o.reorder_shortcuts,
                   o.exact ? "true" : "false",
                   o.deterministic ? "true" : "false",
                   c + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path);
  }

  bool all_deterministic = true;
  bool all_exact = true;
  for (const CityResult& r : results) {
    for (const ThreadPoint& p : r.points) {
      all_deterministic = all_deterministic && p.deterministic;
    }
    all_deterministic = all_deterministic && r.reorder.deterministic;
    all_exact = all_exact && r.reorder.exact;
  }
  std::printf("determinism across thread counts: %s\n",
              all_deterministic ? "PASS" : "FAIL");
  std::printf("given-order re-contraction exact: %s\n",
              all_exact ? "PASS" : "FAIL");
  return all_deterministic && all_exact ? 0 : 1;
}

}  // namespace bench
}  // namespace xar

int main() { return xar::bench::Run(); }
