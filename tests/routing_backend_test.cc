// Cross-backend differential suite: Dijkstra, ALT and CH behind the
// RoutingBackend interface must agree — on distances (to FP tolerance), on
// route validity and route length under every metric, on random perturbed
// lattices, and through a graph refresh that rebuilds the contraction
// hierarchy via GraphDelta + RefreshDiscretization — or inherits it from
// the outgoing oracle, shared or re-contracted in the old node order.

#include "graph/routing_backend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "graph/generator.h"
#include "graph/oracle.h"
#include "graph/road_graph.h"
#include "tests/test_helpers.h"
#include "xar/xar_system.h"

namespace xar {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

constexpr RoutingBackendKind kAllKinds[] = {RoutingBackendKind::kDijkstra,
                                            RoutingBackendKind::kAlt,
                                            RoutingBackendKind::kCh};
constexpr Metric kAllMetrics[] = {Metric::kDriveDistance, Metric::kDriveTime,
                                  Metric::kWalkDistance};

RoadGraph MakePerturbedLattice(std::size_t rows, std::size_t cols,
                               std::uint64_t seed) {
  CityOptions opt;
  opt.rows = rows;
  opt.cols = cols;
  opt.seed = seed;
  return PerturbEdgeWeights(GenerateCity(opt), /*spread=*/0.35, seed + 1);
}

std::vector<std::pair<NodeId, NodeId>> SamplePairs(const RoadGraph& g,
                                                   std::size_t n,
                                                   std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint32_t> pick(
      0, static_cast<std::uint32_t>(g.NumNodes() - 1));
  std::vector<std::pair<NodeId, NodeId>> pairs;
  while (pairs.size() < n) {
    NodeId a(pick(rng)), b(pick(rng));
    if (a != b) pairs.emplace_back(a, b);
  }
  return pairs;
}

// Backends sum identical edge weights in different orders (CH pre-adds
// shortcut halves), so distances match to rounding, not bit-for-bit.
void ExpectSameDistance(double actual, double expected, const char* what) {
  if (std::isinf(expected)) {
    EXPECT_TRUE(std::isinf(actual)) << what;
  } else {
    EXPECT_NEAR(actual, expected, 1e-6 * std::max(1.0, expected)) << what;
  }
}

// `path` must be a chain from -> to whose hops all exist under `metric` and
// whose cheapest-per-hop weights sum to `expected` (the query's distance).
void ExpectValidRoute(const RoadGraph& g, const Path& path, NodeId from,
                      NodeId to, Metric metric, double expected) {
  if (std::isinf(expected)) {
    EXPECT_FALSE(path.Found());
    return;
  }
  ASSERT_TRUE(path.Found());
  ASSERT_EQ(path.nodes.front(), from);
  ASSERT_EQ(path.nodes.back(), to);
  double sum = 0.0;
  for (std::size_t i = 0; i + 1 < path.nodes.size(); ++i) {
    double hop = kInf;
    for (const RoadEdge& e : g.OutEdges(path.nodes[i])) {
      if (e.to != path.nodes[i + 1]) continue;
      hop = std::min(hop, RoadGraph::EdgeWeight(e, metric));
    }
    ASSERT_TRUE(std::isfinite(hop))
        << "hop " << i << " (" << path.nodes[i].value() << "->"
        << path.nodes[i + 1].value() << ") has no edge under this metric";
    sum += hop;
  }
  const double tol = 1e-6 * std::max(1.0, expected);
  EXPECT_NEAR(sum, expected, tol);
  const double reported =
      metric == Metric::kDriveTime ? path.time_s : path.length_m;
  EXPECT_NEAR(reported, expected, tol);
}

TEST(RoutingBackendTest, NamesRoundTripThroughParse) {
  for (RoutingBackendKind kind : kAllKinds) {
    auto parsed = ParseRoutingBackend(RoutingBackendName(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParseRoutingBackend("bellman-ford").has_value());
}

TEST(RoutingBackendTest, AllBackendsAgreeOnPerturbedLattices) {
  struct Lattice {
    std::size_t rows, cols;
    std::uint64_t seed;
  };
  for (const Lattice& spec : {Lattice{11, 11, 301}, Lattice{8, 14, 302}}) {
    RoadGraph g = MakePerturbedLattice(spec.rows, spec.cols, spec.seed);
    auto reference = MakeRoutingBackend(RoutingBackendKind::kDijkstra, g);
    auto pairs = SamplePairs(g, 30, spec.seed + 7);
    for (RoutingBackendKind kind : kAllKinds) {
      auto backend = MakeRoutingBackend(kind, g);
      for (Metric metric : kAllMetrics) {
        for (auto [a, b] : pairs) {
          ExpectSameDistance(backend->Distance(a, b, metric),
                             reference->Distance(a, b, metric),
                             backend->name());
        }
      }
      EXPECT_GT(backend->query_count(), 0u);
      EXPECT_GT(backend->settled_count(), 0u);
      EXPECT_GT(backend->MemoryFootprint(), 0u);
    }
  }
}

TEST(RoutingBackendTest, RoutesAreValidChainsMatchingDistances) {
  RoadGraph g = MakePerturbedLattice(10, 10, 311);
  auto reference = MakeRoutingBackend(RoutingBackendKind::kDijkstra, g);
  auto pairs = SamplePairs(g, 20, 313);
  for (RoutingBackendKind kind : kAllKinds) {
    auto backend = MakeRoutingBackend(kind, g);
    for (Metric metric : kAllMetrics) {
      for (auto [a, b] : pairs) {
        const double expected = reference->Distance(a, b, metric);
        SCOPED_TRACE(::testing::Message()
                     << backend->name() << " " << a.value() << "->"
                     << b.value() << " metric "
                     << static_cast<int>(metric));
        ExpectValidRoute(g, backend->Route(a, b, metric), a, b, metric,
                         expected);
      }
    }
  }
}

TEST(RoutingBackendTest, DistancesToManyMatchesPointToPoint) {
  RoadGraph g = MakePerturbedLattice(9, 9, 321);
  auto ch = MakeRoutingBackend(RoutingBackendKind::kCh, g);
  std::vector<NodeId> targets;
  for (auto [a, b] : SamplePairs(g, 12, 323)) targets.push_back(b);
  for (RoutingBackendKind kind : kAllKinds) {
    auto backend = MakeRoutingBackend(kind, g);
    for (Metric metric : kAllMetrics) {
      std::vector<double> many =
          backend->DistancesToMany(NodeId(0), targets, metric);
      ASSERT_EQ(many.size(), targets.size());
      for (std::size_t i = 0; i < targets.size(); ++i) {
        ExpectSameDistance(many[i], ch->Distance(NodeId(0), targets[i], metric),
                           backend->name());
      }
    }
  }
}

TEST(RoutingBackendTest, ChSettlesFarFewerNodesThanDijkstra) {
  CityOptions opt;
  opt.rows = 20;
  opt.cols = 20;
  opt.seed = 331;
  RoadGraph g = GenerateCity(opt);
  auto dijkstra = MakeRoutingBackend(RoutingBackendKind::kDijkstra, g);
  auto ch = MakeRoutingBackend(RoutingBackendKind::kCh, g);
  for (auto [a, b] : SamplePairs(g, 40, 333)) {
    (void)dijkstra->Distance(a, b, Metric::kDriveDistance);
    (void)ch->Distance(a, b, Metric::kDriveDistance);
  }
  EXPECT_LT(ch->settled_count() * 4, dijkstra->settled_count());
  EXPECT_GT(ch->preprocess_millis(), 0.0);
}

TEST(RoutingBackendTest, PrepareIsIdempotentAndCountsOnce) {
  RoadGraph g = MakePerturbedLattice(8, 8, 341);
  auto ch = MakeRoutingBackend(RoutingBackendKind::kCh, g);
  ch->Prepare(Metric::kDriveDistance);
  const double after_first = ch->preprocess_millis();
  EXPECT_GE(after_first, 0.0);
  ch->Prepare(Metric::kDriveDistance);
  EXPECT_DOUBLE_EQ(ch->preprocess_millis(), after_first);
  const std::size_t queries_before = ch->query_count();
  ch->Prepare(Metric::kDriveTime);  // distinct metric: a second build
  EXPECT_GE(ch->preprocess_millis(), after_first);
  EXPECT_EQ(ch->query_count(), queries_before);  // Prepare is not a query
}

// The oracle path: a GraphDelta refresh swaps in a new graph + CH oracle;
// afterwards the serving oracle must agree with plain Dijkstra on the new
// graph under every metric, and its routes must be valid chains.
TEST(RoutingBackendTest, ChOracleAgreesWithDijkstraAfterRefresh) {
  testing::TestCity city = testing::MakeTestCity(10, 10);
  XarSystem xar(city.graph, *city.spatial, *city.region, *city.oracle);

  RoadGraph perturbed = PerturbEdgeWeights(city.graph, 0.3, 351);
  GraphOracle ch_oracle(perturbed);  // default backend: CH
  EXPECT_STREQ(ch_oracle.backend_name(), "ch");

  GraphDelta delta;
  delta.graph = &perturbed;
  delta.oracle = &ch_oracle;
  RefreshStats stats = xar.RefreshDiscretization(delta);
  EXPECT_EQ(stats.epoch, 1u);
  // Prewarm built all three hierarchies off-thread before the swap.
  EXPECT_GT(stats.last_prewarm_ms, 0.0);
  EXPECT_GT(ch_oracle.backend().preprocess_millis(), 0.0);

  auto reference = MakeRoutingBackend(RoutingBackendKind::kDijkstra, perturbed);
  for (auto [a, b] : SamplePairs(perturbed, 25, 353)) {
    ExpectSameDistance(ch_oracle.DriveDistance(a, b),
                       reference->Distance(a, b, Metric::kDriveDistance),
                       "drive distance after refresh");
    ExpectSameDistance(ch_oracle.DriveTime(a, b),
                       reference->Distance(a, b, Metric::kDriveTime),
                       "drive time after refresh");
    ExpectSameDistance(ch_oracle.WalkDistance(a, b),
                       reference->Distance(a, b, Metric::kWalkDistance),
                       "walk distance after refresh");
    ExpectValidRoute(perturbed, ch_oracle.DriveRoute(a, b), a, b,
                     Metric::kDriveDistance,
                     reference->Distance(a, b, Metric::kDriveDistance));
  }

  // Repeat queries hit the striped cache, not the backend.
  const std::size_t sp_before = ch_oracle.computation_count();
  NodeId a(0), b(static_cast<NodeId::underlying_type>(
                 perturbed.NumNodes() - 1));
  (void)ch_oracle.DriveDistance(a, b);
  const std::size_t sp_after_miss = ch_oracle.computation_count();
  (void)ch_oracle.DriveDistance(a, b);
  EXPECT_EQ(ch_oracle.computation_count(), sp_after_miss);
  EXPECT_GE(sp_after_miss, sp_before);
  EXPECT_GT(ch_oracle.cache_hit_count(), 0u);
}

TEST(RoutingBackendTest, FromStringReportsUnknownNames) {
  for (RoutingBackendKind kind : kAllKinds) {
    Result<RoutingBackendKind> parsed =
        RoutingBackendFromString(RoutingBackendName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), kind);
  }
  // "astar" names the deleted A* backend; it is as unknown as a typo.
  for (const char* name : {"chh", "astar"}) {
    SCOPED_TRACE(name);
    Result<RoutingBackendKind> typo = RoutingBackendFromString(name);
    ASSERT_FALSE(typo.ok());
    EXPECT_EQ(typo.status().code(), StatusCode::kInvalidArgument);
    // The error names the typo and the valid spellings.
    EXPECT_NE(typo.status().ToString().find(name), std::string::npos);
    EXPECT_NE(typo.status().ToString().find("dijkstra"), std::string::npos);
  }
}

// The parallel preprocessing contract: the hierarchy (node order, shortcut
// count) and every query answer are BYTE-identical regardless of thread
// count — EXPECT_EQ on doubles, no tolerance.
TEST(RoutingBackendTest, ChHierarchyIdenticalAcrossThreadCounts) {
  const std::size_t kThreadCounts[] = {1, 2, 8};
  for (std::uint64_t seed : {401ull, 402ull}) {
    RoadGraph g = MakePerturbedLattice(9, 12, seed);
    auto pairs = SamplePairs(g, 25, seed + 7);
    for (Metric metric : kAllMetrics) {
      ChOptions base;
      base.preprocess_threads = 1;
      ContractionHierarchy reference(g, metric, base);
      for (std::size_t threads : kThreadCounts) {
        ChOptions opt;
        opt.preprocess_threads = threads;
        ContractionHierarchy ch(g, metric, opt);
        EXPECT_EQ(ch.threads_used(), std::min(threads, g.NumNodes()));
        EXPECT_EQ(ch.NumShortcuts(), reference.NumShortcuts());
        EXPECT_EQ(ch.num_batches(), reference.num_batches());
        for (std::size_t v = 0; v < g.NumNodes(); ++v) {
          ASSERT_EQ(ch.RankOf(NodeId(static_cast<NodeId::underlying_type>(v))),
                    reference.RankOf(
                        NodeId(static_cast<NodeId::underlying_type>(v))))
              << "rank diverged at node " << v << " with " << threads
              << " threads";
        }
        ChQuery query(ch);
        ChQuery ref_query(reference);
        for (auto [a, b] : pairs) {
          EXPECT_EQ(query.Distance(a, b), ref_query.Distance(a, b))
              << a.value() << "->" << b.value() << " @" << threads
              << " threads";
        }
      }
    }
  }
}

// Same contract through the refresh path: a GraphDelta swap onto an oracle
// whose CH builds with 8 threads must serve exactly the distances of a
// 1-thread build on the same perturbed graph.
TEST(RoutingBackendTest, ChRefreshIdenticalAcrossThreadCounts) {
  testing::TestCity city = testing::MakeTestCity(10, 10);
  XarSystem xar(city.graph, *city.spatial, *city.region, *city.oracle);

  RoadGraph perturbed = PerturbEdgeWeights(city.graph, 0.3, 411);
  XarOptions options;
  options.preprocess_threads = 8;
  GraphOracle parallel_oracle(perturbed, /*cache_capacity=*/0,
                              options.routing_backend,
                              options.BackendOptions());

  GraphDelta delta;
  delta.graph = &perturbed;
  delta.oracle = &parallel_oracle;
  RefreshStats stats = xar.RefreshDiscretization(delta);
  EXPECT_EQ(stats.epoch, 1u);

  RoutingBackendOptions serial;
  serial.ch.preprocess_threads = 1;
  auto reference =
      MakeRoutingBackend(RoutingBackendKind::kCh, perturbed, serial);
  for (auto [a, b] : SamplePairs(perturbed, 25, 413)) {
    EXPECT_EQ(parallel_oracle.DriveDistance(a, b),
              reference->Distance(a, b, Metric::kDriveDistance));
    EXPECT_EQ(parallel_oracle.DriveTime(a, b),
              reference->Distance(a, b, Metric::kDriveTime));
    EXPECT_EQ(parallel_oracle.WalkDistance(a, b),
              reference->Distance(a, b, Metric::kWalkDistance));
  }

  // The stats surface reports the parallel builds (one row per metric).
  std::vector<PreprocessTiming> timings =
      parallel_oracle.backend().preprocess_timings();
  ASSERT_EQ(timings.size(), 3u);
  for (const PreprocessTiming& t : timings) {
    EXPECT_GT(t.build_ms, 0.0);
    EXPECT_EQ(t.threads, 8u);
    EXPECT_GT(t.batches, 0u);
  }
}

PreprocessTiming TimingOf(const RoutingBackend& backend, Metric metric) {
  for (const PreprocessTiming& t : backend.preprocess_timings()) {
    if (t.metric == metric) return t;
  }
  ADD_FAILURE() << MetricName(metric) << " was never prepared";
  return {};
}

// A congestion refresh changes driving times only: the incoming CH backend
// shares the outgoing drive_m and walk_m hierarchies (no build recorded)
// and re-contracts drive_s. Routes on the shared drive_m hierarchy must be
// profiled on the incoming graph — DriveRoute equals a from-scratch
// oracle's bit for bit, congested time_s included.
TEST(RoutingBackendTest, ChRefreshInheritsHierarchiesOfUnchangedMetrics) {
  testing::TestCity city = testing::MakeTestCity(10, 10);
  city.oracle->Prewarm();
  XarSystem xar(city.graph, *city.spatial, *city.region, *city.oracle);

  RoadGraph congested =
      ScaleEdgeWeights(city.graph, [](NodeId from, NodeId to) {
        return 1.0 +
               0.25 * static_cast<double>((from.value() + to.value()) % 5);
      });
  GraphOracle incoming(congested);
  GraphDelta delta;
  delta.graph = &congested;
  delta.oracle = &incoming;
  ASSERT_EQ(xar.RefreshDiscretization(delta).epoch, 1u);

  const RoutingBackend& backend = incoming.backend();
  for (Metric metric : {Metric::kDriveDistance, Metric::kWalkDistance}) {
    PreprocessTiming t = TimingOf(backend, metric);
    EXPECT_EQ(t.source, PreprocessSource::kInherited) << MetricName(metric);
    EXPECT_EQ(t.build_ms, 0.0) << MetricName(metric);
    EXPECT_EQ(t.shortcuts,
              TimingOf(city.oracle->backend(), metric).shortcuts);
  }
  PreprocessTiming drive_s = TimingOf(backend, Metric::kDriveTime);
  EXPECT_EQ(drive_s.source, PreprocessSource::kReordered);
  EXPECT_GT(drive_s.build_ms, 0.0);
  // Only the re-contraction is this backend's preprocessing work.
  EXPECT_GT(backend.preprocess_millis(), 0.0);
  // The oracle stats section names each metric's source.
  StatsSection section = OracleStatsSection(incoming);
  ASSERT_EQ(section.rows.size(), 1u);
  std::string sources;
  for (const StatsMetric& m : section.rows[0]) {
    if (m.kind != StatsMetric::Kind::kText) continue;
    sources += m.name + "=" + m.value + " ";
  }
  EXPECT_EQ(sources,
            "backend=ch cache=clock drive_m=inherited drive_s=reordered "
            "walk_m=inherited ");

  GraphOracle scratch(congested);
  auto dijkstra = MakeRoutingBackend(RoutingBackendKind::kDijkstra, congested);
  std::size_t slower = 0;
  for (auto [a, b] : SamplePairs(congested, 40, 421)) {
    Path route = incoming.DriveRoute(a, b);
    Path expected = scratch.DriveRoute(a, b);
    EXPECT_EQ(route.nodes, expected.nodes);
    EXPECT_EQ(route.length_m, expected.length_m);
    EXPECT_EQ(route.time_s, expected.time_s);
    if (route.time_s > city.oracle->DriveRoute(a, b).time_s) ++slower;
    EXPECT_EQ(incoming.DriveDistance(a, b), scratch.DriveDistance(a, b));
    EXPECT_EQ(incoming.WalkDistance(a, b), scratch.WalkDistance(a, b));
    ExpectSameDistance(incoming.DriveTime(a, b),
                       dijkstra->Distance(a, b, Metric::kDriveTime),
                       "reordered drive_s");
  }
  // The congestion is visible in the routes' times, so a route profiled on
  // the outgoing graph would have failed the equalities above.
  EXPECT_GT(slower, 0u);
}

// A perturbation changes lengths and times: every hierarchy the outgoing
// backend built is re-contracted in its node order, and each metric still
// answers exactly what Dijkstra does on the perturbed graph.
TEST(RoutingBackendTest, ChRefreshReordersEveryChangedMetric) {
  testing::TestCity city = testing::MakeTestCity(10, 10);
  city.oracle->Prewarm();
  XarSystem xar(city.graph, *city.spatial, *city.region, *city.oracle);

  RoadGraph perturbed = PerturbEdgeWeights(city.graph, 0.3, 431);
  GraphOracle incoming(perturbed);
  GraphDelta delta;
  delta.graph = &perturbed;
  delta.oracle = &incoming;
  ASSERT_EQ(xar.RefreshDiscretization(delta).epoch, 1u);

  for (Metric metric : kAllMetrics) {
    EXPECT_EQ(TimingOf(incoming.backend(), metric).source,
              PreprocessSource::kReordered)
        << MetricName(metric);
  }
  auto dijkstra = MakeRoutingBackend(RoutingBackendKind::kDijkstra, perturbed);
  for (auto [a, b] : SamplePairs(perturbed, 40, 433)) {
    for (Metric metric : kAllMetrics) {
      ExpectSameDistance(incoming.backend().Distance(a, b, metric),
                         dijkstra->Distance(a, b, metric), MetricName(metric));
    }
    ExpectValidRoute(perturbed, incoming.DriveRoute(a, b), a, b,
                     Metric::kDriveDistance,
                     dijkstra->Distance(a, b, Metric::kDriveDistance));
  }
}

// Nothing carries over between graphs with different arcs, from a backend
// of another kind, or across witness limits (the limit shapes the
// hierarchy): each falls back to a full build.
TEST(RoutingBackendTest, ChInheritanceFallsBackToFullBuilds) {
  RoadGraph small = MakePerturbedLattice(8, 8, 441);
  RoadGraph large = MakePerturbedLattice(9, 9, 441);
  RoutingBackendOptions cheap;
  cheap.ch.witness_search_limit = 5;
  auto outgoing = MakeRoutingBackend(RoutingBackendKind::kCh, small);
  auto cheap_outgoing =
      MakeRoutingBackend(RoutingBackendKind::kCh, large, cheap);
  auto dijkstra = MakeRoutingBackend(RoutingBackendKind::kDijkstra, large);
  for (Metric metric : kAllMetrics) {
    outgoing->Prepare(metric);
    cheap_outgoing->Prepare(metric);
  }

  for (const RoutingBackend* from :
       {outgoing.get(), cheap_outgoing.get(), dijkstra.get()}) {
    auto incoming = MakeRoutingBackend(RoutingBackendKind::kCh, large);
    incoming->InheritFrom(*from);
    EXPECT_TRUE(incoming->preprocess_timings().empty()) << from->name();
    for (Metric metric : kAllMetrics) {
      incoming->Prepare(metric);
      EXPECT_EQ(TimingOf(*incoming, metric).source, PreprocessSource::kBuilt);
    }
    for (auto [a, b] : SamplePairs(large, 20, 443)) {
      for (Metric metric : kAllMetrics) {
        ExpectSameDistance(incoming->Distance(a, b, metric),
                           dijkstra->Distance(a, b, metric),
                           MetricName(metric));
      }
    }
  }

  // Same arcs and weights: everything the outgoing backend built is shared.
  auto twin = MakeRoutingBackend(RoutingBackendKind::kCh, small);
  twin->InheritFrom(*outgoing);
  for (Metric metric : kAllMetrics) {
    EXPECT_EQ(TimingOf(*twin, metric).source, PreprocessSource::kInherited);
  }
  EXPECT_EQ(twin->preprocess_millis(), 0.0);
}

TEST(RoutingBackendTest, OracleStatsSectionNamesTheBackend) {
  RoadGraph g = MakePerturbedLattice(6, 6, 361);
  GraphOracle oracle(g, /*cache_capacity=*/64, RoutingBackendKind::kAlt);
  (void)oracle.DriveDistance(NodeId(0), NodeId(5));
  (void)oracle.DriveDistance(NodeId(0), NodeId(5));
  std::string table = StatsSectionTable(OracleStatsSection(oracle)).ToString();
  EXPECT_NE(table.find("alt"), std::string::npos);
  EXPECT_NE(table.find("cache_hits"), std::string::npos);
  // The cache policy is named alongside the backend.
  EXPECT_NE(table.find("clock"), std::string::npos);
}

}  // namespace
}  // namespace xar
