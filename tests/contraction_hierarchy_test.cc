#include "graph/contraction_hierarchy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "common/rng.h"
#include "graph/dijkstra.h"
#include "graph/generator.h"
#include "graph/path_profile.h"

namespace xar {
namespace {

/// CH must be exact for any node order / witness limit — verified against
/// Dijkstra across seeds and metrics.
class ChCorrectnessTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, Metric>> {};

TEST_P(ChCorrectnessTest, MatchesDijkstra) {
  auto [seed, metric] = GetParam();
  CityOptions opt;
  opt.rows = 9;
  opt.cols = 9;
  opt.seed = seed;
  RoadGraph g = GenerateCity(opt);
  ContractionHierarchy ch(g, metric);
  DijkstraEngine dijkstra(g);
  Rng rng(seed + 1);
  for (int i = 0; i < 60; ++i) {
    NodeId a(static_cast<NodeId::underlying_type>(
        rng.NextIndex(g.NumNodes())));
    NodeId b(static_cast<NodeId::underlying_type>(
        rng.NextIndex(g.NumNodes())));
    EXPECT_NEAR(ch.Distance(a, b), dijkstra.Distance(a, b, metric), 1e-6)
        << a.value() << "->" << b.value();
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndMetrics, ChCorrectnessTest,
    ::testing::Combine(::testing::Values(51, 52, 53),
                       ::testing::Values(Metric::kDriveDistance,
                                         Metric::kDriveTime)));

TEST(ContractionHierarchyTest, TightWitnessLimitStaysExact) {
  CityOptions opt;
  opt.rows = 8;
  opt.cols = 8;
  opt.seed = 54;
  RoadGraph g = GenerateCity(opt);
  ChOptions cheap;
  cheap.witness_search_limit = 2;  // nearly no witness search: many shortcuts
  ContractionHierarchy lazy(g, Metric::kDriveDistance, cheap);
  ContractionHierarchy thorough(g, Metric::kDriveDistance, {});
  EXPECT_GE(lazy.NumShortcuts(), thorough.NumShortcuts());
  DijkstraEngine dijkstra(g);
  Rng rng(55);
  for (int i = 0; i < 40; ++i) {
    NodeId a(static_cast<NodeId::underlying_type>(
        rng.NextIndex(g.NumNodes())));
    NodeId b(static_cast<NodeId::underlying_type>(
        rng.NextIndex(g.NumNodes())));
    double expect = dijkstra.Distance(a, b, Metric::kDriveDistance);
    EXPECT_NEAR(lazy.Distance(a, b), expect, 1e-6);
    EXPECT_NEAR(thorough.Distance(a, b), expect, 1e-6);
  }
}

TEST(ContractionHierarchyTest, SettlesFewerNodesThanDijkstra) {
  CityOptions opt;
  opt.rows = 18;
  opt.cols = 18;
  opt.seed = 56;
  RoadGraph g = GenerateCity(opt);
  ContractionHierarchy ch(g);
  DijkstraEngine dijkstra(g);
  Rng rng(57);
  std::size_t ch_settled = 0, dijkstra_settled = 0;
  for (int i = 0; i < 50; ++i) {
    NodeId a(static_cast<NodeId::underlying_type>(
        rng.NextIndex(g.NumNodes())));
    NodeId b(static_cast<NodeId::underlying_type>(
        rng.NextIndex(g.NumNodes())));
    ch.Distance(a, b);
    dijkstra.Distance(a, b, Metric::kDriveDistance);
    ch_settled += ch.last_settled_count();
    dijkstra_settled += dijkstra.last_settled_count();
  }
  EXPECT_LT(ch_settled, dijkstra_settled);
}

TEST(ContractionHierarchyTest, RanksAreAPermutation) {
  CityOptions opt;
  opt.rows = 7;
  opt.cols = 7;
  opt.seed = 58;
  RoadGraph g = GenerateCity(opt);
  ContractionHierarchy ch(g);
  std::vector<bool> seen(g.NumNodes(), false);
  for (std::size_t v = 0; v < g.NumNodes(); ++v) {
    std::size_t r =
        ch.RankOf(NodeId(static_cast<NodeId::underlying_type>(v)));
    ASSERT_LT(r, g.NumNodes());
    EXPECT_FALSE(seen[r]);
    seen[r] = true;
  }
}

/// Unpacked routes must be real original-graph chains (every hop an actual
/// edge under the metric) whose length equals the shortcut-level distance.
TEST_P(ChCorrectnessTest, UnpackedRoutesMatchDistances) {
  auto [seed, metric] = GetParam();
  CityOptions opt;
  opt.rows = 9;
  opt.cols = 9;
  opt.seed = seed;
  RoadGraph g = GenerateCity(opt);
  ContractionHierarchy ch(g, metric);
  Rng rng(seed + 3);
  int found = 0;
  for (int i = 0; i < 40; ++i) {
    NodeId a(static_cast<NodeId::underlying_type>(
        rng.NextIndex(g.NumNodes())));
    NodeId b(static_cast<NodeId::underlying_type>(
        rng.NextIndex(g.NumNodes())));
    const double dist = ch.Distance(a, b);
    std::vector<NodeId> nodes = ch.RouteNodes(a, b);
    if (std::isinf(dist)) {
      EXPECT_TRUE(nodes.empty());
      continue;
    }
    ++found;
    ASSERT_FALSE(nodes.empty());
    ASSERT_EQ(nodes.front(), a);
    ASSERT_EQ(nodes.back(), b);
    double sum = 0.0;
    for (std::size_t h = 0; h + 1 < nodes.size(); ++h) {
      double hop = std::numeric_limits<double>::infinity();
      for (const RoadEdge& e : g.OutEdges(nodes[h])) {
        if (e.to == nodes[h + 1]) {
          hop = std::min(hop, RoadGraph::EdgeWeight(e, metric));
        }
      }
      ASSERT_TRUE(std::isfinite(hop)) << "hop " << h << " is not an edge";
      sum += hop;
    }
    EXPECT_NEAR(sum, dist, 1e-6 * std::max(1.0, dist));
  }
  EXPECT_GT(found, 0);
}

TEST(ContractionHierarchyTest, RouteBetweenSameNodeIsZeroLengthSingleton) {
  CityOptions opt;
  opt.rows = 6;
  opt.cols = 6;
  opt.seed = 60;
  RoadGraph g = GenerateCity(opt);
  ContractionHierarchy ch(g);
  Path path = ProfileNodePath(g, ch.RouteNodes(NodeId(7), NodeId(7)),
                              Metric::kDriveDistance);
  ASSERT_EQ(path.nodes.size(), 1u);
  EXPECT_EQ(path.nodes.front(), NodeId(7));
  EXPECT_DOUBLE_EQ(path.length_m, 0.0);
  EXPECT_DOUBLE_EQ(path.time_s, 0.0);
}

/// Per-thread ChQuery workspaces over one shared immutable hierarchy must
/// return the same answers as the hierarchy's own convenience query.
TEST(ContractionHierarchyTest, SeparateQueryWorkspacesAgree) {
  CityOptions opt;
  opt.rows = 8;
  opt.cols = 8;
  opt.seed = 61;
  RoadGraph g = GenerateCity(opt);
  ContractionHierarchy ch(g);
  ChQuery q1(ch), q2(ch);
  Rng rng(62);
  for (int i = 0; i < 30; ++i) {
    NodeId a(static_cast<NodeId::underlying_type>(
        rng.NextIndex(g.NumNodes())));
    NodeId b(static_cast<NodeId::underlying_type>(
        rng.NextIndex(g.NumNodes())));
    const double expect = ch.Distance(a, b);
    EXPECT_DOUBLE_EQ(q1.Distance(a, b), expect);
    EXPECT_DOUBLE_EQ(q2.Distance(a, b), expect);
    EXPECT_EQ(q1.RouteNodes(a, b), ch.RouteNodes(a, b));
  }
}

/// Re-contracting in another hierarchy's node order — what a refresh does
/// for a metric whose weights changed — stays exact, and the hierarchy is
/// byte-identical at 1 and 4 worker threads.
TEST(ContractionHierarchyTest, ReContractionIsExactAndThreadInvariant) {
  CityOptions opt;
  opt.rows = 10;
  opt.cols = 10;
  opt.seed = 63;
  RoadGraph g = GenerateCity(opt);
  RoadGraph congested = ScaleEdgeWeights(g, [](NodeId from, NodeId to) {
    return 1.0 + 0.3 * static_cast<double>((from.value() * to.value()) % 7);
  });
  ContractionHierarchy original(g, Metric::kDriveTime);

  ChOptions serial;
  serial.preprocess_threads = 1;
  ChOptions quad;
  quad.preprocess_threads = 4;
  ContractionHierarchy one(congested, Metric::kDriveTime, original, serial);
  ContractionHierarchy four(congested, Metric::kDriveTime, original, quad);
  EXPECT_EQ(four.threads_used(), 4u);
  EXPECT_EQ(one.NumShortcuts(), four.NumShortcuts());
  EXPECT_EQ(one.num_batches(), four.num_batches());
  for (std::size_t v = 0; v < g.NumNodes(); ++v) {
    const NodeId n(static_cast<NodeId::underlying_type>(v));
    ASSERT_EQ(one.RankOf(n), four.RankOf(n)) << "node " << v;
  }

  DijkstraEngine dijkstra(congested);
  Rng rng(64);
  for (int i = 0; i < 60; ++i) {
    NodeId a(static_cast<NodeId::underlying_type>(
        rng.NextIndex(g.NumNodes())));
    NodeId b(static_cast<NodeId::underlying_type>(
        rng.NextIndex(g.NumNodes())));
    const double d = one.Distance(a, b);
    EXPECT_EQ(four.Distance(a, b), d);
    EXPECT_NEAR(d, dijkstra.Distance(a, b, Metric::kDriveTime), 1e-6)
        << a.value() << "->" << b.value();
    EXPECT_EQ(one.RouteNodes(a, b), four.RouteNodes(a, b));
  }
}

/// Re-contracting over unchanged weights rebuilds exactly the previous
/// hierarchy: each of its levels is again an independent set of the graph
/// it meets.
TEST(ContractionHierarchyTest, ReContractionOfSameWeightsIsIdentical) {
  CityOptions opt;
  opt.rows = 12;
  opt.cols = 12;
  opt.seed = 65;
  RoadGraph g = GenerateCity(opt);
  for (Metric metric : {Metric::kDriveDistance, Metric::kWalkDistance}) {
    ContractionHierarchy original(g, metric);
    ContractionHierarchy rebuilt(g, metric, original, {});
    EXPECT_EQ(rebuilt.NumShortcuts(), original.NumShortcuts());
    EXPECT_EQ(rebuilt.num_batches(), original.num_batches());
    for (std::size_t v = 0; v < g.NumNodes(); ++v) {
      const NodeId n(static_cast<NodeId::underlying_type>(v));
      ASSERT_EQ(rebuilt.RankOf(n), original.RankOf(n)) << "node " << v;
    }
  }
}

TEST(ContractionHierarchyTest, TrivialQueries) {
  CityOptions opt;
  opt.rows = 6;
  opt.cols = 6;
  opt.seed = 59;
  RoadGraph g = GenerateCity(opt);
  ContractionHierarchy ch(g);
  EXPECT_DOUBLE_EQ(ch.Distance(NodeId(5), NodeId(5)), 0.0);
  EXPECT_GT(ch.MemoryFootprint(), 0u);
}

}  // namespace
}  // namespace xar
