#include "graph/alt.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/dijkstra.h"
#include "graph/generator.h"

namespace xar {
namespace {

/// ALT must be exact: it only changes the exploration order.
class AltCorrectnessTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AltCorrectnessTest, MatchesDijkstra) {
  CityOptions opt;
  opt.rows = 10;
  opt.cols = 10;
  opt.seed = GetParam();
  RoadGraph g = GenerateCity(opt);
  AltEngine alt(g, 6);
  DijkstraEngine dijkstra(g);
  Rng rng(GetParam() + 1);
  for (int i = 0; i < 50; ++i) {
    NodeId a(static_cast<NodeId::underlying_type>(
        rng.NextIndex(g.NumNodes())));
    NodeId b(static_cast<NodeId::underlying_type>(
        rng.NextIndex(g.NumNodes())));
    EXPECT_NEAR(alt.Distance(a, b),
                dijkstra.Distance(a, b, Metric::kDriveDistance), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AltCorrectnessTest,
                         ::testing::Values(31, 32, 33));

TEST(AltTest, LowerBoundIsAdmissible) {
  CityOptions opt;
  opt.rows = 9;
  opt.cols = 9;
  opt.seed = 34;
  RoadGraph g = GenerateCity(opt);
  AltEngine alt(g, 8);
  DijkstraEngine dijkstra(g);
  Rng rng(35);
  for (int i = 0; i < 80; ++i) {
    NodeId v(static_cast<NodeId::underlying_type>(
        rng.NextIndex(g.NumNodes())));
    NodeId t(static_cast<NodeId::underlying_type>(
        rng.NextIndex(g.NumNodes())));
    double exact = dijkstra.Distance(v, t, Metric::kDriveDistance);
    EXPECT_LE(alt.LowerBound(v, t), exact + 1e-6);
    EXPECT_GE(alt.LowerBound(v, t), 0.0);
  }
}

// The landmark bounds must actually steer the search: an ALT whose bounds
// were all zero would settle as many nodes as Dijkstra and pass every
// exactness test above.
TEST(AltTest, SettlesFewerNodesThanDijkstraOnAverage) {
  CityOptions opt;
  opt.rows = 18;
  opt.cols = 18;
  opt.seed = 36;
  opt.one_way_fraction = 0.7;
  RoadGraph g = GenerateCity(opt);
  AltEngine alt(g, 10);
  DijkstraEngine dijkstra(g);
  Rng rng(37);
  std::size_t alt_settled = 0, dijkstra_settled = 0;
  for (int i = 0; i < 60; ++i) {
    NodeId a(static_cast<NodeId::underlying_type>(
        rng.NextIndex(g.NumNodes())));
    NodeId b(static_cast<NodeId::underlying_type>(
        rng.NextIndex(g.NumNodes())));
    alt.Distance(a, b);
    dijkstra.Distance(a, b, Metric::kDriveDistance);
    alt_settled += alt.last_settled_count();
    dijkstra_settled += dijkstra.last_settled_count();
  }
  EXPECT_LT(alt_settled, dijkstra_settled);
}

TEST(AltTest, AnchorsAreDistinctAndSpread) {
  CityOptions opt;
  opt.rows = 12;
  opt.cols = 12;
  opt.seed = 38;
  RoadGraph g = GenerateCity(opt);
  AltEngine alt(g, 6);
  ASSERT_EQ(alt.num_anchors(), 6u);
  for (std::size_t i = 0; i < alt.anchors().size(); ++i) {
    for (std::size_t j = i + 1; j < alt.anchors().size(); ++j) {
      EXPECT_NE(alt.anchors()[i], alt.anchors()[j]);
    }
  }
  EXPECT_GT(alt.MemoryFootprint(),
            2 * 6 * g.NumNodes() * sizeof(double));
}

TEST(AltTest, SourceEqualsDestination) {
  CityOptions opt;
  opt.rows = 6;
  opt.cols = 6;
  opt.seed = 39;
  RoadGraph g = GenerateCity(opt);
  AltEngine alt(g, 4);
  EXPECT_DOUBLE_EQ(alt.Distance(NodeId(3), NodeId(3)), 0.0);
}

TEST(AltTest, MoreAnchorsNeverLoosensBounds) {
  CityOptions opt;
  opt.rows = 10;
  opt.cols = 10;
  opt.seed = 40;
  RoadGraph g = GenerateCity(opt);
  AltEngine few(g, 2);
  AltEngine many(g, 10);
  Rng rng(41);
  for (int i = 0; i < 60; ++i) {
    NodeId v(static_cast<NodeId::underlying_type>(
        rng.NextIndex(g.NumNodes())));
    NodeId t(static_cast<NodeId::underlying_type>(
        rng.NextIndex(g.NumNodes())));
    // The first 2 anchors of `many` coincide with `few`'s (same greedy
    // order), so the max over more anchors can only be tighter.
    EXPECT_GE(many.LowerBound(v, t) + 1e-9, few.LowerBound(v, t));
  }
}

}  // namespace
}  // namespace xar
