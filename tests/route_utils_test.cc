#include "xar/route_utils.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "graph/dijkstra.h"
#include "graph/oracle.h"
#include "tests/test_helpers.h"

namespace xar {
namespace {

using testing::SharedCity;

TEST(RouteUtilsTest, CumulativeProfilesMatchPathTotals) {
  auto& city = SharedCity();
  DijkstraEngine engine(city.graph);
  Path path = engine.ShortestPath(NodeId(0),
                                  NodeId(static_cast<NodeId::underlying_type>(
                                      city.graph.NumNodes() - 1)),
                                  Metric::kDriveDistance);
  ASSERT_TRUE(path.Found());
  std::vector<double> cum_time, cum_dist;
  BuildCumulativeProfiles(city.graph, path.nodes, &cum_time, &cum_dist);
  ASSERT_EQ(cum_time.size(), path.nodes.size());
  ASSERT_EQ(cum_dist.size(), path.nodes.size());
  EXPECT_DOUBLE_EQ(cum_time.front(), 0.0);
  EXPECT_DOUBLE_EQ(cum_dist.front(), 0.0);
  EXPECT_NEAR(cum_dist.back(), path.length_m, 1e-6);
  EXPECT_NEAR(cum_time.back(), path.time_s, 1e-6);
  for (std::size_t i = 1; i < cum_dist.size(); ++i) {
    EXPECT_GT(cum_dist[i], cum_dist[i - 1]);
    EXPECT_GT(cum_time[i], cum_time[i - 1]);
  }
}

// A route's totals are its profile's last entries: every backend's
// DriveRoute sums the same best drivable edges in the same order, so a
// ride created from one DriveRoute keeps the oracle Path's own totals.
TEST(RouteUtilsTest, DriveRouteTotalsBitEqualProfileTotals) {
  auto& city = SharedCity();
  const auto n = static_cast<NodeId::underlying_type>(city.graph.NumNodes());
  for (RoutingBackendKind kind :
       {RoutingBackendKind::kDijkstra, RoutingBackendKind::kAlt,
        RoutingBackendKind::kCh}) {
    SCOPED_TRACE(RoutingBackendName(kind));
    GraphOracle oracle(city.graph, 0, kind);
    for (NodeId::underlying_type i = 0; i < 60; ++i) {
      const NodeId from((i * 7919u) % n);
      const NodeId to((i * 104729u + 13u) % n);
      if (from == to) continue;
      Path path = oracle.DriveRoute(from, to);
      ASSERT_TRUE(path.Found());
      std::vector<double> cum_time, cum_dist;
      BuildCumulativeProfiles(city.graph, path.nodes, &cum_time, &cum_dist);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(cum_dist.back()),
                std::bit_cast<std::uint64_t>(path.length_m));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(cum_time.back()),
                std::bit_cast<std::uint64_t>(path.time_s));
    }
  }
}

TEST(RouteUtilsTest, SingleNodeProfile) {
  auto& city = SharedCity();
  std::vector<NodeId> route = {NodeId(3)};
  std::vector<double> cum_time, cum_dist;
  BuildCumulativeProfiles(city.graph, route, &cum_time, &cum_dist);
  ASSERT_EQ(cum_time.size(), 1u);
  EXPECT_DOUBLE_EQ(cum_time[0], 0.0);
  EXPECT_DOUBLE_EQ(cum_dist[0], 0.0);
}

TEST(RouteUtilsTest, AppendDropsDuplicatedJunction) {
  std::vector<NodeId> route = {NodeId(1), NodeId(2)};
  AppendPathNodes(&route, {NodeId(2), NodeId(3), NodeId(4)});
  ASSERT_EQ(route.size(), 4u);
  EXPECT_EQ(route[1], NodeId(2));
  EXPECT_EQ(route[2], NodeId(3));
}

TEST(RouteUtilsTest, AppendWithoutSharedJunctionKeepsAll) {
  std::vector<NodeId> route = {NodeId(1)};
  AppendPathNodes(&route, {NodeId(5), NodeId(6)});
  ASSERT_EQ(route.size(), 3u);
}

TEST(RouteUtilsTest, AppendToEmpty) {
  std::vector<NodeId> route;
  AppendPathNodes(&route, {NodeId(9), NodeId(10)});
  ASSERT_EQ(route.size(), 2u);
  AppendPathNodes(&route, {});
  EXPECT_EQ(route.size(), 2u);
}

}  // namespace
}  // namespace xar
