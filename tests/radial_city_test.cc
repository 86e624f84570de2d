// The radial city generator plus a full-stack sweep over it: the XAR
// pipeline must work unchanged on a non-grid topology.

#include <gtest/gtest.h>

#include <limits>

#include "graph/dijkstra.h"
#include "graph/generator.h"
#include "sim/event_sim.h"
#include "workload/trip_generator.h"
#include "xar/concurrent_xar.h"
#include "xar/world.h"

namespace xar {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

class RadialCityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RadialCityTest, StronglyConnectedForDriving) {
  RadialCityOptions opt;
  opt.seed = GetParam();
  RoadGraph g = GenerateRadialCity(opt);
  ASSERT_GT(g.NumNodes(), opt.spokes * 2);
  DijkstraEngine engine(g);
  auto reachable = engine.NodesWithin(NodeId(0), kInf, Metric::kDriveDistance);
  EXPECT_EQ(reachable.size(), g.NumNodes());
  NodeId far(static_cast<NodeId::underlying_type>(g.NumNodes() - 1));
  EXPECT_LT(engine.Distance(far, NodeId(0), Metric::kDriveDistance), kInf);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RadialCityTest,
                         ::testing::Values(1, 7, 42));

TEST(RadialCityTest2, ExpectedShape) {
  RadialCityOptions opt;
  opt.rings = 4;
  opt.spokes = 8;
  opt.removed_fraction = 0.0;  // keep every node
  RoadGraph g = GenerateRadialCity(opt);
  EXPECT_EQ(g.NumNodes(), 1u + 4u * 8u);
  // The center is a hub: degree == number of spokes (each two-way).
  EXPECT_EQ(g.OutEdges(NodeId(0)).size(), 8u);
  // Bounds span roughly 2x the outer radius.
  double extent = 2 * 4 * opt.ring_spacing_m;
  EXPECT_NEAR(g.bounds().WidthMeters(), extent, extent * 0.1);
  EXPECT_NEAR(g.bounds().HeightMeters(), extent, extent * 0.1);
}

TEST(RadialCityTest2, DeterministicPerSeed) {
  RadialCityOptions opt;
  opt.seed = 9;
  RoadGraph a = GenerateRadialCity(opt);
  RoadGraph b = GenerateRadialCity(opt);
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
}

TEST(RadialCityTest2, FullXarStackRunsOnRadialTopology) {
  RadialCityOptions copt;
  copt.rings = 6;
  copt.spokes = 14;
  copt.seed = 3;
  DiscretizationOptions dopt;
  dopt.landmarks.num_candidates = 250;
  World world(GenerateRadialCity(copt), dopt);
  ASSERT_GT(world.region->NumClusters(), 3u);
  ConcurrentXarSystem xar(world.graph, *world.spatial, *world.region,
                          *world.oracle, {}, /*num_shards=*/1);

  WorkloadOptions wopt;
  wopt.num_trips = 1500;
  wopt.seed = 4;
  std::vector<TaxiTrip> trips = GenerateTrips(world.graph.bounds(), wopt);
  EventSim sim(world.graph, xar.options(), ScenarioConfig{});
  EventSimResult result = RunEventSim(xar, sim, trips);
  EXPECT_EQ(result.requests, trips.size());
  EXPECT_GT(result.matched, 0u);
  // Booking invariants hold on the radial topology too.
  for (const BookingRecord& b : result.bookings) {
    EXPECT_LE(b.pickup_eta_s, b.dropoff_eta_s + 1e-6);
    EXPECT_LE(b.shortest_path_computations, 4u);
    EXPECT_LE(b.walk_m, xar.options().default_walk_limit_m + 1e-6);
  }
}

}  // namespace
}  // namespace xar
