// Differential suite for the bucket-CH many-to-many batch path: the
// DistancesToMany/ManyToMany bucket scans must agree with the per-pair
// ChQuery::Distance EXACTLY (same up-down relaxations, same FP operations)
// and with a plain Dijkstra baseline to the repo's 1e-6 relative contract —
// across all three metrics, perturbed edge weights, and a live
// RefreshDiscretization epoch swap. The oracle's DriveDistanceMatrix sends
// all cache misses of one call down as a single backend batch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/stats_registry.h"
#include "discretize/region_index.h"
#include "graph/contraction_hierarchy.h"
#include "graph/dijkstra.h"
#include "graph/generator.h"
#include "graph/oracle.h"
#include "graph/road_graph.h"
#include "graph/routing_backend.h"
#include "graph/spatial_index.h"
#include "xar/xar_system.h"

namespace xar {
namespace {

// The repo-wide FP contract: CH and Dijkstra relax the same arc weights in
// different orders, so sums may differ in the last bits.
void ExpectSameDistance(double got, double want, const char* what) {
  if (std::isinf(want)) {
    EXPECT_TRUE(std::isinf(got)) << what;
    return;
  }
  EXPECT_NEAR(got, want, 1e-6 * std::max(1.0, std::abs(want))) << what;
}

std::vector<NodeId> RandomNodes(const RoadGraph& g, std::size_t n, Rng* rng) {
  std::vector<NodeId> nodes;
  nodes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes.emplace_back(
        static_cast<NodeId::underlying_type>(rng->NextIndex(g.NumNodes())));
  }
  return nodes;
}

class BucketChTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, Metric>> {};

TEST_P(BucketChTest, BatchMatchesDijkstraAndPointToPoint) {
  auto [seed, metric] = GetParam();
  CityOptions opt;
  opt.rows = 10;
  opt.cols = 10;
  opt.seed = seed;
  RoadGraph g = PerturbEdgeWeights(GenerateCity(opt), 0.25, seed + 7);

  ContractionHierarchy ch(g, metric);
  ChQuery query(ch);
  DijkstraEngine dijkstra(g);
  Rng rng(seed + 13);

  std::vector<NodeId> sources = RandomNodes(g, 9, &rng);
  std::vector<NodeId> targets = RandomNodes(g, 17, &rng);

  std::vector<double> batch = query.ManyToMany(sources, targets);
  ASSERT_EQ(batch.size(), sources.size() * targets.size());
  for (std::size_t s = 0; s < sources.size(); ++s) {
    std::vector<double> base =
        dijkstra.DistancesToMany(sources[s], targets, metric);
    for (std::size_t t = 0; t < targets.size(); ++t) {
      const double got = batch[s * targets.size() + t];
      ExpectSameDistance(got, base[t], "bucket batch vs dijkstra");
      // Bucket scans walk the same up/down arcs as the p2p query, so the
      // agreement here is exact, not within tolerance.
      EXPECT_EQ(got, query.Distance(sources[s], targets[t]))
          << sources[s].value() << "->" << targets[t].value();
    }
  }
}

TEST_P(BucketChTest, OneToManyRowEqualsManyToManyRow) {
  auto [seed, metric] = GetParam();
  CityOptions opt;
  opt.rows = 8;
  opt.cols = 8;
  opt.seed = seed + 1;
  RoadGraph g = GenerateCity(opt);
  ContractionHierarchy ch(g, metric);
  ChQuery query(ch);
  Rng rng(seed + 2);
  std::vector<NodeId> targets = RandomNodes(g, 12, &rng);
  NodeId src = RandomNodes(g, 1, &rng).front();
  std::vector<double> row = query.DistancesToMany(src, targets);
  std::vector<double> matrix = query.ManyToMany({src}, targets);
  ASSERT_EQ(row.size(), targets.size());
  ASSERT_EQ(matrix.size(), targets.size());
  for (std::size_t t = 0; t < targets.size(); ++t) {
    EXPECT_EQ(row[t], matrix[t]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndMetrics, BucketChTest,
    ::testing::Combine(::testing::Values(301, 302, 303),
                       ::testing::Values(Metric::kDriveDistance,
                                         Metric::kDriveTime,
                                         Metric::kWalkDistance)));

TEST(BucketChEdgeCaseTest, EmptyAndSelfQueries) {
  CityOptions opt;
  opt.rows = 6;
  opt.cols = 6;
  opt.seed = 305;
  RoadGraph g = GenerateCity(opt);
  ContractionHierarchy ch(g, Metric::kDriveDistance);
  ChQuery query(ch);
  EXPECT_TRUE(query.ManyToMany({}, {NodeId(0)}).empty());
  EXPECT_TRUE(query.ManyToMany({NodeId(0)}, {}).empty());
  EXPECT_TRUE(query.DistancesToMany(NodeId(0), {}).empty());
  // Self distance and duplicate targets.
  std::vector<double> row =
      query.DistancesToMany(NodeId(3), {NodeId(3), NodeId(3), NodeId(5)});
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], 0.0);
  EXPECT_EQ(row[1], 0.0);
  EXPECT_EQ(row[2], query.Distance(NodeId(3), NodeId(5)));
}

// Re-running a batch after a different batch must not leak bucket entries
// between target sets.
TEST(BucketChEdgeCaseTest, ConsecutiveBatchesDoNotLeakBuckets) {
  CityOptions opt;
  opt.rows = 7;
  opt.cols = 7;
  opt.seed = 306;
  RoadGraph g = GenerateCity(opt);
  ContractionHierarchy ch(g, Metric::kDriveDistance);
  ChQuery query(ch);
  Rng rng(307);
  std::vector<NodeId> first = RandomNodes(g, 10, &rng);
  std::vector<NodeId> second = RandomNodes(g, 4, &rng);
  NodeId src = RandomNodes(g, 1, &rng).front();
  (void)query.DistancesToMany(src, first);
  std::vector<double> row = query.DistancesToMany(src, second);
  ASSERT_EQ(row.size(), second.size());
  for (std::size_t t = 0; t < second.size(); ++t) {
    EXPECT_EQ(row[t], query.Distance(src, second[t]));
  }
}

// The backend batch stays pinned to Dijkstra through a live refresh: a
// perturbed graph arrives with its own oracle via GraphDelta, the system
// swaps epochs, and the NEW backend's many-to-many must price the NEW
// weights (and the landmark matrix rebuild must have gone down the batch
// path — the backend batch counter moves).
TEST(BucketChRefreshTest, BatchMatchesDijkstraAcrossEpochSwap) {
  CityOptions opt;
  opt.rows = 9;
  opt.cols = 9;
  opt.seed = 310;
  RoadGraph g = GenerateCity(opt);
  SpatialNodeIndex spatial(g);
  DiscretizationOptions dopt;
  RegionIndex region = RegionIndex::Build(g, spatial, dopt);
  GraphOracle oracle(g);
  XarSystem xar(g, spatial, region, oracle);

  RoadGraph perturbed = PerturbEdgeWeights(g, 0.3, 311);
  GraphOracle next_oracle(perturbed);
  GraphDelta delta;
  delta.graph = &perturbed;
  delta.oracle = &next_oracle;
  RefreshStats stats = xar.RefreshDiscretization(delta);
  EXPECT_EQ(stats.epoch, 1u);
  // The landmark-matrix rebuild batched on the incoming backend.
  ASSERT_NE(next_oracle.routing_backend(), nullptr);
  EXPECT_GE(next_oracle.routing_backend()->m2m_batch_count(), 1u);

  RoutingBackend* backend = next_oracle.mutable_routing_backend();
  ASSERT_NE(backend, nullptr);
  DijkstraEngine dijkstra(perturbed);
  Rng rng(312);
  std::vector<NodeId> sources = RandomNodes(perturbed, 6, &rng);
  std::vector<NodeId> targets = RandomNodes(perturbed, 11, &rng);
  std::vector<double> batch =
      backend->ManyToMany(sources, targets, Metric::kDriveDistance);
  ASSERT_EQ(batch.size(), sources.size() * targets.size());
  for (std::size_t s = 0; s < sources.size(); ++s) {
    std::vector<double> base = dijkstra.DistancesToMany(
        sources[s], targets, Metric::kDriveDistance);
    for (std::size_t t = 0; t < targets.size(); ++t) {
      ExpectSameDistance(batch[s * targets.size() + t], base[t],
                         "post-refresh batch vs dijkstra");
    }
  }
}

// One DriveDistanceMatrix call on a cold distance cache costs exactly ONE
// backend many-to-many batch, however many pairs it asks for; repeating it
// is answered from the cache with no further batch.
TEST(OracleMatrixTest, ColdCacheMatrixIsOneBackendBatch) {
  CityOptions opt;
  opt.rows = 8;
  opt.cols = 8;
  opt.seed = 320;
  RoadGraph g = GenerateCity(opt);
  GraphOracle oracle(g);
  ASSERT_NE(oracle.routing_backend(), nullptr);
  Rng rng(321);
  std::vector<NodeId> sources = RandomNodes(g, 7, &rng);
  std::vector<NodeId> targets = RandomNodes(g, 13, &rng);

  ASSERT_EQ(oracle.routing_backend()->m2m_batch_count(), 0u);
  std::vector<double> cold = oracle.DriveDistanceMatrix(sources, targets);
  ASSERT_EQ(cold.size(), sources.size() * targets.size());
  EXPECT_EQ(oracle.routing_backend()->m2m_batch_count(), 1u)
      << "one matrix call must go down as one backend batch";

  DijkstraEngine dijkstra(g);
  for (std::size_t s = 0; s < sources.size(); ++s) {
    std::vector<double> base = dijkstra.DistancesToMany(
        sources[s], targets, Metric::kDriveDistance);
    for (std::size_t t = 0; t < targets.size(); ++t) {
      ExpectSameDistance(cold[s * targets.size() + t], base[t],
                         "oracle matrix vs dijkstra");
    }
  }
  EXPECT_EQ(oracle.DriveDistanceMatrix(sources, targets), cold);
  EXPECT_EQ(oracle.routing_backend()->m2m_batch_count(), 1u);
}

// The oracle stats section surfaces the backend batch/fallback counters.
TEST(OracleMatrixTest, OracleStatsSectionHasBatchCounters) {
  CityOptions opt;
  opt.rows = 6;
  opt.cols = 6;
  opt.seed = 322;
  RoadGraph g = GenerateCity(opt);
  GraphOracle oracle(g);
  StatsSection section = OracleStatsSection(oracle);
  std::vector<std::string> names;
  for (const auto& row : section.rows) {
    for (const StatsMetric& m : row) names.push_back(m.name);
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "m2m_batch_queries"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "m2m_fallback_queries"),
            names.end());
}

}  // namespace
}  // namespace xar
