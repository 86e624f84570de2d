#ifndef XAR_TESTS_TEST_HELPERS_H_
#define XAR_TESTS_TEST_HELPERS_H_

#include <limits>
#include <memory>

#include "discretize/region_index.h"
#include "graph/generator.h"
#include "graph/oracle.h"
#include "graph/road_graph.h"
#include "graph/spatial_index.h"
#include "match/cluster_ride_list.h"

namespace xar {
namespace testing {

/// A small synthetic city with its spatial index, discretization and oracle,
/// shared across integration-style tests. Built once per options signature.
struct TestCity {
  RoadGraph graph;
  std::unique_ptr<SpatialNodeIndex> spatial;
  std::unique_ptr<RegionIndex> region;
  std::unique_ptr<GraphOracle> oracle;
};

inline TestCity MakeTestCity(std::size_t rows = 14, std::size_t cols = 14,
                             double delta_m = 300.0) {
  TestCity city;
  CityOptions copt;
  copt.rows = rows;
  copt.cols = cols;
  copt.seed = 99;
  city.graph = GenerateCity(copt);
  city.spatial = std::make_unique<SpatialNodeIndex>(city.graph);
  DiscretizationOptions dopt;
  dopt.delta_m = delta_m;
  dopt.landmarks.num_candidates = 250;
  dopt.landmarks.min_separation_f_m = 200.0;
  city.region = std::make_unique<RegionIndex>(
      RegionIndex::Build(city.graph, *city.spatial, dopt));
  city.oracle = std::make_unique<GraphOracle>(city.graph);
  return city;
}

/// The process-wide default test city (built lazily, reused across suites to
/// keep test runtime down).
inline TestCity& SharedCity() {
  static TestCity* city = new TestCity(MakeTestCity());
  return *city;
}

/// The entry of `ride` in `list`, or nullptr. A list keeps no ride-id order,
/// so this scans the whole ETA order.
inline const PotentialRide* FindEntry(const ClusterRideList& list,
                                      RideId ride) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const PotentialRide& entry : list.EtaRange(-kInf, kInf)) {
    if (entry.ride == ride) return &entry;
  }
  return nullptr;
}

}  // namespace testing
}  // namespace xar

#endif  // XAR_TESTS_TEST_HELPERS_H_
