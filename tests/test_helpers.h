#ifndef XAR_TESTS_TEST_HELPERS_H_
#define XAR_TESTS_TEST_HELPERS_H_

#include <limits>

#include "graph/generator.h"
#include "match/cluster_ride_list.h"
#include "xar/world.h"

namespace xar {
namespace testing {

/// A small synthetic city with its spatial index, discretization and oracle,
/// shared across integration-style tests.
using TestCity = World;

inline TestCity MakeTestCity(std::size_t rows = 14, std::size_t cols = 14,
                             double delta_m = 300.0) {
  CityOptions copt;
  copt.rows = rows;
  copt.cols = cols;
  copt.seed = 99;
  DiscretizationOptions dopt;
  dopt.delta_m = delta_m;
  dopt.landmarks.num_candidates = 250;
  dopt.landmarks.min_separation_f_m = 200.0;
  return TestCity(GenerateCity(copt), dopt);
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
