#ifndef PERFBENCH_WORLD_H_
#define PERFBENCH_WORLD_H_

// The benchmark's world: the default 28x28 bench city, its discretization, a
// contraction-hierarchy oracle built eagerly, and the day's trip pool. The
// city and the pool are fixed -- they are the environment; each workload
// draws its inputs (which trips drive, which ride, in what order) from the
// run's seed. A seed that regenerated the pool would move its hotspots, and
// the run-to-run spread would mostly measure the city instead of the code.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "discretize/region_index.h"
#include "graph/oracle.h"
#include "graph/road_graph.h"
#include "graph/spatial_index.h"
#include "workload/taxi_trip.h"
#include "xar/options.h"
#include "xar/ride.h"

namespace perfbench {

/// δ of the discretization; the paper's ε = 4δ = 1 km.
inline constexpr double kDeltaM = 250.0;
inline constexpr double kEpsilonM = 4.0 * kDeltaM;

struct World {
  xar::RoadGraph graph;
  std::unique_ptr<xar::SpatialNodeIndex> spatial;
  std::unique_ptr<xar::GraphOracle> oracle;
  std::unique_ptr<xar::RegionIndex> region;
  std::vector<xar::TaxiTrip> trips;  ///< the day's pool, time-sorted

  double ch_build_ms = 0.0;      ///< forced CH build, all three metrics
  double region_build_ms = 0.0;  ///< RegionIndex::Build on the CH backend
};

/// Builds the city, forces the CH build (not lazy), builds the region on the
/// CH backend and generates the pool of `num_trips` trips.
std::unique_ptr<World> BuildWorld(std::size_t num_trips);

xar::RideOffer OfferFrom(const xar::TaxiTrip& trip);

/// Peak resident set size of this process, MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_WORLD_H_
