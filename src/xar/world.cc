#include "xar/world.h"

#include <utility>

namespace xar {

std::unique_ptr<GraphOracle> MakeOracle(const RoadGraph& graph,
                                        const XarOptions& options) {
  return std::make_unique<GraphOracle>(
      graph, /*cache_capacity=*/std::size_t{1} << 16, options.routing_backend,
      options.BackendOptions(), options.oracle_cache);
}

World::World(RoadGraph graph_in, const DiscretizationOptions& disc,
             const XarOptions& options)
    : graph(std::move(graph_in)),
      spatial(std::make_unique<SpatialNodeIndex>(graph)),
      region(std::make_unique<RegionIndex>(
          RegionIndex::Build(graph, *spatial, disc))),
      oracle(MakeOracle(graph, options)) {}

}  // namespace xar
