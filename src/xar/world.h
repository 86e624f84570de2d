#ifndef XAR_XAR_WORLD_H_
#define XAR_XAR_WORLD_H_

#include <memory>

#include "discretize/region_index.h"
#include "graph/oracle.h"
#include "graph/road_graph.h"
#include "graph/spatial_index.h"
#include "xar/options.h"

namespace xar {

/// The GraphOracle a XarSystem configured by `options` routes on: its
/// routing backend and backend knobs (XarOptions::BackendOptions), its
/// cache policy, and a 1<<16-entry distance cache. The one place options
/// become an oracle.
std::unique_ptr<GraphOracle> MakeOracle(const RoadGraph& graph,
                                        const XarOptions& options);

/// One road network and the stack a XarSystem runs on over it: the spatial
/// node index, the region discretization and the routing oracle
/// (MakeOracle). The region is built with the internal Dijkstra landmark
/// metric, not on the oracle's backend, so every world over one graph and
/// one DiscretizationOptions has bit-identical tables whatever backend
/// `options` picks.
///
/// The layers hold references to `graph`, so a World is neither copyable
/// nor movable: construct it where it lives (`World w(GenerateCity(c), d);`,
/// or return a prvalue `World(...)`).
struct World {
  World(RoadGraph graph, const DiscretizationOptions& disc,
        const XarOptions& options = {});
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  RoadGraph graph;
  std::unique_ptr<SpatialNodeIndex> spatial;
  std::unique_ptr<RegionIndex> region;
  std::unique_ptr<GraphOracle> oracle;
};

}  // namespace xar

#endif  // XAR_XAR_WORLD_H_
