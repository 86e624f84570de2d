#ifndef XAR_GRAPH_FLOYD_WARSHALL_H_
#define XAR_GRAPH_FLOYD_WARSHALL_H_

#include <vector>

#include "graph/road_graph.h"

namespace xar {

/// All-pairs shortest distances by Floyd-Warshall. O(V^3): reference
/// implementation used as a test oracle against the routing engines on
/// small graphs. Result is row-major: d[u * n + v].
std::vector<double> FloydWarshallDistances(const RoadGraph& graph,
                                           Metric metric);

}  // namespace xar

#endif  // XAR_GRAPH_FLOYD_WARSHALL_H_
