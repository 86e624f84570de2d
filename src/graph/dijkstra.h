#ifndef XAR_GRAPH_DIJKSTRA_H_
#define XAR_GRAPH_DIJKSTRA_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/heap.h"
#include "common/ids.h"
#include "graph/path.h"
#include "graph/road_graph.h"

namespace xar {

/// Reusable single-source shortest-path engine over a RoadGraph.
///
/// Allocates its working arrays once (sized to the graph) and reuses them
/// across queries via a generation counter, so repeated queries do not pay
/// O(V) reset costs. Not thread-safe; create one engine per thread.
class DijkstraEngine {
 public:
  explicit DijkstraEngine(const RoadGraph& graph);

  /// One-to-one distance under `metric`; +inf if unreachable.
  double Distance(NodeId src, NodeId dst, Metric metric);

  /// One-to-one path with both length and (driving) time filled in.
  Path ShortestPath(NodeId src, NodeId dst, Metric metric);

  /// One-to-many: distance from `src` to each of `targets` (same order),
  /// stopping as soon as all targets are settled. Unreachable => +inf.
  std::vector<double> DistancesToMany(NodeId src,
                                      const std::vector<NodeId>& targets,
                                      Metric metric);

  /// Settles every node with distance <= `bound` from `src`. Returns the
  /// settled (node, distance) pairs, in nondecreasing distance order.
  std::vector<std::pair<NodeId, double>> NodesWithin(NodeId src, double bound,
                                                     Metric metric);

  /// Number of heap pops in the most recent query (for benchmarking).
  std::size_t last_settled_count() const { return last_settled_count_; }

  /// Bytes held by this engine's per-query workspace.
  std::size_t MemoryFootprint() const;

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  void Reset();
  double Dist(std::size_t v) const {
    return visit_mark_[v] == generation_ ? dist_[v] : kInf;
  }
  void SetDist(std::size_t v, double d) {
    visit_mark_[v] = generation_;
    dist_[v] = d;
  }

  /// Runs Dijkstra from src until `done(settled_node)` returns true or the
  /// frontier empties. Records parents when `record_parents`.
  template <typename DoneFn>
  void Run(NodeId src, Metric metric, bool record_parents, DoneFn done);

  const RoadGraph& graph_;
  IndexedMinHeap heap_;
  std::vector<double> dist_;
  std::vector<std::uint32_t> visit_mark_;
  std::vector<NodeId> parent_;
  std::uint32_t generation_ = 0;
  std::size_t last_settled_count_ = 0;
};

}  // namespace xar

#endif  // XAR_GRAPH_DIJKSTRA_H_
