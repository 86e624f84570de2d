#ifndef XAR_GRAPH_ROAD_GRAPH_H_
#define XAR_GRAPH_ROAD_GRAPH_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/ids.h"
#include "geo/latlng.h"

namespace xar {

/// Which edge weight a shortest-path query minimizes.
enum class Metric {
  kDriveDistance,  ///< meters along drivable edges
  kDriveTime,      ///< seconds along drivable edges
  kWalkDistance,   ///< meters along walkable edges (one-ways ignored)
};

/// A directed road-network edge. Drivability and walkability are independent
/// flags: a one-way street contributes one drivable arc but two walkable
/// arcs; a pedestrian path contributes walkable arcs only.
struct RoadEdge {
  NodeId to;
  double length_m = 0.0;  ///< geometric length
  double time_s = 0.0;    ///< driving traversal time (meaningless if !drivable)
  bool drivable = false;
  bool walkable = false;
};

/// Immutable directed road network in CSR (compressed sparse row) layout,
/// with per-node coordinates. Built once by GraphBuilder; all runtime
/// components (routing, discretization, XAR, T-Share) share one instance.
class RoadGraph {
 public:
  RoadGraph() = default;

  std::size_t NumNodes() const { return positions_.size(); }
  std::size_t NumEdges() const { return edges_.size(); }

  const LatLng& PositionOf(NodeId n) const { return positions_[n.value()]; }

  /// Outgoing edges of `n`.
  std::span<const RoadEdge> OutEdges(NodeId n) const {
    return {edges_.data() + offsets_[n.value()],
            offsets_[n.value() + 1] - offsets_[n.value()]};
  }

  /// Geographic bounding box of all nodes.
  const BoundingBox& bounds() const { return bounds_; }

  /// The network's maximum drivable speed: straight-line distance over it
  /// is a lower bound on driving time.
  double MaxSpeedMps() const { return max_speed_mps_; }

  /// The weight of `e` under `metric`, or +inf if the edge does not
  /// participate in that metric.
  static double EdgeWeight(const RoadEdge& e, Metric metric);

  /// Rough resident-memory estimate of this structure, in bytes.
  std::size_t MemoryFootprint() const;

 private:
  friend class GraphBuilder;

  std::vector<LatLng> positions_;
  std::vector<std::size_t> offsets_;  // NumNodes() + 1
  std::vector<RoadEdge> edges_;
  BoundingBox bounds_;
  double max_speed_mps_ = 1.0;
};

/// Incremental builder producing a CSR RoadGraph.
class GraphBuilder {
 public:
  /// Adds a node at `pos`; returns its id (dense, starting at 0).
  NodeId AddNode(const LatLng& pos);

  /// Adds a directed arc. If `length_m` <= 0 the geometric distance between
  /// the endpoints is used. `speed_mps` sets driving time (ignored when not
  /// drivable).
  void AddArc(NodeId from, NodeId to, double length_m, double speed_mps,
              bool drivable, bool walkable);

  /// Adds a two-way street: drivable+walkable arcs in both directions.
  void AddTwoWayStreet(NodeId a, NodeId b, double speed_mps,
                       double length_m = -1.0);

  /// Adds a one-way street: drivable arc `from`->`to`, but walkable both ways.
  void AddOneWayStreet(NodeId from, NodeId to, double speed_mps,
                       double length_m = -1.0);

  std::size_t NumNodes() const { return positions_.size(); }

  /// Finalizes into CSR form. The builder may not be reused afterwards.
  RoadGraph Build();

 private:
  struct PendingArc {
    NodeId from;
    RoadEdge edge;
  };

  std::vector<LatLng> positions_;
  std::vector<PendingArc> arcs_;
  double max_speed_mps_ = 1.0;
};

}  // namespace xar

#endif  // XAR_GRAPH_ROAD_GRAPH_H_
