#include "graph/dijkstra.h"

#include <algorithm>
#include <cassert>

#include "graph/path_profile.h"

namespace xar {

DijkstraEngine::DijkstraEngine(const RoadGraph& graph)
    : graph_(graph),
      heap_(graph.NumNodes()),
      dist_(graph.NumNodes(), kInf),
      visit_mark_(graph.NumNodes(), 0),
      parent_(graph.NumNodes()) {}

void DijkstraEngine::Reset() {
  ++generation_;
  heap_.Clear();
  last_settled_count_ = 0;
}

template <typename DoneFn>
void DijkstraEngine::Run(NodeId src, Metric metric, bool record_parents,
                         DoneFn done) {
  Reset();
  SetDist(src.value(), 0.0);
  if (record_parents) parent_[src.value()] = NodeId::Invalid();
  heap_.Push(src.value(), 0.0);
  while (!heap_.empty()) {
    std::size_t u = heap_.PopMin();
    ++last_settled_count_;
    if (done(NodeId(static_cast<NodeId::underlying_type>(u)))) return;
    double du = Dist(u);
    for (const RoadEdge& e :
         graph_.OutEdges(NodeId(static_cast<NodeId::underlying_type>(u)))) {
      double w = RoadGraph::EdgeWeight(e, metric);
      if (w == kInf) continue;
      double nd = du + w;
      std::size_t v = e.to.value();
      if (nd < Dist(v)) {
        SetDist(v, nd);
        if (record_parents)
          parent_[v] = NodeId(static_cast<NodeId::underlying_type>(u));
        heap_.PushOrDecrease(v, nd);
      }
    }
  }
}

double DijkstraEngine::Distance(NodeId src, NodeId dst, Metric metric) {
  Run(src, metric, /*record_parents=*/false,
      [dst](NodeId settled) { return settled == dst; });
  return Dist(dst.value());
}

Path DijkstraEngine::ShortestPath(NodeId src, NodeId dst, Metric metric) {
  Run(src, metric, /*record_parents=*/true,
      [dst](NodeId settled) { return settled == dst; });
  if (Dist(dst.value()) == kInf) return Path{};

  // Reconstruct node chain; ProfileNodePath fills in both totals.
  std::vector<NodeId> nodes;
  for (NodeId v = dst; v.valid(); v = parent_[v.value()]) {
    nodes.push_back(v);
    if (v == src) break;
  }
  std::reverse(nodes.begin(), nodes.end());
  return ProfileNodePath(graph_, std::move(nodes), metric);
}

std::size_t DijkstraEngine::MemoryFootprint() const {
  return sizeof(*this) + dist_.capacity() * sizeof(double) +
         visit_mark_.capacity() * sizeof(std::uint32_t) +
         parent_.capacity() * sizeof(NodeId) + heap_.MemoryFootprint();
}

std::vector<double> DijkstraEngine::DistancesToMany(
    NodeId src, const std::vector<NodeId>& targets, Metric metric) {
  // Mark targets for O(1) membership tests.
  std::vector<std::uint8_t> is_target(graph_.NumNodes(), 0);
  std::size_t remaining = 0;
  for (NodeId t : targets) {
    if (!is_target[t.value()]) {
      is_target[t.value()] = 1;
      ++remaining;
    }
  }
  Run(src, metric, /*record_parents=*/false, [&](NodeId settled) {
    if (is_target[settled.value()]) {
      is_target[settled.value()] = 0;
      if (--remaining == 0) return true;
    }
    return false;
  });
  std::vector<double> out;
  out.reserve(targets.size());
  for (NodeId t : targets) out.push_back(Dist(t.value()));
  return out;
}

std::vector<std::pair<NodeId, double>> DijkstraEngine::NodesWithin(
    NodeId src, double bound, Metric metric) {
  std::vector<std::pair<NodeId, double>> settled;
  Run(src, metric, /*record_parents=*/false, [&](NodeId u) {
    double d = Dist(u.value());
    if (d > bound) return true;  // Monotone frontier: all later pops exceed.
    settled.emplace_back(u, d);
    return false;
  });
  return settled;
}

}  // namespace xar
