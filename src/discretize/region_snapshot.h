#ifndef XAR_DISCRETIZE_REGION_SNAPSHOT_H_
#define XAR_DISCRETIZE_REGION_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "common/stats_registry.h"
#include "common/table.h"
#include "discretize/region_index.h"
#include "graph/road_graph.h"
#include "graph/spatial_index.h"

namespace xar {

class DistanceOracle;

/// A versioned, shareable view of the discretization. Searches pin the
/// snapshot they start on (a shared_ptr copy), so a refresh can swap the
/// current snapshot without invalidating in-flight readers; the old
/// RegionIndex stays alive until the last pinned search drops it.
struct RegionSnapshot {
  std::shared_ptr<const RegionIndex> index;
  /// Monotone refresh generation. 0 = the borrowed seed index the system
  /// was constructed with; each RefreshDiscretization increments it.
  std::uint64_t epoch = 0;
};

/// Wraps a caller-owned RegionIndex in a non-owning snapshot (epoch 0).
/// The caller must keep `index` alive for the snapshot's lifetime — this is
/// the legacy constructor path where the region outlives the system.
std::shared_ptr<const RegionSnapshot> BorrowRegionSnapshot(
    const RegionIndex& index);

/// Runs the full pre-processing pipeline and wraps the result in an owning
/// snapshot tagged with `epoch`. Pure function of its inputs; safe to call
/// on a background thread with no system locks held. `backend`, when
/// non-null, answers the landmark-metric batch (bucket CH when prepared);
/// it must route over `graph`.
std::shared_ptr<const RegionSnapshot> BuildRegionSnapshot(
    const RoadGraph& graph, const SpatialNodeIndex& spatial,
    const DiscretizationOptions& options, std::uint64_t epoch,
    RoutingBackend* backend = nullptr);

/// What changed underneath the discretization. All fields optional: an empty
/// delta requests a rebuild of the current region over the current graph
/// (a "no-op" refresh — same epoch bump, byte-identical tables).
///
/// A replacement graph must preserve node ids and topology (same nodes,
/// same arcs, new weights) — ride routes are re-profiled against it, not
/// re-planned, so a structural change would leave routes traversing arcs
/// that no longer exist.
struct GraphDelta {
  const RoadGraph* graph = nullptr;       ///< nullptr = keep current graph
  DistanceOracle* oracle = nullptr;       ///< nullptr = keep current oracle
  std::optional<DiscretizationOptions> options;  ///< nullopt = keep current
};

/// Refresh observability counters (ROADMAP metrics item).
struct RefreshStats {
  std::uint64_t epoch = 0;            ///< current snapshot generation
  std::size_t refreshes = 0;          ///< completed RefreshDiscretization calls
  double last_rebuild_ms = 0.0;       ///< wall time of the last rebuild+swap
  /// Wall time of readying the last delta's oracle (PrewarmFrom: backend
  /// preprocessing inherited from the outgoing oracle where it still holds,
  /// the rest built, e.g. the per-metric contraction hierarchies) — runs
  /// off-thread with no locks held, before the snapshot is adopted.
  double last_prewarm_ms = 0.0;
  /// Wall time of the last rebuild's landmark-metric batch (inside
  /// last_rebuild_ms): the part the bucket-CH many-to-many path speeds up.
  double last_matrix_ms = 0.0;
  std::size_t last_rides_rehomed = 0; ///< live rides re-homed by the last swap
  std::size_t total_rides_rehomed = 0;
};

/// "refresh" stats section for the unified StatsRegistry surface.
StatsSection RefreshStatsSection(const RefreshStats& stats);

}  // namespace xar

#endif  // XAR_DISCRETIZE_REGION_SNAPSHOT_H_
