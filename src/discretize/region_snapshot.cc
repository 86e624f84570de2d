#include "discretize/region_snapshot.h"

#include <memory>
#include <string>
#include <utility>

#include "common/clock.h"
#include "graph/oracle.h"

namespace xar {

std::shared_ptr<const RegionSnapshot> BorrowRegionSnapshot(
    const RegionIndex& index) {
  auto snapshot = std::make_shared<RegionSnapshot>();
  // Aliasing a caller-owned index: the deleter is a no-op because the caller
  // keeps ownership (the region-borrowing constructors' contract).
  snapshot->index =
      std::shared_ptr<const RegionIndex>(&index, [](const RegionIndex*) {});
  snapshot->epoch = 0;
  return snapshot;
}

std::shared_ptr<const RegionSnapshot> BuildRegionSnapshot(
    const RoadGraph& graph, const SpatialNodeIndex& spatial,
    const DiscretizationOptions& options, std::uint64_t epoch,
    RoutingBackend* backend) {
  auto snapshot = std::make_shared<RegionSnapshot>();
  snapshot->index = std::make_shared<const RegionIndex>(
      RegionIndex::Build(graph, spatial, options, backend));
  snapshot->epoch = epoch;
  return snapshot;
}

RefreshBuild BuildRefreshSnapshot(const RegionSnapshot& current,
                                  const GraphDelta& delta,
                                  const RoadGraph& graph,
                                  const SpatialNodeIndex& spatial,
                                  const DistanceOracle& oracle) {
  RefreshBuild build;
  // Ready the incoming oracle's backend preprocessing (per-metric
  // hierarchies) first, inheriting what the current oracle's still holds:
  // the rebuild below batches its landmark metric on that backend, and the
  // swap installs a ready oracle, so no post-refresh query pays the build.
  Stopwatch prewarm_timer;
  if (delta.oracle != nullptr) PrewarmFrom(*delta.oracle, oracle);
  build.prewarm_ms = prewarm_timer.ElapsedMillis();
  // The incoming oracle routes over the incoming graph, so its backend can
  // batch the landmark rows; a delta without an oracle keeps the internal
  // Dijkstra build (the current oracle may still route the old weights).
  RoutingBackend* matrix_backend =
      delta.oracle != nullptr ? delta.oracle->mutable_routing_backend()
                              : nullptr;
  build.snapshot = BuildRegionSnapshot(
      delta.graph != nullptr ? *delta.graph : graph, spatial,
      delta.options.has_value() ? *delta.options : current.index->options(),
      current.epoch + 1, matrix_backend);
  build.matrix_ms = build.snapshot->index->landmark_metric().build_millis();
  return build;
}

StatsSection RefreshStatsSection(const RefreshStats& stats) {
  StatsSection section;
  section.name = "refresh";
  section.AddRow(
      {StatsMetric::Counter("epoch", stats.epoch),
       StatsMetric::Counter("refreshes", stats.refreshes),
       StatsMetric::Gauge("last_rebuild_ms", stats.last_rebuild_ms, 1),
       StatsMetric::Gauge("last_prewarm_ms", stats.last_prewarm_ms, 1),
       StatsMetric::Gauge("last_matrix_ms", stats.last_matrix_ms, 1),
       StatsMetric::Counter("last_rehomed", stats.last_rides_rehomed),
       StatsMetric::Counter("total_rehomed", stats.total_rides_rehomed)});
  return section;
}

}  // namespace xar
