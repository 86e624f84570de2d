// Pre-processing snapshot workflow: build the region discretization once,
// save it (and the road graph) to disk, and restart the runtime from the
// snapshot without re-running landmark extraction / clustering — the
// deployment flow the paper's "pre-processing needs to be done once per
// region" implies.

#include <cstdio>

#include "common/clock.h"
#include "graph/serialization.h"
#include "xar/xar.h"

int main() {
  using namespace xar;
  const char* graph_path = "/tmp/xar_city.graph";
  const char* region_path = "/tmp/xar_city.region";

  // --- First run: build everything and snapshot it -----------------------
  {
    Stopwatch build_timer;
    CityOptions copt;
    copt.rows = 24;
    copt.cols = 24;
    DiscretizationOptions dopt;
    dopt.landmarks.num_candidates = 400;
    World world(GenerateCity(copt), dopt);
    std::printf("pre-processing: %zu landmarks -> %zu clusters in %.2f s\n",
                world.region->landmarks().size(), world.region->NumClusters(),
                build_timer.ElapsedSeconds());

    Status gs = SaveRoadGraph(world.graph, graph_path);
    Status rs = world.region->Save(region_path);
    if (!gs.ok() || !rs.ok()) {
      std::printf("snapshot failed: %s / %s\n", gs.ToString().c_str(),
                  rs.ToString().c_str());
      return 1;
    }
    std::printf("snapshots written: %s, %s\n", graph_path, region_path);
  }

  // --- Second run: restart from the snapshots ----------------------------
  Stopwatch restore_timer;
  Result<RoadGraph> graph = LoadRoadGraph(graph_path);
  if (!graph.ok()) {
    std::printf("graph load failed: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  Result<RegionIndex> region = RegionIndex::Load(region_path);
  if (!region.ok()) {
    std::printf("region load failed: %s\n",
                region.status().ToString().c_str());
    return 1;
  }
  SpatialNodeIndex spatial(*graph);
  GraphOracle oracle(*graph);
  XarSystem xar(*graph, spatial, *region, oracle);
  std::printf("restored runtime in %.3f s (%zu clusters, epsilon %.0f m)\n",
              restore_timer.ElapsedSeconds(), region->NumClusters(),
              region->epsilon());

  // Prove the restored system serves traffic.
  const BoundingBox& b = graph->bounds();
  RideOffer offer;
  offer.source = {b.min_lat + 0.15 * (b.max_lat - b.min_lat),
                  b.min_lng + 0.15 * (b.max_lng - b.min_lng)};
  offer.destination = {b.min_lat + 0.85 * (b.max_lat - b.min_lat),
                       b.min_lng + 0.85 * (b.max_lng - b.min_lng)};
  offer.departure_time_s = 9 * 3600;
  Result<RideId> ride = xar.CreateRide(offer);
  if (!ride.ok()) {
    std::printf("create failed on restored system\n");
    return 1;
  }
  RideRequest req;
  req.id = RequestId(1);
  req.source = {b.min_lat + 0.4 * (b.max_lat - b.min_lat),
                b.min_lng + 0.4 * (b.max_lng - b.min_lng)};
  req.destination = {b.min_lat + 0.7 * (b.max_lat - b.min_lat),
                     b.min_lng + 0.7 * (b.max_lng - b.min_lng)};
  req.earliest_departure_s = 9 * 3600;
  req.latest_departure_s = 9 * 3600 + 1800;
  std::printf("restored system search: %zu match(es)\n",
              xar.Search(req).size());
  return 0;
}
