// City-scale ride-sharing simulation (the paper's Section X-A protocol):
// a day of NYC-like taxi trips is replayed as ride-share requests; matched
// requests book the least-walking ride, unmatched commuters drive and offer
// their car. Prints match rates and rider-experience metrics.

#include <cstdio>
#include <cstdlib>

#include "common/stats_registry.h"
#include "sim/event_sim.h"
#include "workload/trip_generator.h"
#include "xar/xar.h"

int main() {
  using namespace xar;

  CityOptions city_options;
  city_options.rows = 28;
  city_options.cols = 28;
  RoadGraph graph = GenerateCity(city_options);
  SpatialNodeIndex spatial(graph);

  DiscretizationOptions disc;
  disc.landmarks.num_candidates = 500;
  RegionIndex region = RegionIndex::Build(graph, spatial, disc);

  WorkloadOptions workload;
  workload.num_trips = 15000;
  std::vector<TaxiTrip> trips = GenerateTrips(graph.bounds(), workload);

  XarOptions options;
  // The XAR_* overrides swap the routing backend under the whole simulated
  // day; a typo is a hard error (xar_shell rules).
  if (Status status = ApplyEnvOverrides(&options); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  GraphOracle oracle(graph, /*cache_capacity=*/1 << 16,
                     options.routing_backend, options.BackendOptions());
  XarSystem xar(graph, spatial, region, oracle, options);

  std::printf("simulating %zu trips over a day "
              "(%zu clusters, eps=%.0fm, %s routing)...\n",
              trips.size(), region.NumClusters(), region.epsilon(),
              oracle.backend_name());
  EventSim sim(graph, xar.options(), ScenarioConfig{});
  EventSimResult result = RunEventSim(xar, sim, trips);

  std::printf("\nrequests:      %zu\n", result.requests);
  std::printf("matched:       %zu (%.1f%%)\n", result.matched,
              100.0 * static_cast<double>(result.matched) /
                  static_cast<double>(result.requests));
  std::printf("rides created: %zu  => cars saved: %zu\n",
              result.rides_created, result.requests - result.rides_created);

  std::printf("\nrider experience (riders and drivers):\n");
  std::printf("  mean walk:   %.1f min\n",
              result.metrics.walk_s.count()
                  ? result.metrics.walk_s.mean() / 60.0
                  : 0.0);
  std::printf("  mean wait:   %.1f min\n",
              result.metrics.wait_s.count()
                  ? result.metrics.wait_s.mean() / 60.0
                  : 0.0);
  std::printf("  mean travel: %.1f min\n",
              result.metrics.travel_s.count()
                  ? result.metrics.travel_s.mean() / 60.0
                  : 0.0);

  std::printf("\nin-memory index: %.1f MB (region) + %.1f MB (rides)\n",
              static_cast<double>(region.MemoryFootprint()) / 1048576.0,
              static_cast<double>(xar.MemoryFootprint()) / 1048576.0);

  StatsRegistry registry;
  registry.Register("oracle", [&] { return OracleStatsSection(oracle); });
  registry.Register("preprocess",
                    [&] { return PreprocessStatsSection(oracle.backend()); });
  std::printf("\n%s\n", registry.RenderTables().c_str());
  return 0;
}
