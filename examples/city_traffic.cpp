// Live-traffic city demo: the discrete-event simulator from src/sim/ drives
// a morning rush hour where vehicles traverse graph edges in sim time,
// per-street load and the rush-hour profile slow the roads down, riders
// cancel and no-show, and every refresh period the congested world is fed
// through RefreshDiscretization so the system re-profiles onto the live map.
// Contrast with city_simulation.cpp, which replays the same workload
// through the stateless request protocol with a static graph.

#include <cstdio>

#include "sim/event_sim.h"
#include "workload/trip_generator.h"
#include "xar/xar.h"

int main() {
  using namespace xar;

  CityOptions city_options;
  city_options.rows = 24;
  city_options.cols = 24;
  RoadGraph graph = GenerateCity(city_options);
  SpatialNodeIndex spatial(graph);

  DiscretizationOptions disc;
  disc.landmarks.num_candidates = 400;
  RegionIndex region = RegionIndex::Build(graph, spatial, disc);

  WorkloadOptions workload;
  workload.num_trips = 10000;
  std::vector<TaxiTrip> all_trips = GenerateTrips(graph.bounds(), workload);
  // Morning rush only — that's where the congestion model bites.
  std::vector<TaxiTrip> trips =
      FilterByTimeWindow(all_trips, 7 * 3600.0, 10 * 3600.0);

  XarOptions options;
  if (Status status = ApplyEnvOverrides(&options); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  GraphOracle oracle(graph, /*cache_capacity=*/1 << 16,
                     options.routing_backend, options.BackendOptions());
  XarSystem xar(graph, spatial, region, oracle, options);

  ScenarioConfig config;
  config.protocol.window_s = 900.0;
  config.traffic.tick_period_s = 300.0;   // decay street loads every 5 min
  config.traffic.rush_amplitude = 0.35;   // ~35% slower at the 8:30 peak
  config.events.cancel_probability = 0.08;
  config.events.no_show_probability = 0.05;
  config.refresh_period_s = 900.0;        // re-discretize every 15 min
  config.seed = 7;

  std::printf("city_traffic: %zu rush-hour trips on a %zux%zu grid, "
              "refresh every %.0f s, %s routing\n\n",
              trips.size(), city_options.rows, city_options.cols,
              config.refresh_period_s, oracle.backend_name());

  EventSim sim(graph, xar.options(), config);
  EventSimResult result = RunEventSim(xar, sim, trips);

  std::printf("requests:          %zu\n", result.requests);
  std::printf("matched:           %zu (%.1f%%)\n", result.matched,
              result.requests
                  ? 100.0 * static_cast<double>(result.matched) /
                        static_cast<double>(result.requests)
                  : 0.0);
  std::printf("rides created:     %zu\n", result.rides_created);
  std::printf("edge traversals:   %zu\n", result.edge_traversals);
  std::printf("traffic ticks:     %zu\n", result.traffic_ticks);
  std::printf("refreshes:         %zu (final epoch %llu)\n", result.refreshes,
              static_cast<unsigned long long>(result.final_epoch));
  std::printf("cancellations:     %zu ok / %zu attempted\n",
              result.cancels_succeeded, result.cancels_attempted);
  std::printf("no-shows:          %zu ok / %zu attempted\n",
              result.no_shows_succeeded, result.no_shows_attempted);
  std::printf("\nworld-vs-promise (over %zu completed rides):\n",
              result.eta_samples);
  std::printf("  mean ETA error:  %.1f s\n", result.mean_eta_error_s);
  std::printf("  mean detour:     %.1f m\n", result.mean_actual_detour_m);
  std::printf("  mean walk:       %.1f m\n", result.mean_walk_m);
  std::printf("\nscenario fingerprint: %016llx (deterministic in seed=%llu)\n",
              static_cast<unsigned long long>(result.fingerprint),
              static_cast<unsigned long long>(config.seed));
  return 0;
}
