// Bringing your own data: load a road network from CSV (the OSM-derived
// format real deployments would export), run the discretization and the
// ride-share runtime on it, and dump a GeoJSON map of everything for
// inspection in any GeoJSON viewer.

#include <cstdio>
#include <utility>

#include "graph/text_io.h"
#include "workload/trip_generator.h"
#include "workload/trip_io.h"
#include "xar/geojson_export.h"
#include "xar/xar.h"

int main() {
  using namespace xar;
  const char* nodes_csv = "/tmp/xar_custom_nodes.csv";
  const char* edges_csv = "/tmp/xar_custom_edges.csv";
  const char* trips_csv = "/tmp/xar_custom_trips.csv";
  const char* map_path = "/tmp/xar_custom_map.geojson";

  // In lieu of a real OSM export, generate a city and write it out in the
  // CSV exchange format — the files are what you'd hand-build from OSM.
  {
    CityOptions copt;
    copt.rows = 18;
    copt.cols = 18;
    RoadGraph city = GenerateCity(copt);
    if (!WriteGraphCsv(city, nodes_csv, edges_csv).ok()) return 1;
    WorkloadOptions wopt;
    wopt.num_trips = 2000;
    if (!WriteTripsCsv(GenerateTrips(city.bounds(), wopt), trips_csv).ok()) {
      return 1;
    }
  }

  // --- The actual custom-data workflow starts here -----------------------
  Result<RoadGraph> graph = LoadGraphFromCsv(nodes_csv, edges_csv);
  if (!graph.ok()) {
    std::printf("graph load failed: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  Result<std::vector<TaxiTrip>> trips = LoadTripsFromCsv(trips_csv);
  if (!trips.ok()) {
    std::printf("trips load failed: %s\n", trips.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded %zu nodes, %zu edges, %zu trips from CSV\n",
              graph->NumNodes(), graph->NumEdges(), trips->size());

  DiscretizationOptions dopt;
  dopt.landmarks.num_candidates = 350;
  World world(std::move(*graph), dopt);
  XarSystem xar(world.graph, *world.spatial, *world.region, *world.oracle);

  // Serve the first hundred trips: offers and requests alternate.
  std::size_t matches_found = 0;
  RideId last_ride = RideId::Invalid();
  for (std::size_t i = 0; i < 100 && i < trips->size(); ++i) {
    const TaxiTrip& t = (*trips)[i];
    if (i % 2 == 0) {
      RideOffer offer;
      offer.source = t.pickup;
      offer.destination = t.dropoff;
      offer.departure_time_s = t.pickup_time_s;
      Result<RideId> ride = xar.CreateRide(offer);
      if (ride.ok()) last_ride = *ride;
    } else {
      RideRequest req;
      req.id = t.id;
      req.source = t.pickup;
      req.destination = t.dropoff;
      req.earliest_departure_s = t.pickup_time_s;
      req.latest_departure_s = t.pickup_time_s + 900;
      matches_found += xar.Search(req).empty() ? 0 : 1;
    }
  }
  std::printf("runtime: %zu rides created, %zu of 50 requests matched\n",
              xar.NumRides(), matches_found);

  // Export everything for visual inspection.
  GeoJsonWriter geo;
  geo.AddRoadNetwork(world.graph);
  geo.AddLandmarks(*world.region);
  if (last_ride.valid()) geo.AddRide(world.graph, *xar.GetRide(last_ride));
  if (!geo.WriteTo(map_path).ok()) return 1;
  std::printf("map with %zu features written to %s\n", geo.NumFeatures(),
              map_path);
  return 0;
}
