// Quickstart: build a city, discretize it, offer a ride, search, book, and
// track — the minimal end-to-end use of the XAR public API.

#include <cstdio>

#include "xar/xar.h"

int main() {
  using namespace xar;

  // 1. A road network. Real deployments load OSM; here we synthesize a
  //    Manhattan-style city (~5 km x 5 km).
  CityOptions city_options;
  city_options.rows = 20;
  city_options.cols = 20;
  RoadGraph graph = GenerateCity(city_options);
  SpatialNodeIndex spatial(graph);
  std::printf("city: %zu nodes, %zu edges\n", graph.NumNodes(),
              graph.NumEdges());

  // 2. Pre-processing (paper Section IV-V): grids -> landmarks -> clusters.
  //    delta = 250 m gives the epsilon = 4*delta = 1 km guarantee.
  DiscretizationOptions disc;
  disc.delta_m = 250.0;
  disc.landmarks.num_candidates = 300;
  RegionIndex region = RegionIndex::Build(graph, spatial, disc);
  std::printf("discretization: %zu landmarks, %zu clusters (epsilon=%.0fm)\n",
              region.landmarks().size(), region.NumClusters(),
              region.epsilon());

  // 3. The runtime: a routing oracle (used only at create/book time) and
  //    the XAR system itself. XarOptions::routing_backend picks the
  //    shortest-path backend — contraction hierarchies by default; try
  //    RoutingBackendKind::kDijkstra for zero preprocessing or kAlt for a
  //    few landmark searches' worth.
  XarOptions options;
  GraphOracle oracle(graph, /*cache_capacity=*/1 << 16,
                     options.routing_backend, options.BackendOptions());
  XarSystem xar(graph, spatial, region, oracle, options);
  std::printf("routing backend: %s\n", oracle.backend_name());

  // 4. A driver offers a ride across town at 08:00.
  const BoundingBox& b = graph.bounds();
  RideOffer offer;
  offer.source = {b.min_lat + 0.1 * (b.max_lat - b.min_lat),
                  b.min_lng + 0.1 * (b.max_lng - b.min_lng)};
  offer.destination = {b.min_lat + 0.9 * (b.max_lat - b.min_lat),
                       b.min_lng + 0.9 * (b.max_lng - b.min_lng)};
  offer.departure_time_s = 8 * 3600;
  Result<RideId> ride = xar.CreateRide(offer);
  if (!ride.ok()) {
    std::printf("create failed: %s\n", ride.status().ToString().c_str());
    return 1;
  }
  std::printf("ride #%u created: %.1f km, %zu pass-through clusters\n",
              ride->value(), xar.GetRide(*ride)->route.length_m / 1000.0,
              xar.match_index().RegistrationOf(*ride)->pass_throughs.size());

  // 5. A commuter along the way searches for a shared ride. The search is
  //    pure index probing — no shortest paths are computed.
  RideRequest request;
  request.id = RequestId(1);
  request.source = {b.min_lat + 0.4 * (b.max_lat - b.min_lat),
                    b.min_lng + 0.4 * (b.max_lng - b.min_lng)};
  request.destination = {b.min_lat + 0.75 * (b.max_lat - b.min_lat),
                         b.min_lng + 0.75 * (b.max_lng - b.min_lng)};
  request.earliest_departure_s = 8 * 3600;
  request.latest_departure_s = 8 * 3600 + 1800;

  std::vector<RideMatch> matches = xar.Search(request);
  std::printf("search: %zu match(es)\n", matches.size());
  if (matches.empty()) return 0;
  const RideMatch& best = matches.front();
  std::printf("  best: ride #%u, walk %.0f m, pickup ETA %+.0f s, detour est %.0f m\n",
              best.ride.value(), best.TotalWalkM(),
              best.eta_source_s - request.earliest_departure_s,
              best.detour_estimate_m);

  // 6. Book it. Booking splices the route with at most 4 shortest paths.
  Result<BookingRecord> booking = xar.Book(best.ride, request, best);
  if (!booking.ok()) {
    std::printf("booking failed: %s\n", booking.status().ToString().c_str());
    return 1;
  }
  std::printf("booked: actual detour %.0f m (estimate %.0f m), %zu shortest paths\n",
              booking->actual_detour_m, booking->estimated_detour_m,
              booking->shortest_path_computations);

  // 7. Time passes; tracking retires the clusters the ride has crossed.
  xar.AdvanceTime(booking->pickup_eta_s + 60);
  std::printf("after pickup: %zu pass-through clusters still ahead\n",
              xar.match_index().RegistrationOf(*ride)->pass_throughs.size());
  return 0;
}
