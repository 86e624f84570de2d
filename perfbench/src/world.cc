#include "world.h"

#include <sys/resource.h>

#include "common/clock.h"
#include "graph/generator.h"
#include "workload/trip_generator.h"

namespace perfbench {

std::unique_ptr<World> BuildWorld(std::size_t num_trips) {
  auto world = std::make_unique<World>();
  xar::CityOptions city;
  city.rows = 28;
  city.cols = 28;
  city.seed = 42;
  world->graph = xar::GenerateCity(city);
  world->spatial = std::make_unique<xar::SpatialNodeIndex>(world->graph);

  const xar::XarOptions defaults;
  world->oracle = std::make_unique<xar::GraphOracle>(
      world->graph, /*cache_capacity=*/std::size_t{1} << 16,
      defaults.routing_backend, defaults.BackendOptions(),
      defaults.oracle_cache);
  xar::Stopwatch ch_timer;
  world->oracle->Prewarm();
  world->ch_build_ms = ch_timer.ElapsedMillis();

  xar::DiscretizationOptions dopt;
  dopt.delta_m = kDeltaM;
  dopt.landmarks.num_candidates = 500;
  dopt.landmarks.seed = 43;
  xar::Stopwatch region_timer;
  world->region = std::make_unique<xar::RegionIndex>(xar::RegionIndex::Build(
      world->graph, *world->spatial, dopt,
      world->oracle->mutable_routing_backend()));
  world->region_build_ms = region_timer.ElapsedMillis();

  xar::WorkloadOptions wopt;
  wopt.num_trips = num_trips;
  wopt.seed = 44;
  world->trips = xar::GenerateTrips(world->graph.bounds(), wopt);
  return world;
}

xar::RideOffer OfferFrom(const xar::TaxiTrip& trip) {
  xar::RideOffer offer;
  offer.source = trip.pickup;
  offer.destination = trip.dropoff;
  offer.departure_time_s = trip.pickup_time_s;
  return offer;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
