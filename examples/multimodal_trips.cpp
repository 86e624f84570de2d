// Multi-modal trip planning with ride-share integration (paper Section IX):
// plans a public-transport journey, then shows XAR improving it in Aider
// mode (fixing infeasible segments) and Enhancer mode (probing all segment
// combinations for hop/time improvements).

#include <cstdio>

#include "mmtp/integration.h"
#include "mmtp/trip_planner.h"
#include "transit/network_generator.h"
#include "workload/trip_generator.h"
#include "xar/xar.h"

namespace {

const char* ModeName(xar::LegMode mode) {
  switch (mode) {
    case xar::LegMode::kWalk:
      return "walk";
    case xar::LegMode::kTransit:
      return "transit";
    case xar::LegMode::kRideShare:
      return "rideshare";
    case xar::LegMode::kTaxi:
      return "taxi";
  }
  return "?";
}

void PrintJourney(const char* title, const xar::Journey& j) {
  std::printf("%s (travel %.1f min, walk %.0f m, wait %.1f min, %d hops)\n",
              title, j.TravelTimeS() / 60.0, j.WalkMeters(),
              j.WaitTimeS() / 60.0, j.Hops());
  for (const xar::JourneyLeg& leg : j.legs) {
    char t0[16], t1[16];
    xar::FormatTimeOfDay(leg.start_s, t0);
    xar::FormatTimeOfDay(leg.arrival_s, t1);
    std::printf("  %s-%s  %-9s %s\n", t0, t1, ModeName(leg.mode),
                leg.description.c_str());
  }
}

}  // namespace

int main() {
  using namespace xar;

  CityOptions city_options;
  city_options.rows = 24;
  city_options.cols = 24;
  DiscretizationOptions disc;
  disc.landmarks.num_candidates = 400;
  World world(GenerateCity(city_options), disc);
  XarSystem xar(world.graph, *world.spatial, *world.region, *world.oracle);

  // A synthetic transit network (subway trunks + bus corridors) and planner.
  Timetable timetable = GenerateTransitNetwork(world.graph.bounds(), {});
  TripPlanner planner(timetable);
  std::printf("transit: %zu stops, %zu routes, %zu connections\n\n",
              timetable.stops().size(), timetable.routes().size(),
              timetable.connections().size());

  // Seed ride-share supply: commuters driving across town around 08:00.
  WorkloadOptions workload;
  workload.num_trips = 3000;
  for (const TaxiTrip& t : GenerateTrips(world.graph.bounds(), workload)) {
    RideOffer offer;
    offer.source = t.pickup;
    offer.destination = t.dropoff;
    offer.departure_time_s = t.pickup_time_s;
    (void)xar.CreateRide(offer);
  }
  std::printf("ride-share supply: %zu active rides\n\n",
              xar.NumActiveRides());

  // A commuter's trip at 08:00 from a corner of town to the far side.
  const BoundingBox& b = world.graph.bounds();
  LatLng origin{b.min_lat + 0.12 * (b.max_lat - b.min_lat),
                b.min_lng + 0.18 * (b.max_lng - b.min_lng)};
  LatLng destination{b.min_lat + 0.85 * (b.max_lat - b.min_lat),
                     b.min_lng + 0.8 * (b.max_lng - b.min_lng)};

  Journey plan = planner.PlanTrip(origin, destination, 8 * 3600);
  if (!plan.feasible) {
    std::printf("no transit plan found\n");
    return 1;
  }
  PrintJourney("PT-only plan", plan);

  // A picky commuter: anything over 400 m of walking or 2 min of waiting in
  // one segment is uncomfortable — XAR should fix those legs.
  IntegrationOptions comfort;
  comfort.infeasible_walk_m = 400.0;
  comfort.infeasible_wait_s = 120.0;
  XarMmtpIntegration integration(planner, xar, comfort);
  IntegrationResult aided = integration.Aid(plan, RequestId(900001));
  std::printf("\nAider mode: probed %zu infeasible segment(s), replaced %zu\n",
              aided.segments_probed, aided.segments_replaced);
  if (aided.improved) PrintJourney("aided plan", aided.journey);

  IntegrationResult enhanced = integration.Enhance(plan, RequestId(900002));
  std::printf("\nEnhancer mode: probed %zu segment combination(s), %s\n",
              enhanced.segments_probed,
              enhanced.improved ? "improved the plan" : "no improvement");
  if (enhanced.improved) PrintJourney("enhanced plan", enhanced.journey);
  return 0;
}
