#include "sim/modes.h"

#include <algorithm>
#include <limits>

#include "sim/event_sim.h"

namespace xar {
namespace {

bool JourneyHasInfeasibleSegment(const Journey& plan,
                                 const IntegrationOptions& opt) {
  for (const JourneyLeg& leg : plan.legs) {
    if (leg.walk_m > opt.infeasible_walk_m) return true;
    if (leg.depart_s - leg.start_s > opt.infeasible_wait_s) return true;
  }
  return false;
}

}  // namespace

ModeMetrics EvaluateTaxiMode(const SpatialNodeIndex& spatial,
                             DistanceOracle& oracle,
                             const std::vector<TaxiTrip>& trips) {
  ModeMetrics metrics;
  metrics.mode_name = "Taxi";
  for (const TaxiTrip& trip : trips) {
    NodeId a = spatial.NearestNode(trip.pickup);
    NodeId b = spatial.NearestNode(trip.dropoff);
    double t = oracle.DriveTime(a, b);
    if (t == std::numeric_limits<double>::infinity()) {
      ++metrics.requests_unserved;
      continue;
    }
    metrics.AddTrip(t, 0.0, 0.0);
    ++metrics.cars_used;
  }
  return metrics;
}

ModeMetrics EvaluatePublicTransportMode(const TripPlanner& planner,
                                        const std::vector<TaxiTrip>& trips) {
  ModeMetrics metrics;
  metrics.mode_name = "PublicTransport";
  for (const TaxiTrip& trip : trips) {
    Journey j = planner.PlanTrip(trip.pickup, trip.dropoff,
                                 trip.pickup_time_s);
    if (!j.feasible) {
      ++metrics.requests_unserved;
      continue;
    }
    metrics.AddTrip(j.TravelTimeS(), j.WalkMeters() / kWalkSpeedMps,
                    j.WaitTimeS());
  }
  return metrics;
}

ModeMetrics EvaluateRideShareMode(const RoadGraph& world, XarSystem& xar,
                                  const std::vector<TaxiTrip>& trips,
                                  const SimOptions& options) {
  ScenarioConfig config;
  config.protocol = options;
  EventSim sim(world, xar.options(), config);
  ModeMetrics metrics = RunEventSim(xar, sim, trips).metrics;
  metrics.mode_name = "RideShare";
  return metrics;
}

ModeMetrics EvaluateRideSharePlusTransitMode(
    const TripPlanner& planner, XarSystem& xar,
    const std::vector<TaxiTrip>& trips,
    const IntegrationOptions& integration_options,
    const SimOptions& sim_options) {
  ModeMetrics metrics;
  metrics.mode_name = "RideShare+PT";
  XarMmtpIntegration integration(planner, xar, integration_options);

  for (const TaxiTrip& trip : trips) {
    if (sim_options.advance_time) xar.AdvanceTime(trip.pickup_time_s);
    Journey plan =
        planner.PlanTrip(trip.pickup, trip.dropoff, trip.pickup_time_s);

    if (plan.feasible && !JourneyHasInfeasibleSegment(plan,
                                                      integration_options)) {
      // PT alone serves the trip comfortably.
      metrics.AddTrip(plan.TravelTimeS(), plan.WalkMeters() / kWalkSpeedMps,
                      plan.WaitTimeS());
      continue;
    }

    if (plan.feasible) {
      IntegrationResult aided = integration.Aid(plan, trip.id);
      if (aided.improved &&
          !JourneyHasInfeasibleSegment(aided.journey, integration_options)) {
        metrics.AddTrip(aided.journey.TravelTimeS(),
                        aided.journey.WalkMeters() / kWalkSpeedMps,
                        aided.journey.WaitTimeS());
        continue;
      }
    }

    // Aider could not fix the plan: the commuter drives, and the car becomes
    // ride-share supply for later infeasible segments.
    RideOffer offer;
    offer.source = trip.pickup;
    offer.destination = trip.dropoff;
    offer.departure_time_s = trip.pickup_time_s;
    Result<RideId> ride = xar.CreateRide(offer);
    if (ride.ok()) {
      ++metrics.cars_used;
      metrics.AddTrip(xar.GetRide(*ride)->route.time_s, 0.0, 0.0);
    } else {
      ++metrics.requests_unserved;
    }
  }
  return metrics;
}

}  // namespace xar
