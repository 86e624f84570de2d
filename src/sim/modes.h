#ifndef XAR_SIM_MODES_H_
#define XAR_SIM_MODES_H_

#include <vector>

#include "graph/oracle.h"
#include "graph/spatial_index.h"
#include "mmtp/integration.h"
#include "mmtp/trip_planner.h"
#include "sim/metrics.h"
#include "sim/scenario.h"
#include "workload/taxi_trip.h"
#include "xar/concurrent_xar.h"
#include "xar/xar_system.h"

namespace xar {

/// Fig. 6 mode 1 — every trip is a private taxi: best travel times, one car
/// per request, no walking or waiting (pickup at the door at request time).
ModeMetrics EvaluateTaxiMode(const SpatialNodeIndex& spatial,
                             DistanceOracle& oracle,
                             const std::vector<TaxiTrip>& trips);

/// Fig. 6 mode 2 — public transport only, via the multi-modal trip planner.
/// Trips the planner cannot serve are counted unserved; no cars are added.
ModeMetrics EvaluatePublicTransportMode(const TripPlanner& planner,
                                        const std::vector<TaxiTrip>& trips);

/// Fig. 6 mode 3 — stand-alone ride sharing (the Section X-A.2 simulation),
/// replayed by the event sim with traffic and events inert. `world` is the
/// graph `xar` was built on.
ModeMetrics EvaluateRideShareMode(const RoadGraph& world,
                                  ConcurrentXarSystem& xar,
                                  const std::vector<TaxiTrip>& trips,
                                  const SimOptions& options = {});

/// Fig. 6 mode 4 — public transport with XAR in Aider mode: PT plans are
/// generated first; infeasible segments (walk > 1 km or wait > 10 min by
/// default) are offered to XAR; commuters whose infeasible segments cannot
/// be aided drive (creating shareable rides), mirroring the RS simulation's
/// supply model.
ModeMetrics EvaluateRideSharePlusTransitMode(
    const TripPlanner& planner, XarSystem& xar,
    const std::vector<TaxiTrip>& trips,
    const IntegrationOptions& integration_options = {},
    const SimOptions& sim_options = {});

}  // namespace xar

#endif  // XAR_SIM_MODES_H_
