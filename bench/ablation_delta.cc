// Ablation: the grid→landmark association limit Δ (DESIGN.md §4.8).
// Δ is slack *outside* the 4ε clustering guarantee: the detour-approximation
// accuracy of Fig. 3a depends on it non-monotonically — too small starves
// pass-through detection (coarser insertion anchoring), too large anchors
// grids to far-away landmarks.

#include <cmath>
#include <cstdio>

#include "bench/bench_common.h"
#include "common/stats.h"
#include "common/table.h"
#include "sim/event_sim.h"
#include "xar/xar_system.h"

namespace xar {
namespace {

void Run() {
  double scale = bench::BenchScale();
  CityOptions city;
  city.rows = 28;
  city.cols = 28;
  city.seed = 42;
  RoadGraph graph = GenerateCity(city);
  SpatialNodeIndex spatial(graph);
  WorkloadOptions wl;
  wl.num_trips = static_cast<std::size_t>(10000 * scale);
  wl.seed = 44;
  std::vector<TaxiTrip> trips = GenerateTrips(graph.bounds(), wl);

  bench::PrintHeader("Ablation: Delta (grid->landmark drive limit)",
                     "detour-approximation accuracy vs Delta");
  std::printf("epsilon = 1000 m, %zu trips per setting\n\n", trips.size());

  TextTable table({"Delta_m", "matched", "frac_excess<eps", "frac<2eps",
                   "max_excess_m", "assigned_grids_pct"});
  for (double delta_assoc : {250.0, 350.0, 500.0, 750.0, 1000.0, 1500.0}) {
    DiscretizationOptions dopt;
    dopt.max_drive_to_landmark_m = delta_assoc;
    dopt.landmarks.num_candidates = 500;
    dopt.landmarks.seed = 43;
    RegionIndex region = RegionIndex::Build(graph, spatial, dopt);
    GraphOracle oracle(graph);
    XarSystem xar(graph, spatial, region, oracle);
    EventSim event_sim(graph, xar.options(), ScenarioConfig{});
    EventSimResult sim = RunEventSim(xar, event_sim, trips);

    PercentileTracker excess;
    for (const BookingRecord& b : sim.bookings) {
      excess.Add(std::max(0.0, b.actual_detour_m - b.budget_before_m));
    }
    std::size_t assigned = 0;
    for (std::size_t g = 0; g < region.grid().CellCount(); ++g) {
      if (region.LandmarkOfGrid(GridId(static_cast<GridId::underlying_type>(g)))
              .valid()) {
        ++assigned;
      }
    }
    double eps = region.epsilon();
    table.AddRow(
        {TextTable::Num(delta_assoc, 0), std::to_string(sim.matched),
         excess.count() ? TextTable::Num(excess.FractionAtMost(eps), 3)
                        : "n/a",
         excess.count() ? TextTable::Num(excess.FractionAtMost(2 * eps), 3)
                        : "n/a",
         excess.count() ? TextTable::Num(excess.max(), 0) : "n/a",
         TextTable::Num(100.0 * static_cast<double>(assigned) /
                            static_cast<double>(region.grid().CellCount()),
                        1)});
  }
  table.Print();
  std::printf(
      "\nShape check: with landmark-level insertion estimates, accuracy and\n"
      "grid coverage improve with Delta and saturate near full assignment;\n"
      "a starved Delta (< eps/2) visibly hurts frac_excess<eps.\n");
}

}  // namespace
}  // namespace xar

int main() {
  xar::Run();
  return 0;
}
