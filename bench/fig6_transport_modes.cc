// Reproduces Fig. 6: quality-of-travel and environmental comparison of four
// transportation modes over the same request stream — Taxi, Ride Sharing
// (RS), Public Transport (PT) and Ride Sharing combined with Public
// Transport (RS+PT, XAR in Aider mode with infeasible segments defined as
// walk > 1 km or wait > 10 min).
//
// Paper shape: Taxi best times / most cars; PT worst times / no extra cars;
// RS cuts cars ~64% for ~30% more travel time than taxi; RS+PT cuts PT
// walking (~-56%) and travel time (~-30%) and needs ~50% fewer cars than RS.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "common/table.h"
#include "mmtp/trip_planner.h"
#include "sim/modes.h"
#include "transit/network_generator.h"
#include "xar/xar_system.h"

namespace xar {
namespace {

void AddModeRow(TextTable* table, const ModeMetrics& m) {
  table->AddRow({m.mode_name, std::to_string(m.requests_served),
                 TextTable::Num(m.travel_s.mean() / 60.0, 1),
                 TextTable::Num(m.walk_s.mean() / 60.0, 1),
                 TextTable::Num(m.wait_s.mean() / 60.0, 1),
                 std::to_string(m.cars_used)});
}

void Run() {
  double scale = bench::BenchScale();
  bench::BenchWorldOptions wopt;
  wopt.num_trips = static_cast<std::size_t>(8000 * scale);
  bench::BenchWorld world(wopt);

  Timetable timetable = GenerateTransitNetwork(world.graph.bounds(), {});
  TripPlanner planner(timetable);

  bench::PrintHeader("Figure 6",
                     "Taxi vs RS vs PT vs RS+PT over one request stream");
  std::printf("trips=%zu transit: %zu stops %zu routes %zu connections\n\n",
              world.trips.size(), timetable.stops().size(),
              timetable.routes().size(), timetable.connections().size());

  // Mode 1: taxi.
  GraphOracle taxi_oracle(world.graph);
  ModeMetrics taxi =
      EvaluateTaxiMode(*world.spatial, taxi_oracle, world.trips);

  // Mode 2: public transport.
  ModeMetrics pt = EvaluatePublicTransportMode(planner, world.trips);

  // Mode 3: stand-alone ride sharing.
  GraphOracle rs_oracle(world.graph);
  ConcurrentXarSystem rs_xar(world.graph, *world.spatial, *world.region,
                             rs_oracle, {}, /*num_shards=*/1);
  ModeMetrics rs = EvaluateRideShareMode(world.graph, rs_xar, world.trips);

  // Mode 4: PT + XAR in Aider mode.
  GraphOracle rspt_oracle(world.graph);
  XarSystem rspt_xar(world.graph, *world.spatial, *world.region, rspt_oracle);
  ModeMetrics rspt = EvaluateRideSharePlusTransitMode(planner, rspt_xar,
                                                      world.trips);

  TextTable table({"mode", "served", "travel_min", "walk_min", "wait_min",
                   "cars"});
  AddModeRow(&table, taxi);
  AddModeRow(&table, rs);
  AddModeRow(&table, pt);
  AddModeRow(&table, rspt);
  table.Print();

  auto pct = [](double now, double base) {
    return base > 0 ? (now - base) / base * 100.0 : 0.0;
  };
  std::printf("\nShape check (paper):\n");
  std::printf("  RS vs Taxi: cars %+.0f%% (paper ~-64%%), travel %+.0f%% (paper ~+30%%)\n",
              pct(static_cast<double>(rs.cars_used),
                  static_cast<double>(taxi.cars_used)),
              pct(rs.travel_s.mean(), taxi.travel_s.mean()));
  std::printf("  RS+PT vs PT: walk %+.0f%% (paper ~-56%%), travel %+.0f%% (paper ~-30%%)\n",
              pct(rspt.walk_s.mean(), pt.walk_s.mean()),
              pct(rspt.travel_s.mean(), pt.travel_s.mean()));
  std::printf("  RS+PT vs RS: cars %+.0f%% (paper ~-50%%)\n",
              pct(static_cast<double>(rspt.cars_used),
                  static_cast<double>(rs.cars_used)));
}

}  // namespace
}  // namespace xar

int main() {
  xar::Run();
  return 0;
}
