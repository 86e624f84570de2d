// Reproduces Fig. 3a: the CDF of the detour *approximation* over all booked
// request matches, relative to the clustering guarantee epsilon (= 4*delta,
// the worst-case intra-cluster distance).
//
// Theory (Sections V-VI): the cluster-level detour estimate used at search
// time can deviate from the exact route detour by at most an additive
// 4*epsilon; the paper measures that empirically ~98% of matches deviate by
// less than epsilon and ~99.9% by less than 2*epsilon.

#include <cmath>
#include <cstdio>

#include "bench/bench_common.h"
#include "common/stats.h"
#include "common/table.h"
#include "sim/event_sim.h"
#include "xar/concurrent_xar.h"

namespace xar {
namespace {

void Run() {
  double scale = bench::BenchScale();
  bench::BenchWorldOptions wopt;
  wopt.num_trips = static_cast<std::size_t>(20000 * scale);
  bench::BenchWorld world(wopt);
  double epsilon = world.region->epsilon();

  ConcurrentXarSystem xar(world.graph, *world.spatial, *world.region,
                          *world.oracle, {}, /*num_shards=*/1);
  EventSim event_sim(world.graph, xar.options(), ScenarioConfig{});
  EventSimResult sim = RunEventSim(xar, event_sim, world.trips);

  // The paper's quantity (Section V, last paragraph): by how much a booking
  // overruns the ride's remaining detour budget — the search admitted it
  // based on the cluster-level estimate, so any overrun is approximation
  // error. Theory: <= 4*eps; paper's data: 98% <= eps, 99.9% <= 2*eps.
  PercentileTracker excess;
  PercentileTracker est_err;  // secondary: |actual - estimate|
  for (const BookingRecord& b : sim.bookings) {
    excess.Add(std::max(0.0, b.actual_detour_m - b.budget_before_m));
    est_err.Add(std::abs(b.actual_detour_m - b.estimated_detour_m));
  }

  bench::PrintHeader("Figure 3a",
                     "approximated detour of request matches vs epsilon");
  std::printf("epsilon = %.0f m (= 4*delta), clusters = %zu\n",
              epsilon, world.region->NumClusters());
  std::printf("requests = %zu, matched+booked = %zu, rides created = %zu\n\n",
              sim.requests, sim.matched, sim.rides_created);
  if (excess.count() == 0) {
    std::printf("no bookings -- increase workload\n");
    return;
  }

  TextTable table({"detour limit exceeded by <=", "fraction of matches"});
  const double thresholds[] = {0.0, 0.25, 0.5, 1.0, 2.0, 4.0};
  for (double mult : thresholds) {
    char label[32];
    std::snprintf(label, sizeof(label), "%.2f * epsilon", mult);
    table.AddRow(
        {label, TextTable::Num(excess.FractionAtMost(mult * epsilon), 4)});
  }
  table.Print();

  std::printf("\nexcess over limit: mean=%.0fm p98=%.0fm p99.9=%.0fm max=%.0fm\n",
              excess.mean(), excess.Percentile(98), excess.Percentile(99.9),
              excess.max());
  std::printf("estimate error |actual-est|: mean=%.0fm p98=%.0fm max=%.0fm\n",
              est_err.mean(), est_err.Percentile(98), est_err.max());
  double at_eps = excess.FractionAtMost(epsilon);
  double at_2eps = excess.FractionAtMost(2 * epsilon);
  bool bound_holds = excess.max() <= 4 * epsilon + 1e-6;
  std::printf("\nShape check (paper: ~98%% <= eps, ~99.9%% <= 2*eps, all <= 4*eps):\n");
  std::printf("  <= eps: %.1f%%   <= 2*eps: %.1f%%   4*eps bound: %s\n",
              at_eps * 100, at_2eps * 100,
              bound_holds ? "HOLDS" : "VIOLATED");
}

}  // namespace
}  // namespace xar

int main() {
  xar::Run();
  return 0;
}
