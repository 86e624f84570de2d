// Ablation: schedule quality of kinetic-tree insertion (Huang et al., the
// scheduling layer the XAR paper calls complementary) vs first-come
// arrival-order insertion, on shared vehicles serving 2-4 riders.
//
// Reported: mean completion-time saving and the fraction of instances where
// the kinetic tree finds a feasible schedule that arrival-order insertion
// misses.

#include <cstdio>
#include <limits>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "schedule/kinetic_tree.h"

namespace xar {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Serves riders strictly in arrival order: pickup_i then dropoff_i
/// appended at the end of the current schedule. Returns completion time or
/// +inf when some deadline breaks.
double ArrivalOrderCompletion(
    NodeId origin, double t0, int capacity, DistanceOracle& oracle,
    const std::vector<std::pair<ScheduleStop, ScheduleStop>>& riders) {
  NodeId at = origin;
  double t = t0;
  int onboard = 0;
  for (const auto& [pickup, dropoff] : riders) {
    t += oracle.DriveTime(at, pickup.node);
    if (t > pickup.deadline_s || ++onboard > capacity) return kInf;
    at = pickup.node;
    t += oracle.DriveTime(at, dropoff.node);
    if (t > dropoff.deadline_s) return kInf;
    --onboard;
    at = dropoff.node;
  }
  return t;
}

void Run() {
  double scale = bench::BenchScale();
  bench::BenchWorldOptions wopt;
  wopt.num_trips = 100;  // world only provides the street network here
  bench::BenchWorld world(wopt);

  bench::PrintHeader("Ablation: scheduling",
                     "kinetic tree vs arrival-order rider insertion");

  TextTable table({"riders", "instances", "kt_feasible", "fifo_feasible",
                   "mean_saving_s", "mean_saving_pct"});
  Rng rng(99);
  auto random_node = [&] {
    return NodeId(static_cast<NodeId::underlying_type>(
        rng.NextIndex(world.graph.NumNodes())));
  };

  for (int riders_per_vehicle : {2, 3, 4}) {
    int instances = static_cast<int>(300 * scale);
    int kt_ok = 0, fifo_ok = 0;
    StatAccumulator saving_s, saving_pct;
    for (int inst = 0; inst < instances; ++inst) {
      NodeId origin = random_node();
      double t0 = 8 * 3600;
      std::vector<std::pair<ScheduleStop, ScheduleStop>> riders;
      KineticTree tree(origin, t0, /*capacity=*/3, *world.oracle);
      for (std::uint32_t r = 0;
           r < static_cast<std::uint32_t>(riders_per_vehicle); ++r) {
        double pickup_slack = rng.Uniform(600, 1800);
        ScheduleStop pickup{random_node(), RequestId(r), true,
                            t0 + pickup_slack};
        ScheduleStop dropoff{random_node(), RequestId(r), false,
                             t0 + pickup_slack + rng.Uniform(900, 2400)};
        riders.emplace_back(pickup, dropoff);
        (void)tree.Insert(pickup, dropoff);
      }
      double kt = tree.NumPendingStops() ==
                          riders.size() * 2
                      ? tree.BestSchedule().completion_time_s
                      : kInf;
      double fifo = ArrivalOrderCompletion(origin, t0, 3, *world.oracle,
                                           riders);
      if (kt < kInf) ++kt_ok;
      if (fifo < kInf) ++fifo_ok;
      if (kt < kInf && fifo < kInf) {
        saving_s.Add(fifo - kt);
        saving_pct.Add((fifo - kt) / (fifo - t0) * 100.0);
      }
    }
    table.AddRow({std::to_string(riders_per_vehicle),
                  std::to_string(instances), std::to_string(kt_ok),
                  std::to_string(fifo_ok),
                  TextTable::Num(saving_s.mean(), 1),
                  TextTable::Num(saving_pct.mean(), 1)});
  }
  table.Print();
  std::printf(
      "\nShape check: the kinetic tree should be feasible at least as often\n"
      "as FIFO insertion and never slower (savings >= 0 by optimality).\n");
}

}  // namespace
}  // namespace xar

int main() {
  xar::Run();
  return 0;
}
