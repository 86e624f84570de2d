// Multi-rider pooling under persistent kinetic trees (ISSUE 10): the
// event-driven city sim runs in fixed-fleet mode — the first `fleet` trips
// become moving vehicles, every later trip is a pure commuter request — with
// kinetic booking on, sweeping fleet size x seats per vehicle. Reported per
// point: mean/max occupancy (riders per utilized vehicle), match rate and
// per-rider actual detour. A tight fleet with multi-seat vehicles is where
// occupancy must climb past 1.0 — the "true pooling" acceptance signal.
// Writes BENCH_pooling.json (see bench/README.md).

#include <cstdio>
#include <map>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "sim/event_sim.h"
#include "workload/trip_generator.h"
#include "xar/concurrent_xar.h"

namespace xar {
namespace bench {
namespace {

struct SweepPoint {
  std::size_t fleet;
  int seats;
  EventSimResult result;
  double mean_occupancy = 0.0;  // bookings per vehicle that got >= 1
  std::size_t max_occupancy = 0;
  std::size_t utilized_vehicles = 0;
};

void Occupancy(SweepPoint* point) {
  std::map<std::uint32_t, std::size_t> per_ride;
  for (const BookingRecord& b : point->result.bookings) {
    ++per_ride[b.ride.value()];
  }
  point->utilized_vehicles = per_ride.size();
  std::size_t total = 0;
  for (const auto& [ride, count] : per_ride) {
    total += count;
    if (count > point->max_occupancy) point->max_occupancy = count;
  }
  point->mean_occupancy =
      per_ride.empty() ? 0.0
                       : static_cast<double>(total) /
                             static_cast<double>(per_ride.size());
}

}  // namespace
}  // namespace bench
}  // namespace xar

int main() {
  using namespace xar;
  using namespace xar::bench;

  const double scale = BenchScale();
  PrintHeader("BENCH pooling",
              "fixed fleet x seats sweep: occupancy / match rate / detour "
              "under persistent kinetic trees");

  const unsigned host_cores = std::thread::hardware_concurrency();

  BenchWorldOptions wopt;
  wopt.num_trips = static_cast<std::size_t>(6000 * scale);
  BenchWorld world(wopt);
  std::vector<TaxiTrip> trips =
      FilterByTimeWindow(world.trips, 7 * 3600.0, 9 * 3600.0);
  std::printf("trips in window: %zu\n\n", trips.size());

  ScenarioConfig base;
  base.protocol.window_s = 900.0;
  // A fixed fleet is scarce supply: let riders walk a bit further and give
  // drivers a fatter budget so the sweep measures pooling, not walk cutoffs.
  base.protocol.walk_limit_m = 900.0;
  base.seed = 23;
  // No cancellations / no-shows here: every booking in the result is a
  // served rider, so occupancy counts are exact.

  const std::size_t fleets[] = {15, 30, 60};
  const int seat_counts[] = {1, 2, 4};

  std::printf("%-7s %6s %9s %9s %9s %8s %9s %10s\n", "fleet", "seats",
              "requests", "match%", "occ_mean", "occ_max", "vehicles",
              "detour_m");
  std::vector<SweepPoint> points;
  for (std::size_t fleet : fleets) {
    for (int seats : seat_counts) {
      XarOptions opt;
      opt.kinetic_booking = true;
      opt.default_seats = seats;
      opt.default_detour_limit_m = 6000.0;
      ConcurrentXarSystem xar(world.graph, *world.spatial, *world.region,
                              *world.oracle, opt, /*num_shards=*/1);
      ScenarioConfig config = base;
      config.fleet = fleet;
      EventSim sim(world.graph, xar.options(), config);
      SweepPoint point;
      point.fleet = fleet;
      point.seats = seats;
      point.result = RunEventSim(xar, sim, trips);
      Occupancy(&point);
      const EventSimResult& r = point.result;
      const double match_rate =
          r.requests > 0 ? 100.0 * static_cast<double>(r.matched) /
                               static_cast<double>(r.requests)
                         : 0.0;
      std::printf("%-7zu %6d %9zu %9.1f %9.2f %8zu %9zu %10.1f\n", fleet,
                  seats, r.requests, match_rate, point.mean_occupancy,
                  point.max_occupancy, point.utilized_vehicles,
                  r.mean_actual_detour_m);
      points.push_back(std::move(point));
    }
  }

  FILE* f = std::fopen("BENCH_pooling.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"pooling\",\n");
    std::fprintf(f, "  \"scale\": %.2f,\n", scale);
    std::fprintf(f, "  \"host_cores\": %u,\n", host_cores);
    std::fprintf(f, "  \"trips\": %zu,\n", trips.size());
    std::fprintf(f, "  \"scenario\": {\"window_s\": %.0f, \"seed\": %llu, "
                    "\"kinetic_booking\": true},\n",
                 base.protocol.window_s,
                 static_cast<unsigned long long>(base.seed));
    std::fprintf(f, "  \"points\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const SweepPoint& p = points[i];
      const EventSimResult& r = p.result;
      std::fprintf(
          f,
          "    {\"fleet\": %zu, \"seats\": %d, \"requests\": %zu, "
          "\"matched\": %zu, \"match_rate\": %.4f, "
          "\"mean_occupancy\": %.4f, \"max_occupancy\": %zu, "
          "\"utilized_vehicles\": %zu, \"mean_actual_detour_m\": %.2f, "
          "\"mean_walk_m\": %.2f, \"edge_traversals\": %zu}%s\n",
          p.fleet, p.seats, r.requests, r.matched,
          r.requests > 0 ? static_cast<double>(r.matched) /
                               static_cast<double>(r.requests)
                         : 0.0,
          p.mean_occupancy, p.max_occupancy, p.utilized_vehicles,
          r.mean_actual_detour_m, r.mean_walk_m, r.edge_traversals,
          i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_pooling.json\n");
  }
  return 0;
}
