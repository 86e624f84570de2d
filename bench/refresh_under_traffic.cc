// Refresh cadence under live traffic (ISSUE 9): the event-driven city sim
// runs one rush-hour scenario — vehicles traversing edges in sim time,
// per-street load + a rush-hour profile perturbing driving times, riders
// cancelling and no-showing — while RefreshDiscretization is fed the
// congested world at a swept cadence. Curves: ETA staleness vs refresh
// period (detour-quality-vs-staleness) and match rate vs refresh period,
// plus the median refresh wall time and its oracle-prewarm share per
// cadence. Writes BENCH_refresh_under_traffic.json (see bench/README.md).

#include <cstdio>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "common/stats.h"
#include "sim/event_sim.h"
#include "workload/trip_generator.h"
#include "xar/xar_system.h"

namespace xar {
namespace bench {
namespace {

struct CadencePoint {
  double refresh_period_s;
  EventSimResult result;
  double refresh_p50_ms = 0.0;  ///< RefreshStats::last_rebuild_ms
  double prewarm_p50_ms = 0.0;  ///< RefreshStats::last_prewarm_ms
};

/// Forwards every call to the system's own target and keeps the
/// RefreshStats of each refresh the sim triggers.
class RefreshRecorder final : public SimTarget {
 public:
  explicit RefreshRecorder(std::unique_ptr<SimTarget> inner)
      : inner_(std::move(inner)) {}

  std::vector<RideMatch> Search(const RideRequest& request) const override {
    return inner_->Search(request);
  }
  Result<BookingRecord> SearchAndBook(const RideRequest& request) override {
    return inner_->SearchAndBook(request);
  }
  Result<RideId> CreateRide(const RideOffer& offer) override {
    return inner_->CreateRide(offer);
  }
  Status CancelBooking(RideId ride, RequestId request) override {
    return inner_->CancelBooking(ride, request);
  }
  Status ReportNoShow(RideId ride, RequestId request) override {
    return inner_->ReportNoShow(ride, request);
  }
  void AdvanceTime(double now_s) override { inner_->AdvanceTime(now_s); }
  RefreshStats RefreshDiscretization(const GraphDelta& delta) override {
    RefreshStats stats = inner_->RefreshDiscretization(delta);
    refreshes_.push_back(stats);
    return stats;
  }
  Result<Ride> GetRide(RideId id) const override { return inner_->GetRide(id); }
  std::uint64_t epoch() const override { return inner_->epoch(); }

  const std::vector<RefreshStats>& refreshes() const { return refreshes_; }

 private:
  std::unique_ptr<SimTarget> inner_;
  std::vector<RefreshStats> refreshes_;
};

/// Median of `field` over the recorded refreshes (0 with none).
double MedianMs(const std::vector<RefreshStats>& refreshes,
                double RefreshStats::*field) {
  if (refreshes.empty()) return 0.0;
  PercentileTracker values;
  for (const RefreshStats& r : refreshes) values.Add(r.*field);
  return values.Percentile(50);
}

}  // namespace
}  // namespace bench
}  // namespace xar

int main() {
  using namespace xar;
  using namespace xar::bench;

  const double scale = BenchScale();
  PrintHeader("BENCH refresh_under_traffic",
              "event sim: refresh cadence vs ETA staleness / match rate");

  const unsigned host_cores = std::thread::hardware_concurrency();

  BenchWorldOptions wopt;
  wopt.num_trips = static_cast<std::size_t>(15000 * scale);
  BenchWorld world = MakeBenchWorld(wopt);
  // Two rush-hour hours: enough bookings for stable quality means, short
  // enough that every cadence point re-runs the full scenario quickly.
  std::vector<TaxiTrip> trips =
      FilterByTimeWindow(world.trips, 7 * 3600.0, 9 * 3600.0);
  std::printf("trips in window: %zu\n\n", trips.size());

  ScenarioConfig base;
  base.protocol.window_s = 900.0;
  base.traffic.tick_period_s = 300.0;
  base.traffic.load_alpha = 0.05;
  base.events.cancel_probability = 0.05;
  base.events.no_show_probability = 0.05;
  base.seed = 17;

  // 0 = never refresh (the system serves free-flow ETAs all rush hour);
  // then coarser-to-finer cadences.
  const double periods[] = {0.0, 3600.0, 1800.0, 900.0, 450.0};

  std::printf("%-10s %9s %9s %12s %12s %10s %9s %9s %11s %11s\n",
              "period_s", "refreshes", "match%", "eta_err_s", "detour_m",
              "walk_m", "cancels", "noshows", "refresh_ms", "prewarm_ms");
  std::vector<CadencePoint> points;
  for (double period : periods) {
    XarSystem xar(world.graph, *world.spatial, *world.region, *world.oracle);
    ScenarioConfig config = base;
    config.refresh_period_s = period;
    EventSim sim(world.graph, xar.options(), config);
    CadencePoint point;
    point.refresh_period_s = period;
    RefreshRecorder target(MakeSimTarget(xar));
    point.result = sim.Run(target, trips);
    point.refresh_p50_ms =
        MedianMs(target.refreshes(), &RefreshStats::last_rebuild_ms);
    point.prewarm_p50_ms =
        MedianMs(target.refreshes(), &RefreshStats::last_prewarm_ms);
    const EventSimResult& r = point.result;
    const double match_rate =
        r.requests > 0
            ? 100.0 * static_cast<double>(r.matched) /
                  static_cast<double>(r.requests)
            : 0.0;
    std::printf(
        "%-10.0f %9zu %9.1f %12.1f %12.1f %10.1f %9zu %9zu %11.1f %11.1f\n",
        period, r.refreshes, match_rate, r.mean_eta_error_s,
        r.mean_actual_detour_m, r.mean_walk_m, r.cancels_succeeded,
        r.no_shows_succeeded, point.refresh_p50_ms, point.prewarm_p50_ms);
    points.push_back(std::move(point));
  }

  FILE* f = std::fopen("BENCH_refresh_under_traffic.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"refresh_under_traffic\",\n");
    std::fprintf(f, "  \"scale\": %.2f,\n", scale);
    std::fprintf(f, "  \"host_cores\": %u,\n", host_cores);
    std::fprintf(f, "  \"trips\": %zu,\n", trips.size());
    std::fprintf(f, "  \"scenario\": {\"cancel_probability\": %.2f, "
                    "\"no_show_probability\": %.2f, \"load_alpha\": %.2f, "
                    "\"rush_amplitude\": %.2f, \"seed\": %llu},\n",
                 base.events.cancel_probability,
                 base.events.no_show_probability, base.traffic.load_alpha,
                 base.traffic.rush_amplitude,
                 static_cast<unsigned long long>(base.seed));
    std::fprintf(f, "  \"points\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const EventSimResult& r = points[i].result;
      std::fprintf(
          f,
          "    {\"refresh_period_s\": %.0f, \"refreshes\": %zu, "
          "\"requests\": %zu, \"matched\": %zu, \"match_rate\": %.4f, "
          "\"mean_eta_error_s\": %.2f, \"mean_actual_detour_m\": %.2f, "
          "\"mean_walk_m\": %.2f, \"edge_traversals\": %zu, "
          "\"cancels_succeeded\": %zu, \"no_shows_succeeded\": %zu, "
          "\"final_epoch\": %llu, \"refresh_p50_ms\": %.1f, "
          "\"prewarm_p50_ms\": %.1f}%s\n",
          points[i].refresh_period_s, r.refreshes, r.requests, r.matched,
          r.requests > 0 ? static_cast<double>(r.matched) /
                               static_cast<double>(r.requests)
                         : 0.0,
          r.mean_eta_error_s, r.mean_actual_detour_m, r.mean_walk_m,
          r.edge_traversals, r.cancels_succeeded, r.no_shows_succeeded,
          static_cast<unsigned long long>(r.final_epoch),
          points[i].refresh_p50_ms, points[i].prewarm_p50_ms,
          i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_refresh_under_traffic.json\n");
  }
  return 0;
}
