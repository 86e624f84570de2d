// Thread-scaling throughput of the sharded concurrent serving path.
//
// Measures, for 1/2/4/8 worker threads against a fixed 8-shard
// ConcurrentXarSystem:
//   - search-only QPS (the paper's dominant operation at high look-to-book),
//   - mixed traffic QPS (searches with a 5% optimistic SearchAndBook mix),
//   - pure SearchAndBook QPS (the booking path end to end),
// and emits both a human-readable table and a JSON trajectory point
// (BENCH_throughput_scaling.json, see bench/README.md).

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/clock.h"
#include "common/stats.h"
#include "common/stats_registry.h"
#include "common/thread_pool.h"
#include "xar/concurrent_xar.h"

namespace xar {
namespace bench {
namespace {

constexpr std::size_t kShards = 8;

struct SeriesPoint {
  std::size_t threads = 0;
  double search_qps = 0.0;
  double search_p50_ms = 0.0;
  double search_p99_ms = 0.0;
  double mixed_qps = 0.0;
  std::size_t mixed_bookings = 0;
  /// Pure SearchAndBook stream (the booking hot path end to end).
  double searchandbook_qps = 0.0;
};

std::vector<RideRequest> ToRequests(const std::vector<TaxiTrip>& trips,
                                    double window_s) {
  std::vector<RideRequest> requests;
  requests.reserve(trips.size());
  for (const TaxiTrip& t : trips) {
    RideRequest req;
    req.id = t.id;
    req.source = t.pickup;
    req.destination = t.dropoff;
    req.earliest_departure_s = t.pickup_time_s;
    req.latest_departure_s = t.pickup_time_s + window_s;
    requests.push_back(req);
  }
  return requests;
}

void Populate(ConcurrentXarSystem& xar, const std::vector<TaxiTrip>& offers) {
  for (const TaxiTrip& t : offers) {
    RideOffer offer;
    offer.source = t.pickup;
    offer.destination = t.dropoff;
    offer.departure_time_s = t.pickup_time_s;
    (void)xar.CreateRide(offer);
  }
}

/// Runs body(0..ops-1) on exactly `threads` dedicated worker threads
/// (work-stealing from a shared counter; unlike ThreadPool::ParallelFor the
/// calling thread does NOT participate, so the thread count is exact) and
/// returns the wall time in seconds.
template <typename Body>
double RunWorkers(std::size_t threads, std::size_t ops, const Body& body) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  Stopwatch wall;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < ops; i = next.fetch_add(1, std::memory_order_relaxed)) {
        body(i);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  return wall.ElapsedSeconds();
}

}  // namespace

int Run() {
  PrintHeader("THROUGHPUT SCALING",
              "search / mixed QPS vs worker threads (8-shard system)");
  double scale = BenchScale();

  BenchWorldOptions wopt;
  wopt.num_trips = static_cast<std::size_t>(8000 * scale);
  BenchWorld world(wopt);

  std::vector<TaxiTrip> offers;
  std::vector<TaxiTrip> probes;
  SplitTrips(world.trips, 2, &offers, &probes);
  std::vector<RideRequest> requests = ToRequests(probes, 900.0);
  const std::size_t search_ops =
      static_cast<std::size_t>(20000 * scale);
  const std::size_t mixed_ops = static_cast<std::size_t>(6000 * scale);

  const unsigned host_cores = std::thread::hardware_concurrency();
  std::printf("host cores: %u | shards: %zu | supply rides: %zu | "
              "probe requests: %zu\n",
              host_cores, kShards, offers.size(), requests.size());
  if (host_cores <= 1) {
    std::printf("WARNING: only %u hardware core(s) visible — thread counts "
                "above 1 time-slice a single core, so QPS cannot scale here; "
                "read the speedup series as a lower bound.\n",
                host_cores);
  }
  std::printf("\n");
  std::printf("%8s %14s %14s %14s %14s %10s %14s\n", "threads",
              "search QPS", "p50 ms", "p99 ms", "mixed QPS", "bookings",
              "S&B QPS");

  std::vector<SeriesPoint> series;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    SeriesPoint point;
    point.threads = threads;

    // --- Search-only: a fixed budget of searches fanned over T threads on
    // a read-only system; wall time gives aggregate QPS.
    {
      ConcurrentXarSystem xar(world.graph, *world.spatial, *world.region,
                              *world.oracle, {}, kShards);
      Populate(xar, offers);
      std::vector<double> latencies(search_ops);
      double elapsed = RunWorkers(threads, search_ops, [&](std::size_t i) {
        Stopwatch timer;
        (void)xar.Search(requests[i % requests.size()]);
        latencies[i] = timer.ElapsedMillis();
      });
      point.search_qps = static_cast<double>(search_ops) / elapsed;
      PercentileTracker tracker;
      tracker.Reserve(latencies.size());
      for (double ms : latencies) tracker.Add(ms);
      point.search_p50_ms = tracker.Percentile(50);
      point.search_p99_ms = tracker.Percentile(99);
    }

    // --- Mixed traffic: 1-in-20 operations is an optimistic SearchAndBook
    // (validate-under-shard-lock), the rest are shared-lock searches. A
    // fresh system per thread count keeps the workloads comparable.
    {
      ConcurrentXarSystem xar(world.graph, *world.spatial, *world.region,
                              *world.oracle, {}, kShards);
      Populate(xar, offers);
      std::atomic<std::size_t> bookings{0};
      double elapsed = RunWorkers(threads, mixed_ops, [&](std::size_t i) {
        const RideRequest& req = requests[i % requests.size()];
        if (i % 20 == 0) {
          if (xar.SearchAndBook(req).ok()) {
            bookings.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          (void)xar.Search(req);
        }
      });
      point.mixed_qps = static_cast<double>(mixed_ops) / elapsed;
      point.mixed_bookings = bookings.load();
    }

    // --- Search-and-book: every operation is a SearchAndBook that books
    // its candidates in walk order — the booking hot path end to end.
    {
      ConcurrentXarSystem xar(world.graph, *world.spatial, *world.region,
                              *world.oracle, {}, kShards);
      Populate(xar, offers);
      double elapsed = RunWorkers(threads, mixed_ops, [&](std::size_t i) {
        (void)xar.SearchAndBook(requests[i % requests.size()]);
      });
      point.searchandbook_qps = static_cast<double>(mixed_ops) / elapsed;
    }

    std::printf("%8zu %14.0f %14.3f %14.3f %14.0f %10zu %14.0f\n",
                point.threads, point.search_qps, point.search_p50_ms,
                point.search_p99_ms, point.mixed_qps, point.mixed_bookings,
                point.searchandbook_qps);
    series.push_back(point);
  }

  // --- Refresh under load: the mixed workload once more at the top thread
  // count while the discretization is rebuilt + epoch-swapped twice mid-run.
  // Surfaces the retry/staleness and refresh observability tables (ROADMAP
  // metrics item); bookings landing after a swap show up as re-search wins.
  {
    ConcurrentXarSystem xar(world.graph, *world.spatial, *world.region,
                            *world.oracle, {}, kShards);
    Populate(xar, offers);
    std::atomic<std::size_t> bookings{0};
    std::thread traffic([&] {
      RunWorkers(8, mixed_ops, [&](std::size_t i) {
        const RideRequest& req = requests[i % requests.size()];
        if (i % 20 == 0) {
          if (xar.SearchAndBook(req).ok()) {
            bookings.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          (void)xar.Search(req);
        }
      });
    });
    for (int r = 0; r < 2; ++r) (void)xar.RefreshDiscretization();
    traffic.join();
    std::printf("\nrefresh under load (%zu mixed ops, 8 threads, "
                "2 rebuild+swap refreshes, final epoch %llu):\n",
                mixed_ops, static_cast<unsigned long long>(xar.epoch()));
    // One registry, one render — retry/refresh/oracle/preprocess sections
    // in a single pass instead of per-table Print calls.
    StatsRegistry registry;
    registry.Register("retry",
                      [&] { return RetryStatsSection(xar.retry_stats()); });
    registry.Register("refresh",
                      [&] { return RefreshStatsSection(xar.refresh_stats()); });
    registry.Register("oracle",
                      [&] { return OracleStatsSection(*world.oracle); });
    registry.Register("preprocess", [&] {
      return PreprocessStatsSection(world.oracle->backend());
    });
    std::printf("%s\n", registry.RenderTables().c_str());
  }

  // JSON trajectory point. Relative speedups are what the scaling claim is
  // about; absolute QPS depends on the host (core count recorded alongside).
  const char* json_path = "BENCH_throughput_scaling.json";
  std::FILE* f = std::fopen(json_path, "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"throughput_scaling\",\n");
    std::fprintf(f, "  \"scale\": %.2f,\n", scale);
    std::fprintf(f, "  \"host_cores\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"shards\": %zu,\n", kShards);
    std::fprintf(f, "  \"supply_rides\": %zu,\n", offers.size());
    std::fprintf(f, "  \"search_ops\": %zu,\n", search_ops);
    std::fprintf(f, "  \"mixed_ops\": %zu,\n", mixed_ops);
    std::fprintf(f, "  \"series\": [\n");
    for (std::size_t i = 0; i < series.size(); ++i) {
      const SeriesPoint& p = series[i];
      std::fprintf(f,
                   "    {\"threads\": %zu, \"search_qps\": %.1f, "
                   "\"search_p50_ms\": %.4f, \"search_p99_ms\": %.4f, "
                   "\"mixed_qps\": %.1f, \"mixed_bookings\": %zu, "
                   "\"searchandbook_qps\": %.1f}%s\n",
                   p.threads, p.search_qps, p.search_p50_ms, p.search_p99_ms,
                   p.mixed_qps, p.mixed_bookings, p.searchandbook_qps,
                   i + 1 < series.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"search_speedup_1_to_8\": %.2f\n",
                 series.back().search_qps / series.front().search_qps);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\nwrote %s (search speedup 1->8 threads: %.2fx)\n",
                json_path,
                series.back().search_qps / series.front().search_qps);
  }
  return 0;
}

}  // namespace bench
}  // namespace xar

int main() { return xar::bench::Run(); }
