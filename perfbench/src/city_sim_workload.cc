// city_sim: the discrete-event simulator over the 7-8 am rush on the
// 4-shard system with kinetic booking, congestion, a 450 s refresh cadence
// and 5% cancels / 5% no-shows. No sockets: EventSim drives the system
// through a timing SimTarget decorator.
//
// Run order: set the world up kSetupRepeats times (setup_s is their median),
// run the scenario once as the warm-up twin, then re-run it on a fresh
// system until `seconds` have passed. Every run's fingerprint must equal
// the twin's. The traced run spends half its budget on untraced runs and
// then runs once more with spans on.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>

#include "bench_logic.h"
#include "common/clock.h"
#include "decorators.h"
#include "layer_metrics.h"
#include "sim/event_sim.h"
#include "trace.h"
#include "workloads.h"
#include "world.h"
#include "xar/concurrent_xar.h"

namespace perfbench {
namespace {

constexpr std::size_t kShards = 4;
constexpr int kSetupRepeats = 3;
constexpr std::size_t kNumTrips = 48000;
constexpr double kRushBeginS = 7 * 3600.0;
constexpr double kRushEndS = 8 * 3600.0;
constexpr std::size_t kSpanCapacity = 1 << 20;

xar::XarOptions SystemOptions() {
  xar::XarOptions options;
  options.kinetic_booking = true;
  // Refresh rebuilds dominate the sim's wall time. Built on one thread, they
  // measure the build's work; built on all four, they measure how many
  // vCPUs a shared host lends the run at that moment (the parallel build's
  // wall time swung 2.5x between runs, the serial one about 10%).
  options.preprocess_threads = 1;
  return options;
}

xar::ScenarioConfig Scenario(std::uint64_t seed) {
  xar::ScenarioConfig config;
  config.protocol.window_s = 900.0;
  // Every second request after a booking only looks (and then drives), so
  // the sim's own Search calls give this workload its search latency.
  config.protocol.look_to_book = 2;
  config.events.cancel_probability = 0.05;
  config.events.no_show_probability = 0.05;
  config.refresh_period_s = 450.0;
  config.seed = seed;
  return config;
}

/// One scenario run on a fresh system; the EventSim outlives the system
/// (the system routes on the graphs/oracles the sim materialized).
struct SimRun {
  xar::EventSimResult result;
  double wall_s = 0.0;
  double inside_s = 0.0;
  double refresh_s = 0.0;
  std::vector<double> search_us;
  std::vector<double> sab_us;
  std::uint64_t sab_landed = 0;
  std::uint64_t sab_unmatched = 0;
  std::vector<xar::RefreshStats> refreshes;
  xar::PoolingStats pooling;
  xar::RetryStats retry;
  xar::MatchIndexStats match;
};

SimRun RunOnce(const World& world, const std::vector<xar::TaxiTrip>& trips,
               std::uint64_t seed, xar::DistanceOracle& oracle,
               SpanRecorder* recorder) {
  SimRun run;
  xar::EventSim sim(world.graph, SystemOptions(), Scenario(seed));
  xar::ConcurrentXarSystem system(world.graph, *world.spatial, *world.region,
                                  oracle, SystemOptions(), kShards);
  TracingSimTarget target(xar::MakeSimTarget(system), recorder);
  xar::Stopwatch wall;
  run.result = sim.Run(target, trips);
  run.wall_s = wall.ElapsedSeconds();
  run.inside_s = static_cast<double>(target.inside_ns()) * 1e-9;
  run.refresh_s = static_cast<double>(target.refresh_ns()) * 1e-9;
  run.search_us = target.search_us();
  run.sab_us = target.sab_us();
  run.sab_landed = target.sab_landed();
  run.sab_unmatched = target.sab_unmatched();
  run.refreshes = target.refreshes();
  run.pooling = system.pooling_stats();
  run.retry = system.retry_stats();
  run.match = system.match_stats();
  return run;
}

/// Gate: the sim's counts agree with what the target saw. Every request
/// either only searched or searched-and-booked, so requests = matched +
/// unmatched + look-only.
void CheckCounts(const SimRun& run, RunOutput* out) {
  const xar::EventSimResult& r = run.result;
  if (r.matched != run.sab_landed) {
    out->Fail("sim counted " + std::to_string(r.matched) +
              " matches, the system booked " + std::to_string(run.sab_landed));
  }
  if (r.requests != r.matched + run.sab_unmatched + run.search_us.size()) {
    out->Fail("requests != matched + unmatched + look-only");
  }
}

}  // namespace

void RunCitySimWorkload(const RunArgs& args, RunOutput* out) {
  std::vector<double> setup_s, ch_ms, region_ms;
  std::unique_ptr<World> world;
  for (int i = 0; i < kSetupRepeats; ++i) {
    world.reset();
    xar::Stopwatch setup;
    world = BuildWorld(kNumTrips);
    // The system EventSim drives is built per run (fresh state each time);
    // building one here times its construction as part of set-up.
    xar::ConcurrentXarSystem probe(world->graph, *world->spatial,
                                   *world->region, *world->oracle,
                                   SystemOptions(), kShards);
    setup_s.push_back(setup.ElapsedSeconds());
    ch_ms.push_back(world->ch_build_ms);
    region_ms.push_back(world->region_build_ms);
  }
  // The seed keeps nine in ten of the pool's rush-hour trips, and drives
  // the scenario's own draws (cancels, no-shows).
  std::vector<xar::TaxiTrip> trips;
  {
    std::mt19937_64 rng(args.seed);
    for (const xar::TaxiTrip& trip :
         xar::FilterByTimeWindow(world->trips, kRushBeginS, kRushEndS)) {
      if (rng() % 10 != 0) trips.push_back(trip);
    }
  }

  // Warm-up twin: fills the oracle cache and pins the fingerprint.
  const SimRun twin =
      RunOnce(*world, trips, args.seed, *world->oracle, nullptr);
  CheckCounts(twin, out);
  {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "%zu rush-hour requests, %zu matched, %zu rides created, "
                  "%zu refreshes, fingerprint %016llx",
                  twin.result.requests, twin.result.matched,
                  twin.result.rides_created, twin.result.refreshes,
                  static_cast<unsigned long long>(twin.result.fingerprint));
    out->notes.push_back(line);
  }

  // Untraced runs until the budget has passed and both latency sets hold
  // enough samples for a p99.
  std::vector<SimRun> runs;
  std::size_t search_n = 0, sab_n = 0;
  xar::Stopwatch budget;
  const double untraced_budget_s = args.trace ? args.seconds / 2 : args.seconds;
  while (budget.ElapsedSeconds() < untraced_budget_s ||
         HighestSupportedQuantile(std::min(search_n, sab_n)) < 0.99) {
    runs.push_back(RunOnce(*world, trips, args.seed, *world->oracle, nullptr));
    search_n += runs.back().search_us.size();
    sab_n += runs.back().sab_us.size();
  }

  std::vector<double> req_per_s, capacity, search_us, sab_us;
  for (const SimRun& run : runs) {
    CheckCounts(run, out);
    if (run.result.fingerprint != twin.result.fingerprint) {
      out->Fail("fingerprint differs between two same-seed runs");
    }
    req_per_s.push_back(static_cast<double>(run.result.requests) / run.wall_s);
    // The request path: every SimTarget call except the periodic refresh,
    // which runs on a timer rather than per request.
    capacity.push_back(static_cast<double>(run.result.requests) /
                       (run.inside_s - run.refresh_s));
    search_us.insert(search_us.end(), run.search_us.begin(),
                     run.search_us.end());
    sab_us.insert(sab_us.end(), run.sab_us.begin(), run.sab_us.end());
  }
  out->attempted = twin.result.requests * (runs.size() + 1);
  out->failed = 0;
  const LatencySummary search = Summarize(search_us);
  const LatencySummary sab = Summarize(sab_us);
  {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%zu measured runs; search n=%zu p50 %.1f us p99 %.1f us "
                  "(p%.2f = %.1f us); search-and-book n=%zu p50 %.1f us "
                  "p99 %.1f us (p%.2f = %.1f us)",
                  runs.size(), search.count, search.p50_us, search.p99_us,
                  search.tail_q * 100, search.tail_us, sab.count, sab.p50_us,
                  sab.p99_us, sab.tail_q * 100, sab.tail_us);
    out->notes.push_back(line);
  }

  const SimRun& last = runs.back();
  if (!args.trace) {
    out->Add("setup_s", Median(setup_s), "s");
    out->Add("rss_mb", PeakRssMb(), "MB");
    out->Add("search_p50_us", search.p50_us, "us");
    out->Add("book_p50_us", sab.p50_us, "us");
    out->Add("booked_frac",
             Share(static_cast<double>(last.sab_landed),
                   static_cast<double>(last.sab_landed + last.sab_unmatched)),
             "frac");
    out->Add("detour_m", last.result.mean_actual_detour_m, "m");
    out->Add("eta_error_s", last.result.mean_eta_error_s, "s");
    out->Add("sim_req_per_s", Median(req_per_s), "1/s");
    return;
  }

  // --- Traced run: oracle decorator (epoch 0) + SimTarget spans. ---------
  out->Add("search_p99_us", search.p99_us, "us");
  out->Add("book_p99_us", sab.p99_us, "us");
  out->Add("capacity_rps", Median(capacity), "1/s");

  SpanRecorder recorder(kSpanCapacity);
  TracingOracle traced_oracle(*world->oracle, &recorder);
  const std::size_t comp0 = world->oracle->computation_count();
  const std::size_t hits0 = world->oracle->cache_hit_count();
  const std::size_t settled0 = world->oracle->settled_count();
  const SimRun traced =
      RunOnce(*world, trips, args.seed, traced_oracle, &recorder);
  CheckCounts(traced, out);
  if (traced.result.fingerprint != twin.result.fingerprint) {
    out->Fail("traced run fingerprint differs from the untraced twin");
  }
  const std::vector<Span> spans = recorder.Spans();

  std::int64_t first_refresh_ns = 0;
  double refresh_ns = 0.0;
  for (const Span& s : spans) {
    if (std::string(s.name) != kSimRefresh) continue;
    if (first_refresh_ns == 0) first_refresh_ns = s.start_ns;
    refresh_ns += static_cast<double>(s.duration_ns());
  }
  const std::vector<double> refresh_ms = [&] {
    std::vector<double> v = SpanMicros(spans, kSimRefresh);
    for (double& x : v) x *= 1e-3;
    return v;
  }();
  std::vector<double> prewarm_ms, matrix_ms;
  double rehomed = 0.0;
  for (const xar::RefreshStats& r : traced.refreshes) {
    prewarm_ms.push_back(r.last_prewarm_ms);
    matrix_ms.push_back(r.last_matrix_ms);
    rehomed += static_cast<double>(r.last_rides_rehomed);
  }

  OpCounts counts;
  counts.requests = static_cast<double>(traced.result.requests);
  counts.bookings = static_cast<double>(traced.sab_landed);
  counts.book_attempts =
      static_cast<double>(traced.sab_landed + traced.retry.stale_rejections);
  AddXarOracleMetrics(
      spans, OpSpanNames{kSimSearch, nullptr, kSimSab}, counts, traced.retry,
      OracleDeltas{world->oracle->computation_count() - comp0,
                   world->oracle->cache_hit_count() - hits0,
                   world->oracle->settled_count() - settled0},
      first_refresh_ns, out);
  AddMatchMetrics(xar::MatchIndexStats{}, traced.match, out);

  out->Add("setup.ch_build_ms", Median(ch_ms), "ms");
  out->Add("setup.region_build_ms", Median(region_ms), "ms");

  out->Add("refresh.wall_p50_ms", Percentile(refresh_ms, 0.5), "ms");
  out->Add("refresh.prewarm_ms", Median(prewarm_ms), "ms");
  out->Add("refresh.matrix_ms", Median(matrix_ms), "ms");
  out->Add("refresh.rehomed_rides",
           Share(rehomed, static_cast<double>(traced.refreshes.size())),
           "count");
  out->Add("refresh.share_of_wall", refresh_ns * 1e-9 / traced.wall_s, "frac");

  const std::vector<double> sab_spans = SpanMicros(spans, kSimSab);
  out->Add("sim.sab_p50_us", Percentile(sab_spans, 0.5), "us");
  out->Add("sim.sab_p99_us", Percentile(sab_spans, 0.99), "us");
  out->Add("sim.cancel_p50_us",
           Percentile(SpanMicros(spans, kSimCancel), 0.5), "us");
  out->Add("sim.noshow_p50_us",
           Percentile(SpanMicros(spans, kSimNoShow), 0.5), "us");
  out->Add("sim.self_frac", 1.0 - traced.inside_s / traced.wall_s, "frac");
  out->Add("pooling.insert_accept_frac",
           Share(static_cast<double>(traced.pooling.insertions),
                 static_cast<double>(traced.pooling.insertions +
                                     traced.pooling.rejections)),
           "frac");

  const double untraced_wall = [&] {
    std::vector<double> v;
    for (const SimRun& run : runs) v.push_back(run.wall_s);
    return Median(v);
  }();
  out->Add("trace.overhead_frac", traced.wall_s / untraced_wall - 1.0, "frac");
  out->Add("trace.spans", static_cast<double>(spans.size()), "count");
  out->Add("trace.dropped_spans", static_cast<double>(recorder.dropped()),
           "count");
  char line[240];
  std::snprintf(line, sizeof(line),
                "traced run %.3f s vs untraced median %.3f s (tracing overhead "
                "%.1f%%); oracle spans cover epoch 0 only (until the first "
                "refresh), after which EventSim owns the oracle and refresh.* "
                "carries the cost",
                traced.wall_s, untraced_wall,
                100.0 * (traced.wall_s / untraced_wall - 1.0));
  out->notes.push_back(line);
  if (!args.trace_out.empty() && !recorder.WriteCsv(args.trace_out)) {
    out->Fail("cannot write span buffer to " + args.trace_out);
  }
}

}  // namespace perfbench
