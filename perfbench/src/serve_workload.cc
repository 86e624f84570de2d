// serve_look and serve_book: open-loop socket traffic against XarServeServer
// over a 4-shard ConcurrentXarSystem with default XarOptions.
//
// Run order: set up kSetupRepeats times (setup_s is their median; the last
// set-up is kept), check SEARCH over the wire against in-process Search row
// for row, warm up for one second at the fixed rate, measure `seconds` at
// the fixed rate and check the seat/detour ledger, then replay the measured
// request stream in-process. The traced run also bisects the capacity
// ladder (every rung on a fresh instance, ledger-checked too) and replays
// the stream again through the span recorder.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <unordered_map>

#include "bench_logic.h"
#include "common/clock.h"
#include "decorators.h"
#include "layer_metrics.h"
#include "loadgen.h"
#include "serve/client.h"
#include "serve/server.h"
#include "trace.h"
#include "workloads.h"
#include "world.h"
#include "xar/concurrent_xar.h"

namespace perfbench {
namespace {

using xar::serve::SearchPayload;
using xar::serve::Verb;

constexpr std::size_t kShards = 4;
constexpr int kSetupRepeats = 3;
constexpr std::size_t kProbes = 1200;
constexpr double kWarmupSeconds = 1.0;
constexpr double kRungSeconds = 2.0;
/// Largest first-fifth vs last-fifth difference in booked share a serve_book
/// run may show before its rate is judged to be using up the fleet.
constexpr double kMaxBookedDrift = 0.05;
/// Spans kept by the traced replay.
constexpr std::size_t kSpanCapacity = 1 << 20;

struct ServeConfig {
  TrafficMix mix;
  std::size_t pool_trips;   ///< the day's trips the inputs are drawn from
  std::size_t fleet_rides;  ///< how many of them drive
  double fixed_rate_rps;    ///< the workload's open-loop rate
  double limit_us;           ///< p99 limit of the capacity ladder
  std::vector<double> ladder_rps;
  /// Requests of the measured stream the in-process replay runs; enough for
  /// a p99 of both operations.
  std::size_t replay_requests;
};

/// Fixed rates and ladders are constants so latencies compare across
/// commits. Both rates sit well under capacity (the ladder reads about 16k
/// req/s for serve_look and 850 req/s for serve_book on a quiet 4-vCPU
/// host), so the latencies measure service rather than queueing, and a
/// noisy neighbour on a shared host does not tip the run into overload.
/// serve_book's measured phase also books only a small share of the fleet,
/// so booked_frac stays flat through the run. The pools are large enough
/// that no trip is requested twice before the ladder: a repeated rider
/// booking the ride it already rode on adds no detour, which skews
/// detour_m.
const ServeConfig& ConfigFor(const std::string& workload) {
  static const ServeConfig kLook{TrafficMix::kLook, 80000, 2000, 3500.0,
                                 25000.0, LadderRates(4000, 1.05, 40), 70000};
  static const ServeConfig kBook{TrafficMix::kBook, 30000, 10000, 200.0,
                                 100000.0, LadderRates(500, 1.05, 40), 1500};
  return workload == "serve_look" ? kLook : kBook;
}

/// Everything set-up builds once: the world, the fleet, the shuffled request
/// templates.
struct ServeInputs {
  std::unique_ptr<World> world;
  std::vector<xar::RideOffer> fleet;
  std::vector<SearchPayload> templates;
};

/// One populated system behind a started server; the server is declared
/// last so it stops before the system it serves is destroyed.
struct Serving {
  std::unique_ptr<xar::ConcurrentXarSystem> system;
  std::unique_ptr<xar::serve::XarServeServer> server;
  /// What the client sent this instance and saw come back, for its ledger.
  TrafficLedger traffic;
  std::vector<LandedBooking> landed;

  void Add(const PhaseResult& phase) {
    traffic.client_sent += phase.sent;
    traffic.client_answered += phase.answered;
    traffic.client_duplicate_answers += phase.duplicates;
    traffic.client_busy += phase.busy;
    landed.insert(landed.end(), phase.landed.begin(), phase.landed.end());
  }
};

SearchPayload PayloadFrom(const xar::TaxiTrip& trip) {
  SearchPayload p;
  p.source_lat = trip.pickup.lat;
  p.source_lng = trip.pickup.lng;
  p.dest_lat = trip.dropoff.lat;
  p.dest_lng = trip.dropoff.lng;
  p.earliest_departure_s = trip.pickup_time_s;
  p.latest_departure_s = trip.pickup_time_s + 1200.0;
  p.walk_limit_m = -1.0;
  p.top_k = 8;
  return p;
}

xar::RideRequest RequestOf(const SearchPayload& p) {
  xar::RideRequest r;
  r.id = xar::RequestId(p.rider_id);
  r.source = {p.source_lat, p.source_lng};
  r.destination = {p.dest_lat, p.dest_lng};
  r.earliest_departure_s = p.earliest_departure_s;
  r.latest_departure_s = p.latest_departure_s;
  r.walk_limit_m = p.walk_limit_m;
  return r;
}

bool Populate(xar::ConcurrentXarSystem& system,
              const std::vector<xar::RideOffer>& fleet) {
  for (const xar::RideOffer& offer : fleet) {
    if (!system.CreateRide(offer).ok()) return false;
  }
  return true;
}

/// The seed shuffles the pool: the first `fleet_rides` trips drive, the
/// rest are the request templates in that order. Trips are time-sorted, so
/// the shuffle also spreads every phase over the whole day and the booked
/// share does not follow the clock through the run.
ServeInputs MakeInputs(const ServeConfig& config, std::uint64_t seed) {
  ServeInputs in;
  in.world = BuildWorld(config.pool_trips);
  std::vector<xar::TaxiTrip> trips = in.world->trips;
  std::mt19937_64 rng(seed);
  for (std::size_t i = trips.size(); i > 1; --i) {
    std::swap(trips[i - 1], trips[rng() % i]);
  }
  for (std::size_t i = 0; i < trips.size(); ++i) {
    if (i < config.fleet_rides) {
      in.fleet.push_back(OfferFrom(trips[i]));
    } else {
      in.templates.push_back(PayloadFrom(trips[i]));
    }
  }
  return in;
}

/// A fresh 4-shard system with the whole fleet, served on an ephemeral
/// port. `populate_ms` receives the fleet population time.
std::unique_ptr<Serving> StartServing(const ServeInputs& in,
                                      double* populate_ms,
                                      std::string* error) {
  const World& w = *in.world;
  auto serving = std::make_unique<Serving>();
  serving->system = std::make_unique<xar::ConcurrentXarSystem>(
      w.graph, *w.spatial, *w.region, *w.oracle, xar::XarOptions{}, kShards);
  xar::Stopwatch populate;
  if (!Populate(*serving->system, in.fleet)) {
    *error = "CreateRide failed during fleet population";
    return nullptr;
  }
  if (populate_ms != nullptr) *populate_ms = populate.ElapsedMillis();
  serving->server =
      std::make_unique<xar::serve::XarServeServer>(*serving->system);
  xar::Status started = serving->server->Start();
  if (!started.ok()) {
    *error = "server start failed: " + started.ToString();
    return nullptr;
  }
  return serving;
}

/// Latencies of the equality gate's probes, microseconds.
struct ProbeLatencies {
  std::vector<double> wire_us;    ///< SEARCH round trip over the socket
  std::vector<double> local_us;   ///< in-process SearchTopK, same request
};

/// Gate: SEARCH over the wire equals in-process Search on the same system,
/// row for row, on a fixed probe set (the system is quiescent).
ProbeLatencies CheckWireSearch(const ServeInputs& in, Serving& serving,
                               RunOutput* out) {
  ProbeLatencies latency;
  xar::serve::ServeClient client;
  if (!client.Connect(serving.server->port()).ok()) {
    out->Fail("probe client could not connect");
    return latency;
  }
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < kProbes; ++i) {
    SearchPayload p = in.templates[i % in.templates.size()];
    p.rider_id = 0x80000000u + static_cast<std::uint32_t>(i);
    p.top_k = 0;
    xar::Stopwatch rtt;
    xar::Result<xar::serve::SearchResult> wire = client.Search(p);
    latency.wire_us.push_back(rtt.ElapsedMicros());
    ++serving.traffic.client_sent;
    ++serving.traffic.client_answered;
    if (!wire.ok()) {
      out->Fail("probe SEARCH failed: " + wire.status().ToString());
      return latency;
    }
    const xar::RideRequest request = RequestOf(p);
    xar::Stopwatch local_timer;
    const std::vector<xar::RideMatch> local =
        serving.system->SearchTopK(request, 0);
    latency.local_us.push_back(local_timer.ElapsedMicros());
    bool same = local.size() == wire->matches.size();
    for (std::size_t r = 0; same && r < local.size(); ++r) {
      const xar::serve::MatchRow& row = wire->matches[r];
      same = row.ride_id == local[r].ride.value() &&
             row.walk_m == local[r].TotalWalkM() &&
             row.eta_s == local[r].eta_source_s &&
             row.detour_m == local[r].detour_estimate_m;
    }
    if (!same) ++mismatches;
  }
  if (mismatches > 0) {
    out->Fail("wire SEARCH differs from in-process Search on " +
              std::to_string(mismatches) + " of " + std::to_string(kProbes) +
              " probes");
  }
  return latency;
}

/// Ledger gate over everything one serving instance was sent, plus the
/// pickup-ETA drift of every landed booking (confirmed on the wire vs the
/// ride's final state). Returns the drifts in seconds.
std::vector<double> CheckServeLedger(const Serving& serving, RunOutput* out) {
  std::vector<ServerRideState> rides;
  std::unordered_map<std::uint32_t, xar::Ride> final_rides;
  const std::size_t n = serving.system->NumRides();
  for (std::uint32_t id = 0; id < n; ++id) {
    xar::Result<xar::Ride> ride = serving.system->GetRide(xar::RideId(id));
    if (!ride.ok()) {
      out->Fail("GetRide(" + std::to_string(id) + ") failed");
      continue;
    }
    rides.push_back({id, ride->seats_total, ride->seats_available,
                     ride->detour_used_m, ride->detour_limit_m});
    final_rides.emplace(id, std::move(ride).value());
  }
  std::map<std::uint32_t, ClientRideLedger> client;
  for (const LandedBooking& b : serving.landed) {
    ClientRideLedger& c = client[b.ride];
    ++c.landed;
    c.detour_sum_m += b.detour_m;
  }
  const xar::serve::ServeCounters counters = serving.server->counters();
  TrafficLedger traffic = serving.traffic;
  traffic.server_accepted = counters.accepted;
  traffic.server_completed = counters.completed;
  traffic.server_shed = counters.shed;
  for (const std::string& e : CheckLedger(rides, client, traffic, kEpsilonM)) {
    out->Fail("ledger: " + e);
  }

  std::vector<double> drift_s;
  std::size_t missing = 0;
  for (const LandedBooking& b : serving.landed) {
    auto it = final_rides.find(b.ride);
    const xar::ViaPoint* pickup = nullptr;
    if (it != final_rides.end()) {
      for (const xar::ViaPoint& v : it->second.via_points) {
        if (v.is_pickup && v.request == xar::RequestId(b.rider)) pickup = &v;
      }
    }
    if (pickup == nullptr) {
      ++missing;
      continue;
    }
    drift_s.push_back(std::fabs(pickup->eta_s - b.pickup_eta_s));
  }
  if (missing > 0) {
    out->Fail("ledger: " + std::to_string(missing) +
              " landed bookings have no pickup on their ride");
  }
  return drift_s;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// In-process replay of a slice of the request stream, one request after
/// another on the calling thread; spans go to `recorder` when it is
/// non-null. One thread keeps the figure a measure of the xar layer's own
/// work: with several, a shared host's scheduling noise dominates it.
struct ReplayResult {
  double wall_s = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t book_calls = 0;
  std::uint64_t landed = 0;
  std::vector<double> search_us;  ///< SearchTopK calls (serve_look)
  std::vector<double> book_us;    ///< Book or SearchAndBook calls
};

ReplayResult Replay(xar::ConcurrentXarSystem& system, TrafficMix mix,
                    const std::vector<SearchPayload>& templates,
                    std::size_t first_template, std::uint32_t first_rider,
                    std::size_t count, SpanRecorder* recorder) {
  ReplayResult r;
  r.requests = count;
  xar::Stopwatch wall;
  for (std::size_t i = 0; i < count; ++i) {
    SearchPayload p = templates[(first_template + i) % templates.size()];
    p.rider_id = first_rider + static_cast<std::uint32_t>(i);
    const xar::RideRequest request = RequestOf(p);
    if (mix == TrafficMix::kBook) {
      ScopedSpan span(recorder, "xar.sab", p.rider_id);
      ++r.book_calls;
      xar::Stopwatch timer;
      const bool landed = system.SearchAndBook(request).ok();
      r.book_us.push_back(timer.ElapsedMicros());
      if (landed) ++r.landed;
      continue;
    }
    std::vector<xar::RideMatch> matches;
    {
      ScopedSpan span(recorder, "xar.search", p.rider_id);
      xar::Stopwatch timer;
      matches = system.SearchTopK(request, p.top_k);
      r.search_us.push_back(timer.ElapsedMicros());
    }
    if (i % kLookToBook == kLookToBook - 1 && !matches.empty()) {
      ScopedSpan span(recorder, "xar.book", p.rider_id);
      ++r.book_calls;
      xar::Stopwatch timer;
      const bool landed =
          system.Book(matches[0].ride, request, matches[0]).ok();
      r.book_us.push_back(timer.ElapsedMicros());
      if (landed) ++r.landed;
    }
  }
  r.wall_s = wall.ElapsedSeconds();
  return r;
}

/// Runs one open-loop phase on `serving` and keeps its traffic for the
/// instance's ledger.
PhaseResult Drive(Serving& serving, const ServeConfig& config,
                  const ServeInputs& in, double rate_rps, double seconds,
                  std::size_t* next_template, std::uint32_t* next_rider) {
  PhaseResult phase =
      RunPhase(serving.server->port(), config.mix, in.templates, rate_rps,
               seconds, next_template, next_rider);
  serving.Add(phase);
  return phase;
}

std::vector<double> Sorted(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// First-fifth vs last-fifth booked share of a phase (in due order).
double BookedDrift(
    const std::vector<std::pair<std::size_t, bool>>& outcomes) {
  const std::size_t fifth = outcomes.size() / 5;
  if (fifth == 0) return 0.0;
  auto share = [&](std::size_t begin) {
    std::size_t landed = 0;
    for (std::size_t i = begin; i < begin + fifth; ++i) {
      landed += outcomes[i].second ? 1 : 0;
    }
    return static_cast<double>(landed) / static_cast<double>(fifth);
  };
  return share(0) - share(outcomes.size() - fifth);
}

}  // namespace

void RunServeWorkload(const RunArgs& args, RunOutput* out) {
  const ServeConfig& config = ConfigFor(args.workload);
  const bool look = config.mix == TrafficMix::kLook;
  const Verb book_verb = look ? Verb::kBook : Verb::kSearchAndBook;
  std::string error;

  // --- Set-up, repeated; the last world and serving instance are kept. ---
  std::vector<double> setup_s, ch_ms, region_ms, populate_ms;
  ServeInputs in;
  std::unique_ptr<Serving> serving;
  for (int i = 0; i < kSetupRepeats; ++i) {
    serving.reset();  // the previous set-up is released before the next
    in = ServeInputs{};
    xar::Stopwatch setup;
    in = MakeInputs(config, args.seed);
    double populate = 0.0;
    serving = StartServing(in, &populate, &error);
    if (serving == nullptr) {
      out->Fail(error);
      return;
    }
    setup_s.push_back(setup.ElapsedSeconds());
    ch_ms.push_back(in.world->ch_build_ms);
    region_ms.push_back(in.world->region_build_ms);
    populate_ms.push_back(populate);
  }
  out->notes.push_back(
      "fleet " + std::to_string(in.fleet.size()) + " rides, " +
      std::to_string(in.templates.size()) + " request templates, " +
      std::to_string(kShards) + " shards, " +
      std::to_string(serving->server->num_workers()) + " server workers, " +
      std::to_string(kConnections) + " connections from one generator thread");

  const double measured_requests =
      static_cast<double>(kProbes) +
      config.fixed_rate_rps * (kWarmupSeconds + args.seconds);
  if (measured_requests > static_cast<double>(in.templates.size())) {
    out->Fail("--seconds " + std::to_string(args.seconds) +
              " needs more distinct requests than the pool's " +
              std::to_string(in.templates.size()));
    return;
  }

  // --- Gate: wire SEARCH == in-process Search, before any load. ----------
  const ProbeLatencies probes = CheckWireSearch(in, *serving, out);
  if (!out->correct) return;

  // --- Warm-up, then the measured fixed-rate phase. -----------------------
  std::size_t next_template = kProbes;
  std::uint32_t next_rider = 1;
  const std::size_t warm_template = next_template;
  const std::uint32_t warm_rider = next_rider;
  const PhaseResult warm = Drive(*serving, config, in, config.fixed_rate_rps,
                                 kWarmupSeconds, &next_template, &next_rider);

  const auto search_hist0 =
      serving->server->verb_histogram(Verb::kSearch).Take();
  const auto book_hist0 = serving->server->verb_histogram(book_verb).Take();
  const xar::serve::ServeCounters counters0 = serving->server->counters();
  const xar::MatchIndexStats match0 = serving->system->match_stats();

  const std::size_t fixed_template = next_template;
  const std::uint32_t fixed_rider = next_rider;
  const PhaseResult fixed = Drive(*serving, config, in, config.fixed_rate_rps,
                                  args.seconds, &next_template, &next_rider);

  const xar::serve::ServeCounters counters1 = serving->server->counters();
  const xar::MatchIndexStats match1 = serving->system->match_stats();
  const auto search_hist = xar::serve::LatencyHistogram::Delta(
      serving->server->verb_histogram(Verb::kSearch).Take(), search_hist0);
  const auto book_hist = xar::serve::LatencyHistogram::Delta(
      serving->server->verb_histogram(book_verb).Take(), book_hist0);
  out->attempted = kProbes + warm.attempted() + fixed.attempted();
  out->failed = warm.failed() + fixed.failed();

  // --- Gates on the fixed-rate instance. ----------------------------------
  const std::vector<double> eta_drift_s = CheckServeLedger(*serving, out);
  // serve_look: how far the ETA a SEARCH row quoted was from the pickup ETA
  // its BOOK confirmed. serve_book (no quote on the wire): how far each
  // confirmed pickup ETA moved by the end of the run as later bookings
  // spliced into the same ride.
  std::vector<double> eta_error_s = eta_drift_s;
  if (look) {
    eta_error_s.clear();
    for (const LandedBooking& b : fixed.landed) {
      eta_error_s.push_back(std::fabs(b.pickup_eta_s - b.quoted_eta_s));
    }
  }
  // Client side, from due time (serve_book's searches: the probes' round
  // trips on the idle server).
  const LatencySummary client_search =
      Summarize(look ? fixed.search.latency_us : probes.wire_us);
  const LatencySummary client_book = Summarize(fixed.book.latency_us);
  const double drift = BookedDrift(fixed.booking_outcomes);
  if (!look && std::fabs(drift) > kMaxBookedDrift) {
    out->Fail("booked_frac drifted by " + std::to_string(drift) +
              " between the first and last fifth of the run");
  }
  const std::vector<double> lag = Sorted(fixed.lag_us);
  {
    char line[320];
    std::snprintf(
        line, sizeof(line),
        "fixed %.0f rps x %.0f s, client side: %s n=%zu p50 %.1f us "
        "p99 %.1f us (highest supported p%.2f = %.1f us); %s n=%zu p50 "
        "%.1f us p99 %.1f us (p%.2f = %.1f us)",
        config.fixed_rate_rps, args.seconds,
        look ? "SEARCH" : "idle SEARCH probes", client_search.count,
        client_search.p50_us, client_search.p99_us,
        client_search.tail_q * 100, client_search.tail_us,
        look ? "BOOK" : "SEARCH_AND_BOOK", client_book.count,
        client_book.p50_us, client_book.p99_us, client_book.tail_q * 100,
        client_book.tail_us);
    out->notes.push_back(line);
    std::snprintf(line, sizeof(line),
                  "fixed phase: attempted %llu failed %llu (busy %llu, "
                  "transport errors %llu); books skipped (no match) %llu; "
                  "booked share drift first-last fifth %.4f; generator lag "
                  "p99 %.1f us; server p50 %.0f us",
                  static_cast<unsigned long long>(fixed.attempted()),
                  static_cast<unsigned long long>(fixed.failed()),
                  static_cast<unsigned long long>(fixed.busy),
                  static_cast<unsigned long long>(fixed.transport_errors),
                  static_cast<unsigned long long>(fixed.books_skipped), drift,
                  Percentile(lag, 0.99),
                  (look ? search_hist : book_hist).PercentileUs(0.5));
    out->notes.push_back(line);
  }

  // --- Capacity ladder (traced runs): every rung on a fresh instance, so a
  // rung's result does not depend on the rungs probed before it. ----------
  double capacity_rps = 0.0;
  if (args.trace && out->correct) {
    auto rung_passes = [&](double rate) {
      serving.reset();
      serving = StartServing(in, nullptr, &error);
      if (serving == nullptr) {
        out->Fail(error);
        return false;
      }
      const PhaseResult phase = Drive(*serving, config, in, rate, kRungSeconds,
                                      &next_template, &next_rider);
      CheckServeLedger(*serving, out);
      const std::vector<double> lat =
          Sorted((look ? phase.search : phase.book).latency_us);
      const RungResult rung{rate, phase.sent, phase.failed(), phase.backlog,
                            Percentile(lat, 0.99)};
      const bool passes = RungPasses(rung, config.limit_us, kConnections);
      char line[160];
      std::snprintf(line, sizeof(line),
                    "ladder %.0f rps: sent %zu failed %zu backlog %zu p50 %.0f "
                    "us p99 %.0f us -> %s",
                    rate, rung.sent, rung.failed, rung.backlog,
                    Percentile(lat, 0.5), rung.p99_us,
                    passes ? "pass" : "fail");
      out->notes.push_back(line);
      return passes;
    };
    capacity_rps = BisectCapacity(config.ladder_rps, rung_passes);
  }
  if (!out->correct) return;

  // --- In-process replay of the same stream (sim_req_per_s, xar.*). ------
  // The serving instance is torn down first; the replay system gets the
  // same world, fleet and request stream, without sockets.
  const std::size_t warm_count =
      look ? warm.search.attempted : warm.book.attempted;
  const std::size_t replay_count =
      std::min<std::size_t>(config.replay_requests,
                            look ? fixed.search.attempted
                                 : fixed.book.attempted);
  serving.reset();
  const World& world = *in.world;
  // One replay: a fresh system, the warm-up stream untimed, then the
  // measured stream. With a tracer, the system routes through it and the
  // measured stream records spans (population and warm-up do not).
  xar::RetryStats retry;
  auto replay = [&](TracingOracle* tracer, SpanRecorder* recorder) {
    xar::DistanceOracle& oracle =
        tracer != nullptr ? static_cast<xar::DistanceOracle&>(*tracer)
                          : *world.oracle;
    xar::ConcurrentXarSystem system(world.graph, *world.spatial,
                                    *world.region, oracle, xar::XarOptions{},
                                    kShards);
    if (!Populate(system, in.fleet)) {
      out->Fail("CreateRide failed during replay population");
      return ReplayResult{};
    }
    Replay(system, config.mix, in.templates, warm_template, warm_rider,
           warm_count, nullptr);
    const xar::RetryStats before = system.retry_stats();
    if (tracer != nullptr) tracer->set_recorder(recorder);
    ReplayResult r = Replay(system, config.mix, in.templates, fixed_template,
                            fixed_rider, replay_count, recorder);
    if (tracer != nullptr) tracer->set_recorder(nullptr);
    retry = RetryDelta(system.retry_stats(), before);
    return r;
  };
  const ReplayResult untraced = replay(nullptr, nullptr);
  if (!out->correct) return;
  // In process, one request at a time (serve_book's searches: the probes'
  // in-process SearchTopK calls).
  const LatencySummary search =
      Summarize(look ? untraced.search_us : probes.local_us);
  const LatencySummary book = Summarize(untraced.book_us);
  {
    char line[240];
    std::snprintf(line, sizeof(line),
                  "in process: search n=%zu p50 %.1f us p99 %.1f us; %s n=%zu "
                  "p50 %.1f us p99 %.1f us; %.0f requests/s",
                  search.count, search.p50_us, search.p99_us,
                  look ? "BOOK" : "SEARCH_AND_BOOK", book.count, book.p50_us,
                  book.p99_us,
                  static_cast<double>(untraced.requests) / untraced.wall_s);
    out->notes.push_back(line);
  }
  for (const LatencySummary* summary :
       {&client_search, &client_book, &search, &book}) {
    if (!summary->p99_supported()) {
      out->Fail("too few samples for a p99 (" +
                std::to_string(summary->count) + ")");
      return;
    }
  }

  if (!args.trace) {
    std::vector<double> fixed_detours;
    for (const LandedBooking& b : fixed.landed) {
      fixed_detours.push_back(b.detour_m);
    }
    out->Add("setup_s", Median(setup_s), "s");
    out->Add("rss_mb", PeakRssMb(), "MB");
    out->Add("search_p50_us", search.p50_us, "us");
    out->Add("book_p50_us", book.p50_us, "us");
    out->Add("booked_frac",
             Share(static_cast<double>(fixed.book.ok),
                   static_cast<double>(fixed.book.ok + fixed.book.not_booked)),
             "frac");
    out->Add("detour_m", Mean(fixed_detours), "m");
    out->Add("eta_error_s", Mean(eta_error_s), "s");
    out->Add("sim_req_per_s",
             static_cast<double>(untraced.requests) / untraced.wall_s, "1/s");
    return;
  }

  // --- Traced replay: same stream, oracle decorator + span recorder,
  // bracketed by the untraced replay above and a second one after it. ----
  SpanRecorder recorder(kSpanCapacity);
  TracingOracle tracer(*world.oracle, nullptr);
  const std::size_t comp0 = world.oracle->computation_count();
  const std::size_t hits0 = world.oracle->cache_hit_count();
  const std::size_t settled0 = world.oracle->settled_count();
  const ReplayResult traced = replay(&tracer, &recorder);
  const OracleDeltas oracle_deltas{world.oracle->computation_count() - comp0,
                                   world.oracle->cache_hit_count() - hits0,
                                   world.oracle->settled_count() - settled0};
  const xar::RetryStats traced_retry = retry;
  const ReplayResult untraced_after = replay(nullptr, nullptr);
  if (!out->correct) return;
  const std::vector<Span> spans = recorder.Spans();
  const double untraced_wall_s =
      0.5 * (untraced.wall_s + untraced_after.wall_s);

  out->Add("search_p99_us", search.p99_us, "us");
  out->Add("book_p99_us", book.p99_us, "us");
  out->Add("capacity_rps", capacity_rps, "1/s");
  out->Add("serve.search_client_p50_us", client_search.p50_us, "us");
  out->Add("serve.search_client_p99_us", client_search.p99_us, "us");
  out->Add("serve.book_client_p50_us", client_book.p50_us, "us");
  out->Add("serve.book_client_p99_us", client_book.p99_us, "us");
  out->Add("serve.search_server_p50_us", search_hist.PercentileUs(0.5), "us");
  out->Add("serve.book_server_p50_us", book_hist.PercentileUs(0.5), "us");
  out->Add("serve.wire_p50_us",
           look ? client_search.p50_us - search_hist.PercentileUs(0.5)
                : client_book.p50_us - book_hist.PercentileUs(0.5),
           "us");
  out->Add("serve.shed_frac",
           Share(static_cast<double>(counters1.shed - counters0.shed),
                 static_cast<double>(fixed.sent)),
           "frac");
  out->Add("serve.queue_highwater",
           static_cast<double>(counters1.queue_highwater), "count");
  out->Add("gen.lag_p99_us", Percentile(lag, 0.99), "us");

  OpCounts counts;
  counts.requests = static_cast<double>(traced.requests);
  counts.bookings = static_cast<double>(traced.landed);
  // serve_look books with explicit BOOK calls; inside SearchAndBook every
  // landed booking and every candidate Book rejected was an attempt.
  counts.book_attempts =
      look ? static_cast<double>(traced.book_calls)
           : static_cast<double>(traced.landed +
                                 traced_retry.stale_rejections);
  AddXarOracleMetrics(spans, OpSpanNames{"xar.search", "xar.book", "xar.sab"},
                      counts, traced_retry, oracle_deltas, /*cutoff_ns=*/0,
                      out);
  AddMatchMetrics(match0, match1, out);

  out->Add("setup.ch_build_ms", Median(ch_ms), "ms");
  out->Add("setup.region_build_ms", Median(region_ms), "ms");
  out->Add("setup.populate_ms", Median(populate_ms), "ms");
  const double overhead = traced.wall_s / untraced_wall_s - 1.0;
  out->Add("trace.overhead_frac", overhead, "frac");
  out->Add("trace.spans", static_cast<double>(spans.size()), "count");
  out->Add("trace.dropped_spans", static_cast<double>(recorder.dropped()),
           "count");
  char line[200];
  std::snprintf(line, sizeof(line),
                "in-process replay of %llu requests: untraced %.3f s and "
                "%.3f s, traced %.3f s (tracing overhead %.1f%%)",
                static_cast<unsigned long long>(untraced.requests),
                untraced.wall_s, untraced_after.wall_s, traced.wall_s,
                100.0 * overhead);
  out->notes.push_back(line);
  if (!args.trace_out.empty() && !recorder.WriteCsv(args.trace_out)) {
    out->Fail("cannot write span buffer to " + args.trace_out);
  }
}

}  // namespace perfbench
