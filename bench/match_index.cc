// The cluster match index benched on the index layer alone: rides are
// created once through a host XarSystem (route planning paid once, outside
// all timed sections), then a standalone MatchIndex is built from that ride
// set and probed with one request stream.
//
// Three density regimes (sparse / medium / dense active-ride counts); per
// point: index build time (bulk Insert), MemoryFootprint(), search QPS,
// candidates per search and the empty-search fraction. Emits a table and
// BENCH_match_index.json (see bench/README.md).

#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/clock.h"
#include "match/match_index.h"
#include "xar/xar_system.h"

namespace xar {
namespace bench {
namespace {

/// Resolves candidate ids against the host system's ride table, exactly as
/// XarSystem's own RideTable does on the production path.
class HostRideTable final : public RideLookup {
 public:
  explicit HostRideTable(const XarSystem* host) : host_(host) {}
  const Ride* Find(RideId id) const override { return host_->GetRide(id); }
  RideSlots Slots() const override {
    return RideSlots{host_->options().ride_id_offset,
                     host_->options().ride_id_stride, host_->NumRides()};
  }

 private:
  const XarSystem* host_;
};

struct RegimePoint {
  std::size_t rides;
  double build_ms;
  std::size_t bytes;
  double search_qps;
  double candidates_per_search;
  double empty_fraction;
};

MatchTuning MakeTuning(const XarOptions& opt) {
  MatchTuning tuning;
  tuning.walk_limit_m = opt.default_walk_limit_m;
  tuning.eta_window_slack_s = opt.eta_window_slack_s;
  tuning.max_onboard_s = opt.max_onboard_s;
  tuning.per_ride = 1;
  tuning.max_results = 0;
  return tuning;
}

RegimePoint BenchIndex(const XarSystem& host, const std::vector<RideId>& rides,
                       const std::vector<RideRequest>& requests,
                       const BenchWorld& world) {
  MatchIndex index(host.snapshot(), world.graph);

  Stopwatch build;
  for (RideId id : rides) index.Insert(*host.GetRide(id), host.Now());
  const double build_ms = build.ElapsedMillis();

  HostRideTable lookup(&host);
  std::size_t total_candidates = 0;
  std::size_t empty = 0;
  Stopwatch search;
  const MatchTuning tuning = MakeTuning(host.options());
  for (const RideRequest& request : requests) {
    std::vector<RideMatch> matches = index.Candidates(request, tuning, lookup);
    total_candidates += matches.size();
    if (matches.empty()) ++empty;
  }
  const double search_s = search.ElapsedSeconds();

  RegimePoint point;
  point.rides = rides.size();
  point.build_ms = build_ms;
  point.bytes = index.MemoryFootprint();
  point.search_qps =
      search_s > 0 ? static_cast<double>(requests.size()) / search_s : 0.0;
  point.candidates_per_search =
      requests.empty()
          ? 0.0
          : static_cast<double>(total_candidates) / requests.size();
  point.empty_fraction =
      requests.empty() ? 0.0
                       : static_cast<double>(empty) / requests.size();
  return point;
}

}  // namespace
}  // namespace bench
}  // namespace xar

int main() {
  using namespace xar;
  using namespace xar::bench;

  const double scale = BenchScale();
  PrintHeader("BENCH match_index",
              "cluster index build, size and search at three densities");

  const unsigned host_cores = std::thread::hardware_concurrency();
  if (host_cores <= 1) {
    std::fprintf(stderr,
                 "WARNING: host reports %u core(s); QPS numbers time-slice a "
                 "single core.\n",
                 host_cores);
  }

  BenchWorldOptions wopt;
  wopt.num_trips = static_cast<std::size_t>(9000 * scale);
  BenchWorld world(wopt);

  // Density regimes: how many concurrent active rides the index holds while
  // serving the same request stream.
  const std::size_t regimes[] = {
      static_cast<std::size_t>(400 * scale),
      static_cast<std::size_t>(1600 * scale),
      static_cast<std::size_t>(4000 * scale)};
  const std::size_t num_requests = static_cast<std::size_t>(1500 * scale);

  std::vector<TaxiTrip> offer_trips;
  std::vector<TaxiTrip> request_trips;
  SplitTrips(world.trips, /*stride=*/2, &offer_trips, &request_trips);

  std::vector<RideRequest> requests;
  for (std::size_t i = 0; i < request_trips.size() && requests.size() < num_requests; ++i) {
    const TaxiTrip& t = request_trips[i];
    RideRequest req;
    req.id = t.id;
    req.source = t.pickup;
    req.destination = t.dropoff;
    req.earliest_departure_s = t.pickup_time_s;
    req.latest_departure_s = t.pickup_time_s + 1200;
    requests.push_back(req);
  }

  std::printf("%8s %10s %12s %12s %10s %8s\n", "rides", "build_ms", "bytes",
              "search_qps", "cand/srch", "empty%");
  std::vector<RegimePoint> points;
  for (std::size_t num_rides : regimes) {
    // One host per regime: rides are planned once here (oracle cost outside
    // every timed section).
    XarSystem host(world.graph, *world.spatial, *world.region, *world.oracle);
    std::vector<RideId> rides;
    for (std::size_t i = 0; i < offer_trips.size() && rides.size() < num_rides;
         ++i) {
      const TaxiTrip& t = offer_trips[i];
      RideOffer offer;
      offer.source = t.pickup;
      offer.destination = t.dropoff;
      offer.departure_time_s = t.pickup_time_s;
      Result<RideId> id = host.CreateRide(offer);
      if (id.ok()) rides.push_back(id.value());
    }

    RegimePoint p = BenchIndex(host, rides, requests, world);
    std::printf("%8zu %10.1f %12zu %12.0f %10.2f %7.1f%%\n", p.rides,
                p.build_ms, p.bytes, p.search_qps, p.candidates_per_search,
                100.0 * p.empty_fraction);
    points.push_back(p);
  }

  FILE* f = std::fopen("BENCH_match_index.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"match_index\",\n");
    std::fprintf(f, "  \"scale\": %.2f,\n", scale);
    std::fprintf(f, "  \"host_cores\": %u,\n", host_cores);
    if (host_cores <= 1) {
      std::fprintf(f,
                   "  \"warning\": \"1-core host: QPS numbers time-slice a "
                   "single core\",\n");
    }
    std::fprintf(f, "  \"num_requests\": %zu,\n", requests.size());
    std::fprintf(f, "  \"series\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const RegimePoint& p = points[i];
      std::fprintf(f,
                   "    {\"rides\": %zu, "
                   "\"build_ms\": %.2f, \"bytes\": %zu, "
                   "\"search_qps\": %.0f, \"candidates_per_search\": %.2f, "
                   "\"empty_fraction\": %.3f}%s\n",
                   p.rides, p.build_ms, p.bytes, p.search_qps,
                   p.candidates_per_search, p.empty_fraction,
                   i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_match_index.json\n");
  }
  return 0;
}
