// Reproduces Fig. 5a: average time to search k possible matches (k=1..25),
// XAR vs T-Share *with shortest-path calls removed* (haversine distances),
// isolating the indexing cost. Paper result: T-Share search time grows
// roughly linearly with k even without shortest paths; XAR stays flat.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "common/clock.h"
#include "common/stats.h"
#include "common/table.h"
#include "tshare/tshare_system.h"
#include "xar/xar_system.h"

namespace xar {
namespace {

void Run() {
  double scale = bench::BenchScale();
  bench::BenchWorldOptions wopt;
  // A larger city than the other figures: k-match behaviour only separates
  // the systems when a random nearby taxi is NOT trivially feasible for a
  // random destination.
  wopt.city_rows = 40;
  wopt.city_cols = 40;
  wopt.landmark_candidates = 900;
  wopt.num_trips = static_cast<std::size_t>(16000 * scale);
  bench::BenchWorld world(wopt);

  // Dense supply so that large k is meaningful: 2/3 of trips become rides,
  // interleaved with the probing requests so both cover the same hours.
  std::vector<TaxiTrip> offers;
  std::vector<TaxiTrip> probe;
  {
    std::vector<TaxiTrip> rest;
    bench::SplitTrips(world.trips, /*stride=*/3, &probe, &rest);
    offers = std::move(rest);  // 2/3 offers, 1/3 probes
  }
  GraphOracle xar_oracle(world.graph);
  GraphOracle tshare_routing(world.graph);
  HaversineOracle tshare_search(world.graph);  // Fig. 5a variant
  XarSystem xar(world.graph, *world.spatial, *world.region, xar_oracle);
  TShareSystem tshare(world.graph, *world.spatial, tshare_routing, {},
                      &tshare_search);

  for (const TaxiTrip& t : offers) {
    RideOffer offer;
    offer.source = t.pickup;
    offer.destination = t.dropoff;
    offer.departure_time_s = t.pickup_time_s;
    (void)xar.CreateRide(offer);
    (void)tshare.CreateRide(offer);
  }
  const std::vector<TaxiTrip>& requests = probe;

  bench::PrintHeader(
      "Figure 5a",
      "search time vs k matches requested (T-Share without shortest paths)");
  std::printf("rides=%zu probe-requests=%zu\n\n", offers.size(),
              requests.size());

  TextTable table({"k", "XAR_mean_ms", "TShare_mean_ms", "XAR_matches",
                   "TShare_matches"});
  const std::size_t ks[] = {1, 2, 4, 6, 8, 10, 15, 20, 25};
  double xar_first = 0, xar_last = 0, ts_first = 0, ts_last = 0;
  for (std::size_t k : ks) {
    StatAccumulator xar_ms, ts_ms, xar_found, ts_found;
    for (const TaxiTrip& t : requests) {
      RideRequest req;
      req.id = t.id;
      req.source = t.pickup;
      req.destination = t.dropoff;
      req.earliest_departure_s = t.pickup_time_s;
      req.latest_departure_s = t.pickup_time_s + 900;

      Stopwatch w1;
      std::vector<RideMatch> xm = xar.SearchTopK(req, k);
      xar_ms.Add(w1.ElapsedMillis());
      xar_found.Add(static_cast<double>(xm.size()));

      Stopwatch w2;
      std::vector<TShareMatch> tm = tshare.Search(req, k);
      ts_ms.Add(w2.ElapsedMillis());
      ts_found.Add(static_cast<double>(tm.size()));
    }
    if (k == ks[0]) {
      xar_first = xar_ms.mean();
      ts_first = ts_ms.mean();
    }
    xar_last = xar_ms.mean();
    ts_last = ts_ms.mean();
    table.AddRow({std::to_string(k), TextTable::Num(xar_ms.mean(), 4),
                  TextTable::Num(ts_ms.mean(), 4),
                  TextTable::Num(xar_found.mean(), 2),
                  TextTable::Num(ts_found.mean(), 2)});
  }
  table.Print();

  std::printf("\nShape check (paper: T-Share grows ~linearly in k, XAR flat):\n");
  std::printf("  XAR k=25/k=1 time ratio: %.2fx (flat ~1.0)\n",
              xar_last / std::max(1e-9, xar_first));
  std::printf("  T-Share k=25/k=1 time ratio: %.2fx (grows)\n",
              ts_last / std::max(1e-9, ts_first));
}

}  // namespace
}  // namespace xar

int main() {
  xar::Run();
  return 0;
}
