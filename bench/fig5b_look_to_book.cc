// Reproduces Fig. 5b: total time to process r searches followed by one
// booking ("look-to-book ratio r"), XAR vs T-Share, r = 1..1000.
// Paper result: T-Share is competitive at r=1 (its booking is cheaper), but
// XAR wins increasingly as r grows — at r=1000 the paper sees ~42s vs ~1s.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "common/clock.h"
#include "common/table.h"
#include "tshare/tshare_system.h"
#include "xar/xar_system.h"

namespace xar {
namespace {

void Run() {
  double scale = bench::BenchScale();
  bench::BenchWorldOptions wopt;
  wopt.num_trips = static_cast<std::size_t>(16000 * scale);
  bench::BenchWorld world(wopt);

  std::vector<TaxiTrip> offers;
  std::vector<TaxiTrip> requests;
  bench::SplitTrips(world.trips, /*stride=*/2, &offers, &requests);
  GraphOracle xar_oracle(world.graph);
  GraphOracle tshare_oracle(world.graph);
  XarSystem xar(world.graph, *world.spatial, *world.region, xar_oracle);
  TShareSystem tshare(world.graph, *world.spatial, tshare_oracle);

  for (const TaxiTrip& t : offers) {
    RideOffer offer;
    offer.source = t.pickup;
    offer.destination = t.dropoff;
    offer.departure_time_s = t.pickup_time_s;
    (void)xar.CreateRide(offer);
    (void)tshare.CreateRide(offer);
  }

  bench::PrintHeader("Figure 5b",
                     "total time for r searches + 1 booking vs r");
  std::printf("rides=%zu request-pool=%zu\n\n", offers.size(),
              requests.size());

  TextTable table({"r", "XAR_total_ms", "TShare_total_ms", "ratio_TS/XAR"});
  const std::size_t ratios[] = {1, 5, 10, 50, 100, 500, 1000};
  std::size_t cursor = 0;
  auto next_request = [&]() -> RideRequest {
    const TaxiTrip& t = requests[cursor++ % requests.size()];
    RideRequest req;
    req.id = t.id;
    req.source = t.pickup;
    req.destination = t.dropoff;
    req.earliest_departure_s = t.pickup_time_s;
    req.latest_departure_s = t.pickup_time_s + 900;
    return req;
  };

  const std::size_t kTrials = 5;
  for (std::size_t r : ratios) {
    double xar_total = 0.0;
    double ts_total = 0.0;
    for (std::size_t trial = 0; trial < kTrials; ++trial) {
      // XAR: r searches, then book the last searched request's best match.
      std::size_t mark = cursor;
      Stopwatch xw;
      std::vector<RideMatch> xm;
      RideRequest xr;
      for (std::size_t i = 0; i < r; ++i) {
        xr = next_request();
        xm = xar.Search(xr);
      }
      if (!xm.empty()) (void)xar.Book(xm.front().ride, xr, xm.front());
      xar_total += xw.ElapsedMillis();

      // T-Share: the same protocol on the same request subsequence.
      cursor = mark;
      Stopwatch tw;
      std::vector<TShareMatch> tm;
      RideRequest tr;
      for (std::size_t i = 0; i < r; ++i) {
        tr = next_request();
        tm = tshare.Search(tr, 0);
      }
      if (!tm.empty()) (void)tshare.Book(tm.front().ride, tr, tm.front());
      ts_total += tw.ElapsedMillis();
    }
    xar_total /= static_cast<double>(kTrials);
    ts_total /= static_cast<double>(kTrials);
    table.AddRow({std::to_string(r), TextTable::Num(xar_total, 3),
                  TextTable::Num(ts_total, 3),
                  TextTable::Num(ts_total / std::max(1e-9, xar_total), 1)});
  }
  table.Print();
  std::printf(
      "\nShape check (paper: T-Share competitive at r=1; XAR wins for r>1,\n"
      "gap widening with r — ~40x at r=1000 on the paper's testbed).\n");
}

}  // namespace
}  // namespace xar

int main() {
  xar::Run();
  return 0;
}
