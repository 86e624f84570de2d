// Reproduces Fig. 4 (a/b/c): average-case time taken by XAR vs T-Share to
// search (all matches), create, and book rides, as latency percentiles.
//
// Protocol (paper Section X-B.2): rides are created from the earliest trips,
// then requests (pickups 6am-12pm) search both systems for all matches; a
// fraction of matched requests book. T-Share runs with grid size 1000 m
// (equal to the XAR cluster scale) and an 80-grid expansion cap.

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

void PrintPercentiles(TextTable* table, const char* op, const char* system,
                      const PercentileTracker& t) {
  if (t.count() == 0) return;
  table->AddRow({op, system, std::to_string(t.count()),
                 TextTable::Num(t.mean(), 3), TextTable::Num(t.Percentile(50), 3),
                 TextTable::Num(t.Percentile(90), 3),
                 TextTable::Num(t.Percentile(95), 3),
                 TextTable::Num(t.Percentile(99), 3),
                 TextTable::Num(t.max(), 3)});
}

void Run() {
  double scale = bench::BenchScale();
  bench::BenchWorldOptions wopt;
  wopt.num_trips = static_cast<std::size_t>(12000 * scale);
  bench::BenchWorld world(wopt);

  // 6am-12pm subset, as in the paper's Fig. 4 setup.
  std::vector<TaxiTrip> window =
      FilterByTimeWindow(world.trips, 6 * 3600.0, 12 * 3600.0);
  std::vector<TaxiTrip> offers;
  std::vector<TaxiTrip> requests;
  bench::SplitTrips(window, /*stride=*/4, &offers, &requests);  // 1:3

  GraphOracle xar_oracle(world.graph);
  GraphOracle tshare_oracle(world.graph);
  XarSystem xar(world.graph, *world.spatial, *world.region, xar_oracle);
  TShareSystem tshare(world.graph, *world.spatial, tshare_oracle);

  PercentileTracker xar_create, ts_create, xar_search, ts_search, xar_book,
      ts_book;

  // --- Create rides (Fig. 4b) ---------------------------------------------
  for (const TaxiTrip& t : offers) {
    RideOffer offer;
    offer.source = t.pickup;
    offer.destination = t.dropoff;
    offer.departure_time_s = t.pickup_time_s;
    Stopwatch w1;
    (void)xar.CreateRide(offer);
    xar_create.Add(w1.ElapsedMillis());
    Stopwatch w2;
    (void)tshare.CreateRide(offer);
    ts_create.Add(w2.ElapsedMillis());
  }

  // --- Search all matches (Fig. 4a) + book a fraction (Fig. 4c) -----------
  std::size_t booked = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const TaxiTrip& t = requests[i];
    RideRequest req;
    req.id = t.id;
    req.source = t.pickup;
    req.destination = t.dropoff;
    req.earliest_departure_s = t.pickup_time_s;
    req.latest_departure_s = t.pickup_time_s + 900;

    Stopwatch w1;
    std::vector<RideMatch> xm = xar.Search(req);
    xar_search.Add(w1.ElapsedMillis());

    Stopwatch w2;
    std::vector<TShareMatch> tm = tshare.Search(req, /*k=*/0);
    ts_search.Add(w2.ElapsedMillis());

    // Book every other matched request on each system (keeps some supply
    // unconsumed so later searches still see candidates).
    if (i % 2 == 0) {
      if (!xm.empty()) {
        Stopwatch wb;
        if (xar.Book(xm.front().ride, req, xm.front()).ok()) ++booked;
        xar_book.Add(wb.ElapsedMillis());
      }
      if (!tm.empty()) {
        Stopwatch wb;
        (void)tshare.Book(tm.front().ride, req, tm.front());
        ts_book.Add(wb.ElapsedMillis());
      }
    }
  }

  bench::PrintHeader("Figure 4",
                     "XAR vs T-Share: search / create / book latency (ms)");
  std::printf("rides=%zu requests=%zu booked(XAR)=%zu  T-Share grid=1000m cap=80\n\n",
              offers.size(), requests.size(), booked);
  TextTable table({"op", "system", "n", "mean_ms", "p50_ms", "p90_ms",
                   "p95_ms", "p99_ms", "max_ms"});
  PrintPercentiles(&table, "search-all", "XAR", xar_search);
  PrintPercentiles(&table, "search-all", "T-Share", ts_search);
  PrintPercentiles(&table, "create", "XAR", xar_create);
  PrintPercentiles(&table, "create", "T-Share", ts_create);
  PrintPercentiles(&table, "book", "XAR", xar_book);
  PrintPercentiles(&table, "book", "T-Share", ts_book);
  table.Print();

  double speedup = ts_search.mean() / std::max(1e-9, xar_search.mean());
  std::printf("\nShape check (paper: XAR search >> faster; create/book same order):\n");
  std::printf("  search mean speedup XAR over T-Share: %.1fx %s\n", speedup,
              speedup > 5 ? "[OK]" : "[UNEXPECTED]");
  std::printf("  T-Share search shortest-path computations: %zu\n",
              tshare.search_sp_count());
}

}  // namespace
}  // namespace xar

int main() {
  xar::Run();
  return 0;
}
