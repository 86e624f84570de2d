// Google-benchmark microbenchmarks for the core operations and the design
// ablations called out in DESIGN.md §4: routing engines, grid mapping,
// cluster-list maintenance, ETA-range probes vs linear scan, and the oracle
// CLOCK cache.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "discretize/kcenter.h"
#include "graph/alt.h"
#include "graph/contraction_hierarchy.h"
#include "graph/dijkstra.h"
#include "tshare/tshare_system.h"
#include "match/cluster_ride_list.h"
#include "xar/xar_system.h"

namespace xar {
namespace {

/// World shared across all microbenchmarks (built once).
bench::BenchWorld& World() {
  static bench::BenchWorld* world = new bench::BenchWorld({.num_trips = 4000});
  return *world;
}

NodeId RandomNode(Rng& rng) {
  return NodeId(static_cast<NodeId::underlying_type>(
      rng.NextIndex(World().graph.NumNodes())));
}

// --- Routing engines -------------------------------------------------------

void BM_DijkstraPointToPoint(benchmark::State& state) {
  DijkstraEngine engine(World().graph);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.Distance(RandomNode(rng), RandomNode(rng),
                        Metric::kDriveDistance));
  }
}
BENCHMARK(BM_DijkstraPointToPoint);

void BM_ChPointToPoint(benchmark::State& state) {
  static ContractionHierarchy* engine =
      new ContractionHierarchy(World().graph);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->Distance(RandomNode(rng),
                                              RandomNode(rng)));
  }
}
BENCHMARK(BM_ChPointToPoint);

void BM_AltPointToPoint(benchmark::State& state) {
  static AltEngine* engine = new AltEngine(World().graph, 8);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->Distance(RandomNode(rng),
                                              RandomNode(rng)));
  }
}
BENCHMARK(BM_AltPointToPoint);

// Ablation: oracle CLOCK cache on/off (booking-path workload repeats pairs).
void BM_OracleCached(benchmark::State& state) {
  GraphOracle oracle(World().graph, /*cache_capacity=*/1 << 16);
  Rng rng(1);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 64; ++i) pairs.emplace_back(RandomNode(rng), RandomNode(rng));
  std::size_t i = 0;
  for (auto _ : state) {
    auto [a, b] = pairs[i++ % pairs.size()];
    benchmark::DoNotOptimize(oracle.DriveDistance(a, b));
  }
}
BENCHMARK(BM_OracleCached);

void BM_OracleUncached(benchmark::State& state) {
  GraphOracle oracle(World().graph, /*cache_capacity=*/0);
  Rng rng(1);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 64; ++i) pairs.emplace_back(RandomNode(rng), RandomNode(rng));
  std::size_t i = 0;
  for (auto _ : state) {
    auto [a, b] = pairs[i++ % pairs.size()];
    benchmark::DoNotOptimize(oracle.DriveDistance(a, b));
  }
}
BENCHMARK(BM_OracleUncached);

// --- Discretization primitives ----------------------------------------------

void BM_GridOfPoint(benchmark::State& state) {
  const RegionIndex& region = *World().region;
  Rng rng(2);
  const BoundingBox& b = World().graph.bounds();
  for (auto _ : state) {
    LatLng p{rng.Uniform(b.min_lat, b.max_lat),
             rng.Uniform(b.min_lng, b.max_lng)};
    benchmark::DoNotOptimize(region.GridOfPoint(p));
  }
}
BENCHMARK(BM_GridOfPoint);

void BM_ClusterOfPoint(benchmark::State& state) {
  const RegionIndex& region = *World().region;
  Rng rng(2);
  const BoundingBox& b = World().graph.bounds();
  for (auto _ : state) {
    LatLng p{rng.Uniform(b.min_lat, b.max_lat),
             rng.Uniform(b.min_lng, b.max_lng)};
    benchmark::DoNotOptimize(region.ClusterOfPoint(p));
  }
}
BENCHMARK(BM_ClusterOfPoint);

void BM_GreedyKCenter(benchmark::State& state) {
  const DistanceMatrix& metric = World().region->landmark_metric();
  std::size_t k = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedyKCenter(metric, k));
  }
}
BENCHMARK(BM_GreedyKCenter)->Arg(8)->Arg(64);

// --- Cluster ride lists ------------------------------------------------------

ClusterRideList MakeList(std::size_t n) {
  ClusterRideList list;
  Rng rng(3);
  for (std::size_t i = 0; i < n; ++i) {
    list.Insert(RideId(static_cast<RideId::underlying_type>(i)),
                rng.Uniform(0, 86400));
  }
  return list;
}

// One list entry's lifetime: insert at a key, then erase by that key (the
// list keeps its size across iterations).
void BM_ClusterListInsertErase(benchmark::State& state) {
  ClusterRideList list = MakeList(static_cast<std::size_t>(state.range(0)));
  Rng rng(4);
  std::uint32_t next = 1 << 20;
  for (auto _ : state) {
    const RideId ride(next++);
    const double eta_s = rng.Uniform(0, 86400);
    list.Insert(ride, eta_s);
    benchmark::DoNotOptimize(list.Erase(ride, eta_s));
  }
}
BENCHMARK(BM_ClusterListInsertErase)->Arg(1000)->Arg(10000);

// A booking's re-key of one entry: its ETA moves by about 3 ranks, to the
// right then back (the list keeps its keys across iterations).
void BM_ClusterListMove(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ClusterRideList list = MakeList(n);
  const PotentialRide entry = list.EtaRange(0, 86400)[n / 2];
  // MakeList's ETAs are uniform over a day: 3 ranks is 3/n of it.
  const double moved_s = entry.eta_s + 3.0 * 86400.0 / static_cast<double>(n);
  bool out = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(out ? list.Move(entry.ride, entry.eta_s, moved_s)
                                 : list.Move(entry.ride, moved_s, entry.eta_s));
    out = !out;
  }
}
BENCHMARK(BM_ClusterListMove)->Arg(1000)->Arg(10000);

// Ablation: binary-searched ETA range vs linear scan of an unsorted list.
void BM_EtaRangeSorted(benchmark::State& state) {
  ClusterRideList list = MakeList(static_cast<std::size_t>(state.range(0)));
  Rng rng(5);
  for (auto _ : state) {
    double t = rng.Uniform(0, 86400 - 900);
    benchmark::DoNotOptimize(list.EtaRange(t, t + 900));
  }
}
BENCHMARK(BM_EtaRangeSorted)->Arg(1000)->Arg(10000);

void BM_EtaRangeLinearScanBaseline(benchmark::State& state) {
  std::vector<PotentialRide> flat;
  Rng rng(3);
  for (std::size_t i = 0; i < static_cast<std::size_t>(state.range(0)); ++i) {
    flat.push_back(PotentialRide{
        RideId(static_cast<RideId::underlying_type>(i)),
        rng.Uniform(0, 86400)});
  }
  Rng probe(5);
  for (auto _ : state) {
    double t = probe.Uniform(0, 86400 - 900);
    std::size_t hits = 0;
    for (const PotentialRide& pr : flat) {
      if (pr.eta_s >= t && pr.eta_s <= t + 900) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_EtaRangeLinearScanBaseline)->Arg(1000)->Arg(10000);

// --- End-to-end operations ----------------------------------------------------

struct LoadedSystems {
  GraphOracle xar_oracle{World().graph};
  GraphOracle ts_oracle{World().graph};
  XarSystem xar{World().graph, *World().spatial, *World().region, xar_oracle};
  TShareSystem tshare{World().graph, *World().spatial, ts_oracle};

  LoadedSystems() {
    for (const TaxiTrip& t : World().trips) {
      RideOffer offer;
      offer.source = t.pickup;
      offer.destination = t.dropoff;
      offer.departure_time_s = t.pickup_time_s;
      (void)xar.CreateRide(offer);
      (void)tshare.CreateRide(offer);
    }
  }
};

LoadedSystems& Systems() {
  static LoadedSystems* s = new LoadedSystems();
  return *s;
}

RideRequest RandomRequest(Rng& rng) {
  const std::vector<TaxiTrip>& trips = World().trips;
  const TaxiTrip& t = trips[rng.NextIndex(trips.size())];
  RideRequest req;
  req.id = t.id;
  req.source = t.pickup;
  req.destination = t.dropoff;
  req.earliest_departure_s = t.pickup_time_s;
  req.latest_departure_s = t.pickup_time_s + 900;
  return req;
}

void BM_XarSearch(benchmark::State& state) {
  LoadedSystems& systems = Systems();  // construct outside the timing loop
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(systems.xar.Search(RandomRequest(rng)));
  }
}
BENCHMARK(BM_XarSearch);

void BM_TShareSearchAll(benchmark::State& state) {
  LoadedSystems& systems = Systems();
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(systems.tshare.Search(RandomRequest(rng), 0));
  }
}
BENCHMARK(BM_TShareSearchAll);

void BM_XarCreateRide(benchmark::State& state) {
  GraphOracle oracle(World().graph);
  XarSystem xar(World().graph, *World().spatial, *World().region, oracle);
  Rng rng(8);
  const std::vector<TaxiTrip>& trips = World().trips;
  for (auto _ : state) {
    const TaxiTrip& t = trips[rng.NextIndex(trips.size())];
    RideOffer offer;
    offer.source = t.pickup;
    offer.destination = t.dropoff;
    offer.departure_time_s = t.pickup_time_s;
    benchmark::DoNotOptimize(xar.CreateRide(offer));
  }
}
BENCHMARK(BM_XarCreateRide);

}  // namespace
}  // namespace xar

BENCHMARK_MAIN();
