// Google-benchmark microbenchmarks for the core operations and the design
// ablations called out in DESIGN.md §4: routing engines, grid mapping,
// cluster-list maintenance, ETA-range probes vs linear scan, candidate
// intersection strategies, and the oracle CLOCK cache.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <unordered_set>
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
  static bench::BenchWorld* world = [] {
    bench::BenchWorldOptions opt;
    opt.num_trips = 4000;
    return new bench::BenchWorld(bench::MakeBenchWorld(opt));
  }();
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
    list.Upsert(RideId(static_cast<RideId::underlying_type>(i)),
                rng.Uniform(0, 86400), rng.Uniform(0, 4000));
  }
  return list;
}

void BM_ClusterListUpsert(benchmark::State& state) {
  ClusterRideList list = MakeList(static_cast<std::size_t>(state.range(0)));
  Rng rng(4);
  std::uint32_t next = 1 << 20;
  for (auto _ : state) {
    list.Upsert(RideId(next++), rng.Uniform(0, 86400), 0.0);
  }
}
BENCHMARK(BM_ClusterListUpsert)->Arg(1000)->Arg(10000);

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
        rng.Uniform(0, 86400), 0.0});
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

// Ablation: sorted-vector intersection vs hash-set intersection of candidate
// ride-id sets (Search Step 2).
std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>>
MakeIdSets(std::size_t n) {
  Rng rng(6);
  std::vector<std::uint32_t> a, b;
  for (std::size_t i = 0; i < n; ++i) {
    a.push_back(static_cast<std::uint32_t>(rng.NextIndex(4 * n)));
    b.push_back(static_cast<std::uint32_t>(rng.NextIndex(4 * n)));
  }
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  std::sort(b.begin(), b.end());
  b.erase(std::unique(b.begin(), b.end()), b.end());
  return {a, b};
}

void BM_IntersectSortedVectors(benchmark::State& state) {
  auto [a, b] = MakeIdSets(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    std::size_t hits = 0;
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i] < b[j]) ++i;
      else if (b[j] < a[i]) ++j;
      else { ++hits; ++i; ++j; }
    }
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_IntersectSortedVectors)->Arg(256)->Arg(4096);

void BM_IntersectHashSet(benchmark::State& state) {
  auto [a, b] = MakeIdSets(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    std::unordered_set<std::uint32_t> set(a.begin(), a.end());
    std::size_t hits = 0;
    for (std::uint32_t x : b) hits += set.count(x);
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_IntersectHashSet)->Arg(256)->Arg(4096);

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
