#ifndef XAR_BENCH_BENCH_COMMON_H_
#define XAR_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "graph/generator.h"
#include "workload/taxi_trip.h"
#include "workload/trip_generator.h"
#include "xar/world.h"

namespace xar {
namespace bench {

/// Scale factor for all figure benches: 1.0 reproduces the default (quick)
/// configuration; export XAR_BENCH_SCALE=4 for a longer, closer-to-paper
/// run. Every bench prints the scale it ran at.
inline double BenchScale() {
  const char* env = std::getenv("XAR_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  double v = std::atof(env);
  return v > 0 ? v : 1.0;
}

struct BenchWorldOptions {
  std::size_t city_rows = 28;
  std::size_t city_cols = 28;
  double delta_m = 250.0;  ///< epsilon = 4*delta = 1 km (paper default)
  std::size_t num_trips = 12000;
  std::size_t landmark_candidates = 500;
  std::uint64_t seed = 42;
};

/// The shared experimental substrate: one synthetic city with its World
/// stack (paper defaults: 100 m grids, ε = 4δ = 1 km; XarOptions' default
/// routing) and an NYC-like trip workload.
struct BenchWorld : World {
  explicit BenchWorld(const BenchWorldOptions& opt)
      : World(GenerateCity({.rows = opt.city_rows,
                            .cols = opt.city_cols,
                            .seed = opt.seed}),
              {.delta_m = opt.delta_m,
               .landmarks = {.num_candidates = opt.landmark_candidates,
                             .seed = opt.seed + 1}}),
        trips(GenerateTrips(graph.bounds(), {.num_trips = opt.num_trips,
                                             .seed = opt.seed + 2})) {}

  std::vector<TaxiTrip> trips;
};

/// Splits a time-sorted trip stream into (offers, requests) by interleaving
/// (every `stride`-th trip becomes an offer), so both sides cover the same
/// hours of the day — a prefix/suffix split would leave them temporally
/// disjoint and no matches would ever form.
inline void SplitTrips(const std::vector<TaxiTrip>& trips, std::size_t stride,
                       std::vector<TaxiTrip>* offers,
                       std::vector<TaxiTrip>* requests) {
  offers->clear();
  requests->clear();
  for (std::size_t i = 0; i < trips.size(); ++i) {
    if (i % stride == 0) {
      offers->push_back(trips[i]);
    } else {
      requests->push_back(trips[i]);
    }
  }
}

inline void PrintHeader(const char* figure, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("(XAR reproduction; synthetic city + NYC-like workload, scale %.1fx)\n",
              BenchScale());
  std::printf("==============================================================\n");
}

}  // namespace bench
}  // namespace xar

#endif  // XAR_BENCH_BENCH_COMMON_H_
