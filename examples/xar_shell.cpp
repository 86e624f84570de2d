// Interactive XAR shell: builds a city + discretization, then reads protocol
// commands from stdin (one per line) and prints responses — the quickest way
// to poke at the system by hand. `HELP` lists the commands; EOF exits.
//
// Example session:
//   CREATE 40.7100 -74.0150 40.7550 -73.9700 28800
//   SEARCH 1 40.7250 -74.0000 40.7450 -73.9800 28800 30600
//   BOOK 1 0
//   STATS

#include <cstdio>
#include <cstdlib>
#include <string>

#include "xar/command_server.h"
#include "xar/xar.h"

int main() {
  using namespace xar;
  CityOptions copt;
  copt.rows = 24;
  copt.cols = 24;
  RoadGraph graph = GenerateCity(copt);
  SpatialNodeIndex spatial(graph);
  DiscretizationOptions dopt;
  dopt.landmarks.num_candidates = 400;
  RegionIndex region = RegionIndex::Build(graph, spatial, dopt);

  // XAR_ROUTING_BACKEND / XAR_ORACLE_CACHE / XAR_PREPROCESS_THREADS
  // override the defaults; a typo in any of them is a hard error, not a
  // silent fall-through to the default.
  XarOptions options;
  if (Status status = ApplyEnvOverrides(&options); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  GraphOracle oracle(graph, /*cache_capacity=*/1 << 16,
                     options.routing_backend, options.BackendOptions(),
                     options.oracle_cache);
  XarSystem xar(graph, spatial, region, oracle, options);
  CommandServer server(xar);

  const BoundingBox& b = graph.bounds();
  std::printf("XAR shell — city bounds lat [%.4f, %.4f], lng [%.4f, %.4f]\n",
              b.min_lat, b.max_lat, b.min_lng, b.max_lng);
  std::printf("%zu clusters, epsilon %.0f m, %s routing, %s cache. "
              "Type HELP for commands.\n",
              region.NumClusters(), region.epsilon(), oracle.backend_name(),
              oracle.cache_policy_name());

  char line[512];
  while (true) {
    std::printf("xar> ");
    std::fflush(stdout);
    if (std::fgets(line, sizeof(line), stdin) == nullptr) break;
    std::string cmd(line);
    if (cmd == "QUIT\n" || cmd == "quit\n") break;
    std::printf("%s\n", server.Execute(cmd).c_str());
  }
  return 0;
}
