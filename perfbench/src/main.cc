// The XAR benchmark program. One run of one workload:
//
//   xar_perfbench --workload serve_look|serve_book|city_sim --seed N
//                 --seconds S --trace 0|1 [--trace-out spans.csv]
//
// Prints human-readable lines, then, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: every end-to-end
// metric with --trace 0, every per-layer metric with --trace 1. A failed
// correctness gate prints the failures to stderr, no JSON, and exits 1.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Kept in step with BENCHMARK.json (run.py checks the two agree).
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},        {"rss_mb", "MB"},      {"search_p50_us", "us"},
    {"book_p50_us", "us"},   {"booked_frac", "frac"}, {"detour_m", "m"},
    {"eta_error_s", "s"},    {"sim_req_per_s", "1/s"},
};

// The tail latencies, the socket latencies and the capacity ladder come with
// the traced run: on a shared virtual machine their run-to-run spread is far
// wider than any bound an end-to-end metric may carry (see README.md).
const std::vector<MetricSpec> kPerLayer = {
    {"search_p99_us", "us"},
    {"book_p99_us", "us"},
    {"capacity_rps", "1/s"},
    {"serve.search_client_p50_us", "us"},
    {"serve.search_client_p99_us", "us"},
    {"serve.book_client_p50_us", "us"},
    {"serve.book_client_p99_us", "us"},
    {"serve.search_server_p50_us", "us"},
    {"serve.book_server_p50_us", "us"},
    {"serve.wire_p50_us", "us"},
    {"serve.shed_frac", "frac"},
    {"serve.queue_highwater", "count"},
    {"gen.lag_p99_us", "us"},
    {"xar.search_p50_us", "us"},
    {"xar.search_p99_us", "us"},
    {"xar.book_p50_us", "us"},
    {"xar.sab_p50_us", "us"},
    {"xar.sab_p99_us", "us"},
    {"xar.sab_self_p50_us", "us"},
    {"xar.book_attempts_per_booking", "ratio"},
    {"xar.priced_candidates_per_wave", "count"},
    {"xar.priced_kept_frac", "frac"},
    {"match.candidates_per_search", "count"},
    {"match.empty_search_frac", "frac"},
    {"match.index_mb", "MB"},
    {"oracle.matrix_us_per_sab", "us"},
    {"oracle.matrix_calls_per_sab", "count"},
    {"oracle.share_of_sab", "frac"},
    {"oracle.route_us_per_booking", "us"},
    {"oracle.point_us_per_op", "us"},
    {"oracle.cache_hit_rate", "frac"},
    {"oracle.settled_per_computation", "count"},
    {"setup.ch_build_ms", "ms"},
    {"setup.region_build_ms", "ms"},
    {"setup.populate_ms", "ms"},
    {"refresh.wall_p50_ms", "ms"},
    {"refresh.prewarm_ms", "ms"},
    {"refresh.matrix_ms", "ms"},
    {"refresh.rehomed_rides", "count"},
    {"refresh.share_of_wall", "frac"},
    {"sim.sab_p50_us", "us"},
    {"sim.sab_p99_us", "us"},
    {"sim.cancel_p50_us", "us"},
    {"sim.noshow_p50_us", "us"},
    {"sim.self_frac", "frac"},
    {"pooling.insert_accept_frac", "frac"},
    {"trace.overhead_frac", "frac"},
    {"trace.spans", "count"},
    {"trace.dropped_spans", "count"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "xar_perfbench: %s\nusage: xar_perfbench --workload "
               "serve_look|serve_book|city_sim --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               why);
  return 2;
}

/// Orders the workload's metrics as the spec lists them and checks the set:
/// an end-to-end metric must be measured by every workload; a per-layer
/// metric whose layer is not on the workload's path reads 0.
bool Canonicalize(bool trace, RunOutput* out) {
  std::vector<Metric> ordered;
  std::set<std::string> known;
  bool ok = true;
  for (const MetricSpec& spec : trace ? kPerLayer : kEndToEnd) {
    known.insert(spec.name);
    const Metric* found = nullptr;
    for (const Metric& m : out->metrics) {
      if (m.name == spec.name) found = &m;
    }
    if (found == nullptr) {
      if (!trace) {
        std::fprintf(stderr, "internal: end-to-end metric %s not measured\n",
                     spec.name);
        ok = false;
      }
      ordered.push_back({spec.name, 0.0, spec.unit});
    } else if (found->unit != spec.unit) {
      std::fprintf(stderr, "internal: %s has unit %s, spec says %s\n",
                   spec.name, found->unit.c_str(), spec.unit);
      ok = false;
    } else if (!std::isfinite(found->value)) {
      // Only a failed request makes a latency infinite; JSON cannot carry
      // it and the run cannot be scored.
      std::fprintf(stderr, "%s is not finite (requests failed)\n", spec.name);
      ok = false;
    } else {
      ordered.push_back(*found);
    }
  }
  for (const Metric& m : out->metrics) {
    if (known.count(m.name) == 0) {
      std::fprintf(stderr, "internal: unlisted metric %s\n", m.name.c_str());
      ok = false;
    }
  }
  out->metrics = std::move(ordered);
  return ok;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && args.seconds > 0 &&
                     args.seconds <= 600;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }

  RunOutput out;
  if (args.workload == "serve_look" || args.workload == "serve_book") {
    RunServeWorkload(args, &out);
  } else if (args.workload == "city_sim") {
    RunCitySimWorkload(args, &out);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }

  std::printf("workload %s seed %llu seconds %g trace %d nproc %u\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, std::thread::hardware_concurrency());
  for (const std::string& note : out.notes) std::printf("%s\n", note.c_str());
  if (!out.correct) {
    for (const std::string& e : out.errors) {
      std::fprintf(stderr, "GATE FAILED: %s\n", e.c_str());
    }
    return 1;
  }
  if (!Canonicalize(args.trace, &out)) return 1;
  for (const Metric& m : out.metrics) {
    std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
