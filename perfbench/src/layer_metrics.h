#ifndef PERFBENCH_LAYER_METRICS_H_
#define PERFBENCH_LAYER_METRICS_H_

// Per-layer numbers of the xar and oracle layers, computed from a traced
// run's spans plus the counter deltas taken around it. Shared by the serve
// replay and the city sim, which name their operation spans differently.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace.h"
#include "workloads.h"
#include "xar/concurrent_xar.h"

namespace perfbench {

/// Names of the operation spans of one workload (nullptr: not recorded).
struct OpSpanNames {
  const char* search = nullptr;
  const char* book = nullptr;
  const char* sab = nullptr;
};

struct OracleDeltas {
  std::size_t computations = 0;
  std::size_t cache_hits = 0;
  std::size_t settled = 0;
};

/// What the traced operations did, counted by the caller.
struct OpCounts {
  double requests = 0;       ///< operations the per-op ratios divide by
  double bookings = 0;       ///< bookings that landed
  double book_attempts = 0;  ///< Book calls that ran (landed or rejected)
};

/// Adds the xar.* and oracle.* metrics. Oracle spans, and the self time of
/// SearchAndBook (its time outside oracle spans), count only operations that
/// started before `cutoff_ns` (0: no cutoff); the city sim sets it to its
/// first refresh, after which EventSim owns the oracle.
void AddXarOracleMetrics(const std::vector<Span>& spans,
                         const OpSpanNames& names, const OpCounts& counts,
                         const xar::RetryStats& retry_delta,
                         const OracleDeltas& oracle, std::int64_t cutoff_ns,
                         RunOutput* out);

/// match.* from two match_stats() snapshots: candidates and empty results
/// per shard probe (a 4-shard Search probes each shard once) and the index
/// size at the end.
void AddMatchMetrics(const xar::MatchIndexStats& before,
                     const xar::MatchIndexStats& after, RunOutput* out);

/// after - before, field by field.
xar::RetryStats RetryDelta(const xar::RetryStats& after,
                           const xar::RetryStats& before);

/// Durations (or self times) in microseconds of every span named `name`
/// that started before `cutoff_ns` (0: no cutoff), sorted.
std::vector<double> SpanMicros(const std::vector<Span>& spans,
                               const char* name,
                               const std::vector<std::int64_t>* self = nullptr,
                               std::int64_t cutoff_ns = 0);

double Share(double part, double whole);

}  // namespace perfbench

#endif  // PERFBENCH_LAYER_METRICS_H_
