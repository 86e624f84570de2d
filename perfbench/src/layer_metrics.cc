#include "layer_metrics.h"

#include <algorithm>
#include <cstring>

#include "bench_logic.h"
#include "decorators.h"

namespace perfbench {

double Share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

void AddMatchMetrics(const xar::MatchIndexStats& before,
                     const xar::MatchIndexStats& after, RunOutput* out) {
  const double probes = static_cast<double>(after.counters.searches -
                                            before.counters.searches);
  out->Add("match.candidates_per_search",
           Share(static_cast<double>(after.counters.candidates -
                                     before.counters.candidates),
                 probes),
           "count");
  out->Add("match.empty_search_frac",
           Share(static_cast<double>(after.counters.empty_searches -
                                     before.counters.empty_searches),
                 probes),
           "frac");
  out->Add("match.index_mb", static_cast<double>(after.bytes) / (1 << 20),
           "MB");
}

xar::RetryStats RetryDelta(const xar::RetryStats& after,
                           const xar::RetryStats& before) {
  xar::RetryStats d;
  d.booked_first_try = after.booked_first_try - before.booked_first_try;
  d.booked_after_research =
      after.booked_after_research - before.booked_after_research;
  d.stale_rejections = after.stale_rejections - before.stale_rejections;
  d.unmatched = after.unmatched - before.unmatched;
  d.priced_waves = after.priced_waves - before.priced_waves;
  d.priced_candidates = after.priced_candidates - before.priced_candidates;
  d.priced_dropped = after.priced_dropped - before.priced_dropped;
  return d;
}

std::vector<double> SpanMicros(const std::vector<Span>& spans,
                               const char* name,
                               const std::vector<std::int64_t>* self,
                               std::int64_t cutoff_ns) {
  std::vector<double> us;
  if (name == nullptr) return us;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::strcmp(spans[i].name, name) != 0) continue;
    if (cutoff_ns != 0 && spans[i].start_ns >= cutoff_ns) continue;
    const std::int64_t ns =
        self != nullptr ? (*self)[i] : spans[i].duration_ns();
    us.push_back(static_cast<double>(ns) * 1e-3);
  }
  std::sort(us.begin(), us.end());
  return us;
}

void AddXarOracleMetrics(const std::vector<Span>& spans,
                         const OpSpanNames& names, const OpCounts& counts,
                         const xar::RetryStats& retry,
                         const OracleDeltas& oracle, std::int64_t cutoff_ns,
                         RunOutput* out) {
  const std::vector<std::int64_t> self = SelfTimesNs(spans);
  auto is_op = [&](const Span& s) {
    for (const char* n : {names.search, names.book, names.sab}) {
      if (n != nullptr && std::strcmp(s.name, n) == 0) return true;
    }
    return false;
  };
  double ops_ns = 0.0, oracle_under_ops_ns = 0.0;
  double matrix_ns = 0.0, route_ns = 0.0, point_ns = 0.0, matrix_calls = 0.0;
  for (const Span& s : spans) {
    const bool in_window = cutoff_ns == 0 || s.start_ns < cutoff_ns;
    if (is_op(s) && in_window) ops_ns += static_cast<double>(s.duration_ns());
    if (std::strncmp(s.name, "oracle.", 7) != 0 || s.parent < 0) continue;
    const Span& parent = spans[static_cast<std::size_t>(s.parent)];
    if (!is_op(parent) || !(cutoff_ns == 0 || parent.start_ns < cutoff_ns)) {
      continue;
    }
    const double d = static_cast<double>(s.duration_ns());
    oracle_under_ops_ns += d;
    if (std::strcmp(s.name, kOracleMatrix) == 0) {
      matrix_ns += d;
      matrix_calls += 1.0;
    } else if (std::strcmp(s.name, kOracleRoute) == 0) {
      route_ns += d;
    } else {
      point_ns += d;
    }
  }
  // Per-op denominators count only the operations inside the window.
  double window_ops = 0.0, window_bookings = counts.bookings;
  if (cutoff_ns == 0) {
    window_ops = counts.requests;
  } else {
    double all_ops = 0.0;
    for (const Span& s : spans) {
      if (!is_op(s)) continue;
      all_ops += 1.0;
      if (s.start_ns < cutoff_ns) window_ops += 1.0;
    }
    window_bookings = counts.bookings * Share(window_ops, all_ops);
  }
  window_ops = std::max(1.0, window_ops);
  window_bookings = std::max(1.0, window_bookings);

  const std::vector<double> search = SpanMicros(spans, names.search);
  const std::vector<double> book = SpanMicros(spans, names.book);
  const std::vector<double> sab = SpanMicros(spans, names.sab);
  const std::vector<double> sab_self =
      SpanMicros(spans, names.sab, &self, cutoff_ns);
  out->Add("xar.search_p50_us", Percentile(search, 0.5), "us");
  out->Add("xar.search_p99_us", Percentile(search, 0.99), "us");
  out->Add("xar.book_p50_us", Percentile(book, 0.5), "us");
  out->Add("xar.sab_p50_us", Percentile(sab, 0.5), "us");
  out->Add("xar.sab_p99_us", Percentile(sab, 0.99), "us");
  out->Add("xar.sab_self_p50_us", Percentile(sab_self, 0.5), "us");
  out->Add("xar.book_attempts_per_booking",
           Share(counts.book_attempts, counts.bookings), "ratio");
  out->Add("xar.priced_candidates_per_wave",
           Share(static_cast<double>(retry.priced_candidates),
                 static_cast<double>(retry.priced_waves)),
           "count");
  // A priced candidate was useful when pricing dropped it (sparing a Book
  // attempt) or when Book went on to try it; the rest were priced in vain.
  out->Add("xar.priced_kept_frac",
           retry.priced_candidates == 0
               ? 0.0
               : Share(static_cast<double>(retry.priced_dropped) +
                           counts.book_attempts,
                       static_cast<double>(retry.priced_candidates)),
           "frac");

  out->Add("oracle.matrix_us_per_sab", matrix_ns * 1e-3 / window_ops, "us");
  out->Add("oracle.matrix_calls_per_sab", matrix_calls / window_ops, "count");
  out->Add("oracle.share_of_sab", Share(oracle_under_ops_ns, ops_ns), "frac");
  out->Add("oracle.route_us_per_booking", route_ns * 1e-3 / window_bookings,
           "us");
  out->Add("oracle.point_us_per_op", point_ns * 1e-3 / window_ops, "us");
  const double comp = static_cast<double>(oracle.computations);
  const double hits = static_cast<double>(oracle.cache_hits);
  out->Add("oracle.cache_hit_rate", Share(hits, hits + comp), "frac");
  out->Add("oracle.settled_per_computation",
           Share(static_cast<double>(oracle.settled), comp), "count");
}

}  // namespace perfbench
