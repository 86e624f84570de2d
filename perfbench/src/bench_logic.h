#ifndef PERFBENCH_BENCH_LOGIC_H_
#define PERFBENCH_BENCH_LOGIC_H_

// Pure decision logic of the benchmark, kept free of sockets and clocks so
// tests/logic_test.cc can pin it on hand-built inputs: the percentile rule,
// the capacity-ladder verdict, and the seat/detour ledger check.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// --- Percentiles ------------------------------------------------------------

/// Nearest-rank percentile of `sorted` (ascending); q in [0, 1]. 0 when
/// empty.
inline double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(i, sorted.size() - 1)];
}

/// The percentile rule: the highest of p50, p90, p99, p99.9, p99.99 that
/// still has at least `min_beyond` samples above it. Returns 0 when not even
/// the median qualifies.
inline double HighestSupportedQuantile(std::size_t n,
                                       std::size_t min_beyond = 10) {
  static const double kLadder[] = {0.5, 0.9, 0.99, 0.999, 0.9999};
  double best = 0.0;
  for (double q : kLadder) {
    if (static_cast<double>(n) * (1.0 - q) + 1e-9 >=
        static_cast<double>(min_beyond)) {
      best = q;
    }
  }
  return best;
}

/// A latency sample set summarised by the percentile rule.
struct LatencySummary {
  std::size_t count = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double tail_q = 0.0;   ///< HighestSupportedQuantile(count)
  double tail_us = 0.0;  ///< latency at tail_q
  /// True when p99 itself has at least 10 samples beyond it.
  bool p99_supported() const { return tail_q >= 0.99; }
};

inline LatencySummary Summarize(std::vector<double> samples_us) {
  std::sort(samples_us.begin(), samples_us.end());
  LatencySummary s;
  s.count = samples_us.size();
  s.p50_us = Percentile(samples_us, 0.5);
  s.p99_us = Percentile(samples_us, 0.99);
  s.tail_q = HighestSupportedQuantile(s.count);
  s.tail_us = s.tail_q > 0.0 ? Percentile(samples_us, s.tail_q) : 0.0;
  return s;
}

inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.empty()) return 0.0;
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- Capacity ladder --------------------------------------------------------

/// Outcome of one open-loop step of the capacity ladder.
struct RungResult {
  double rate_rps = 0.0;
  std::size_t sent = 0;
  std::size_t failed = 0;   ///< BUSY, MALFORMED or transport failure
  std::size_t backlog = 0;  ///< requests still unanswered at the step's end
  double p99_us = 0.0;      ///< of the step's limited verb, from due time
};

/// A rung passes when nothing failed or was shed, the limited percentile
/// meets the limit, and the backlog at the step's end is no more than what
/// the rate can legitimately have in flight within the limit (plus one per
/// connection): a queue that is still growing leaves more behind.
inline bool RungPasses(const RungResult& r, double limit_us,
                       std::size_t connections) {
  const double in_flight_allowance =
      r.rate_rps * limit_us * 1e-6 + static_cast<double>(connections);
  return r.sent > 0 && r.failed == 0 && r.p99_us <= limit_us &&
         static_cast<double>(r.backlog) <= in_flight_allowance;
}

/// The capacity ladder: `count` rates, `first` * `step`^i for i < count.
inline std::vector<double> LadderRates(double first, double step,
                                       std::size_t count) {
  std::vector<double> rates;
  double rate = first;
  for (std::size_t i = 0; i < count; ++i, rate *= step) {
    rates.push_back(std::round(rate));
  }
  return rates;
}

/// Highest passing rate on an ascending ladder, found by bisection (which
/// assumes that above the first failing rung every rung fails): each probe
/// runs one rung through `passes`. 0 when the lowest rung fails.
template <typename Passes>
double BisectCapacity(const std::vector<double>& rates, Passes&& passes) {
  std::ptrdiff_t pass = -1;
  std::ptrdiff_t fail = static_cast<std::ptrdiff_t>(rates.size());
  while (fail - pass > 1) {
    const std::ptrdiff_t mid = pass + (fail - pass) / 2;
    if (passes(rates[static_cast<std::size_t>(mid)])) {
      pass = mid;
    } else {
      fail = mid;
    }
  }
  return pass < 0 ? 0.0 : rates[static_cast<std::size_t>(pass)];
}

// --- Seat / detour ledger ---------------------------------------------------

/// What the client saw land on one ride over the wire.
struct ClientRideLedger {
  std::size_t landed = 0;   ///< successful BOOK / SEARCH_AND_BOOK answers
  double detour_sum_m = 0.0;  ///< sum of their wire detour_m
};

/// The server's view of one ride, fetched with GetRide after the run.
struct ServerRideState {
  std::uint32_t ride_id = 0;
  int seats_total = 0;
  int seats_available = 0;
  double detour_used_m = 0.0;
  double detour_limit_m = 0.0;
};

/// Request accounting of one run, client side and server side.
struct TrafficLedger {
  std::uint64_t client_sent = 0;     ///< frames the generator wrote
  std::uint64_t client_answered = 0; ///< distinct tags answered
  std::uint64_t client_duplicate_answers = 0;
  std::uint64_t client_busy = 0;
  std::uint64_t server_accepted = 0;
  std::uint64_t server_completed = 0;
  std::uint64_t server_shed = 0;
};

/// Checks the exact seat and detour-budget ledger plus request accounting.
/// Returns one line per violation; empty means the ledger holds.
///  - seats used on every ride equal the bookings the client saw land there;
///  - detour_used_m equals the sum of wire detours (up to summation order)
///    and stays within detour_limit_m + 4 * epsilon;
///  - every sent tag was answered exactly once; every request the server
///    received was either queued (accepted) or shed; every accepted one
///    completed; the client saw exactly the server's sheds as BUSY.
inline std::vector<std::string> CheckLedger(
    const std::vector<ServerRideState>& rides,
    const std::map<std::uint32_t, ClientRideLedger>& client,
    const TrafficLedger& traffic, double epsilon_m) {
  std::vector<std::string> errors;
  std::size_t matched_rides = 0;
  for (const ServerRideState& ride : rides) {
    ClientRideLedger seen;
    auto it = client.find(ride.ride_id);
    if (it != client.end()) {
      seen = it->second;
      ++matched_rides;
    }
    const int used = ride.seats_total - ride.seats_available;
    if (used < 0 || static_cast<std::size_t>(used) != seen.landed) {
      errors.push_back("ride " + std::to_string(ride.ride_id) + ": " +
                       std::to_string(used) + " seats used, client saw " +
                       std::to_string(seen.landed) + " bookings");
    }
    const double tol = 1e-9 * std::max(1.0, ride.detour_used_m);
    if (std::fabs(ride.detour_used_m - seen.detour_sum_m) > tol) {
      errors.push_back("ride " + std::to_string(ride.ride_id) +
                       ": detour_used_m " + std::to_string(ride.detour_used_m) +
                       " != wire sum " + std::to_string(seen.detour_sum_m));
    }
    if (ride.detour_used_m > ride.detour_limit_m + 4.0 * epsilon_m) {
      errors.push_back("ride " + std::to_string(ride.ride_id) +
                       ": detour_used_m " + std::to_string(ride.detour_used_m) +
                       " exceeds limit + 4 eps");
    }
  }
  if (matched_rides != client.size()) {
    errors.push_back("client saw bookings on " +
                     std::to_string(client.size() - matched_rides) +
                     " rides the server does not have");
  }
  if (traffic.client_answered != traffic.client_sent) {
    errors.push_back("sent " + std::to_string(traffic.client_sent) +
                     " tags, " + std::to_string(traffic.client_answered) +
                     " answered");
  }
  if (traffic.client_duplicate_answers != 0) {
    errors.push_back(std::to_string(traffic.client_duplicate_answers) +
                     " tags answered more than once");
  }
  if (traffic.server_accepted + traffic.server_shed != traffic.client_sent) {
    errors.push_back("server accepted " +
                     std::to_string(traffic.server_accepted) + " + shed " +
                     std::to_string(traffic.server_shed) + " != sent " +
                     std::to_string(traffic.client_sent));
  }
  if (traffic.server_completed != traffic.server_accepted) {
    errors.push_back("server completed " +
                     std::to_string(traffic.server_completed) + " of " +
                     std::to_string(traffic.server_accepted) + " accepted");
  }
  if (traffic.client_busy != traffic.server_shed) {
    errors.push_back("client saw " + std::to_string(traffic.client_busy) +
                     " BUSY, server shed " +
                     std::to_string(traffic.server_shed));
  }
  return errors;
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_LOGIC_H_
