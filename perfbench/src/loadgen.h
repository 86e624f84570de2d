#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

// Open-loop socket load generator for the serve_* workloads: the calling
// thread of the benchmark process drives kConnections connections. Request
// i of a phase is due at t0 + i / rate and goes out on connection
// i % kConnections; every latency is measured from the request's due time,
// so a stall also charges the requests queued behind it. Each request
// carries a fresh rider id.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "bench_logic.h"
#include "serve/frame.h"

namespace perfbench {

inline constexpr std::size_t kConnections = 4;

enum class TrafficMix {
  /// SEARCH with top_k 8; every kLookToBook-th search is followed, on its
  /// answer, by a BOOK of its top match (due when the answer arrived).
  kLook,
  /// SEARCH_AND_BOOK only.
  kBook,
};

inline constexpr std::size_t kLookToBook = 50;

/// One booking the client saw land, as the wire reported it.
struct LandedBooking {
  std::uint32_t rider = 0;
  std::uint32_t ride = 0;
  double pickup_eta_s = 0.0;
  double detour_m = 0.0;
  /// BOOK after SEARCH: the ETA the search row quoted for this ride.
  double quoted_eta_s = 0.0;
};

/// Counts of one verb within a phase. BUSY, MALFORMED, unknown-verb and
/// transport failures are `failed`; an application answer that booked
/// nothing ("no feasible ride", stale candidate) is answered, not failed.
struct VerbTally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;          ///< answered OK (for bookings: landed)
  std::uint64_t not_booked = 0;  ///< booking verbs answered FAILED
  std::uint64_t failed = 0;
  /// Latency from due time, microseconds; failed requests are +inf.
  std::vector<double> latency_us;
};

struct PhaseResult {
  VerbTally search;  ///< SEARCH
  VerbTally book;    ///< BOOK (kLook) or SEARCH_AND_BOOK (kBook)
  std::uint64_t books_skipped = 0;  ///< kLook: the search found no match
  /// How late each send was against its due time, microseconds.
  std::vector<double> lag_us;
  /// (request index, landed) of every answered booking, in due order.
  std::vector<std::pair<std::size_t, bool>> booking_outcomes;
  /// Every booking that landed, in arrival order.
  std::vector<LandedBooking> landed;
  std::size_t backlog = 0;  ///< unanswered when the last send was due
  /// Request accounting (client side only; the caller adds server counts).
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t busy = 0;
  std::uint64_t transport_errors = 0;

  std::uint64_t attempted() const { return search.attempted + book.attempted; }
  std::uint64_t failed() const { return search.failed + book.failed; }
};

/// Runs one open-loop phase against the server on 127.0.0.1:`port`.
/// `templates` are cycled from `*next_template`; rider ids are drawn from
/// `*next_rider` (both advanced). Blocks until every request is answered or
/// the drain timeout after the last due time has passed.
PhaseResult RunPhase(std::uint16_t port, TrafficMix mix,
                     const std::vector<xar::serve::SearchPayload>& templates,
                     double rate_rps, double duration_s,
                     std::size_t* next_template, std::uint32_t* next_rider);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
