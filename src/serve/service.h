#ifndef XAR_SERVE_SERVICE_H_
#define XAR_SERVE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/stats_registry.h"
#include "serve/frame.h"
#include "serve/pending_searches.h"
#include "xar/concurrent_xar.h"

namespace xar {
namespace serve {

class XarService;

/// One client's look-then-book session: the PendingSearches ledger of its
/// SEARCHes and the mutex guarding it. Each socket connection holds one, as
/// does the text CommandServer. Destroying a session takes its live entries
/// off the service's `pending` gauge.
class Session {
 public:
  explicit Session(XarService& service) : service_(service) {}
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

 private:
  friend class XarService;

  XarService& service_;
  std::mutex mutex_;
  PendingSearches pending_;  ///< guarded by mutex_
};

/// The verb layer both protocols decode into (DESIGN.md "Serving layer"):
/// SEARCH, BOOK, SEARCH_AND_BOOK, REFRESH and STATS over one
/// ConcurrentXarSystem, plus the StatsRegistry of the served system's
/// sections (system, match, retry, refresh, pooling, oracle, preprocess).
/// The binary XarServeServer and the text CommandServer are codecs over it:
/// each validates its own input into the wire payload structs, calls a verb
/// here and encodes the wire result structs it returns. Verbs that are one
/// system call (CREATE, CANCEL*, ADVANCE, RIDE) call the system directly.
/// Thread-safe: each session serializes its own ledger.
class XarService {
 public:
  explicit XarService(ConcurrentXarSystem& system);

  XarService(const XarService&) = delete;
  XarService& operator=(const XarService&) = delete;

  /// The sections STATS renders. A front end may register its own (the
  /// binary server's "serve") while no STATS is in flight.
  StatsRegistry& stats_registry() { return stats_; }

  /// SEARCH: the top `p.top_k` matches (0 = all), recorded in the session's
  /// ledger as the rider's latest SEARCH for a later Book.
  SearchResult Search(Session& session, const SearchPayload& p);

  /// BOOK: books `p.ride_id` from the session's latest SEARCH of
  /// `p.rider_id` and consumes that SEARCH. A failure's message is the text
  /// both protocols answer: no prior SEARCH, a ride not in its results, or
  /// the system's status (a stale epoch, a seat gone).
  Result<BookingResult> Book(Session& session, const BookPayload& p);

  /// SEARCH_AND_BOOK: ConcurrentXarSystem::SearchAndBook, no ledger. A
  /// failure's message is the system's status.
  Result<BookingResult> SearchAndBook(const SearchPayload& p);

  RefreshStats Refresh() { return system_.RefreshDiscretization(); }

  /// STATS: one `<section> key=value ...` line per row, each ending in a
  /// newline, of `section` or (empty) of every section. An unknown name
  /// fails with a message that lists the registered ones.
  Result<std::string> Stats(std::string_view section) const;

  /// Look-then-book entries live across all sessions.
  std::uint64_t pending() const {
    return pending_.load(std::memory_order_relaxed);
  }
  /// SEARCHes evicted unbooked, across all sessions.
  std::uint64_t pending_evicted() const {
    return pending_evicted_.load(std::memory_order_relaxed);
  }

 private:
  friend class Session;

  ConcurrentXarSystem& system_;
  StatsRegistry stats_;
  std::atomic<std::uint64_t> pending_{0};
  std::atomic<std::uint64_t> pending_evicted_{0};
};

}  // namespace serve
}  // namespace xar

#endif  // XAR_SERVE_SERVICE_H_
