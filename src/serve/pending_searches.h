#ifndef XAR_SERVE_PENDING_SEARCHES_H_
#define XAR_SERVE_PENDING_SEARCHES_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "xar/ride.h"

namespace xar {

/// A SEARCH stays bookable until this many newer SEARCHes have arrived in
/// the same session; then it is evicted and a BOOK of it fails like one
/// that had no prior SEARCH. Bounds the look-then-book state of a client
/// that searches with fresh rider ids and rarely books.
constexpr std::size_t kMaxPendingSearches = 1024;

/// The look-then-book ledger of one client session: the request and
/// matches of each rider's latest SEARCH, until a BOOK consumes them or
/// kMaxPendingSearches newer SEARCHes expire them. Each serve::Session holds
/// one, under the session's mutex. Not thread-safe.
class PendingSearches {
 public:
  struct Entry {
    RideRequest request;
    std::vector<RideMatch> matches;
    std::uint64_t seq = 0;  ///< the SEARCH's position in this session
  };

  /// Records the SEARCH of `request.id`, replacing an earlier one of the
  /// same rider. Returns true when it evicted an older, unbooked SEARCH.
  bool Put(const RideRequest& request, std::vector<RideMatch> matches);

  /// The pending SEARCH of `rider`, or nullptr. Valid until the next Put or
  /// Erase.
  const Entry* Find(RequestId rider) const;

  /// Drops the pending SEARCH of `rider` (a BOOK consumed it); false if it
  /// had none.
  bool Erase(RequestId rider) { return entries_.erase(rider) > 0; }

  std::size_t size() const { return entries_.size(); }
  /// SEARCHes evicted unbooked since construction.
  std::uint64_t evicted() const { return evicted_; }

 private:
  std::unordered_map<RequestId, Entry> entries_;
  /// (seq, rider) of the last kMaxPendingSearches SEARCHes, oldest first. A
  /// slot whose seq no longer matches its map entry was booked or
  /// re-SEARCHed and evicts nothing when it expires.
  std::deque<std::pair<std::uint64_t, RequestId>> order_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t evicted_ = 0;
};

}  // namespace xar

#endif  // XAR_SERVE_PENDING_SEARCHES_H_
