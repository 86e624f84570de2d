#ifndef XAR_XAR_COMMAND_SERVER_H_
#define XAR_XAR_COMMAND_SERVER_H_

#include <string>
#include <vector>

#include "common/stats_registry.h"
#include "xar/pending_searches.h"
#include "xar/xar_system.h"

namespace xar {

/// Line-oriented command front-end over a XarSystem — the protocol surface
/// a mobile app / trip-planner gateway would speak. One request line in,
/// one (possibly multi-line) response out; responses start with `OK` or
/// `ERR`.
///
/// Commands (times in seconds-since-midnight, distances in meters):
///   CREATE <slat> <slng> <dlat> <dlng> <depart> [seats] [detour_m]
///   SEARCH <req_id> <slat> <slng> <dlat> <dlng> <t0> <t1> [walk_m] [k]
///   BOOK <req_id> <ride_id>
///   CANCELBOOKING <ride_id> <req_id>
///   CANCELRIDE <ride_id>
///   ADVANCE <now_s>
///   RIDE <ride_id>
///   REFRESH
///   STATS [section]
///   HELP
///
/// BOOK resolves the match from the most recent SEARCH for that request id
/// (the look-then-book flow), so searches must precede bookings. A SEARCH
/// stays bookable until kMaxPendingSearches newer ones have arrived (the
/// binary server's per-connection policy); `pending_evicted` in the system
/// stats counts those that expired unbooked.
///
/// Numbers must be finite; ids and k are plain decimals that fit in 32 bits
/// and seats a plain non-negative int. Anything else is an `ERR`.
///
/// REFRESH rebuilds the region discretization in place (epoch bump); BOOKs
/// against searches issued before the refresh fail as stale — re-SEARCH.
///
/// STATS iterates a StatsRegistry (sections: system, refresh, oracle,
/// preprocess) instead of hand-concatenating per-subsystem tables; the
/// optional argument filters the response to one section. The response is
/// `OK STATS` followed by one `<section> key=value ...` line per section
/// row.
class CommandServer {
 public:
  explicit CommandServer(XarSystem& system);

  CommandServer(const CommandServer&) = delete;
  CommandServer& operator=(const CommandServer&) = delete;

  /// Executes one command line and returns the response text (no trailing
  /// newline). Unknown/malformed commands yield an `ERR ...` response.
  std::string Execute(const std::string& line);

 private:
  std::string HandleCreate(const std::vector<std::string>& args);
  std::string HandleSearch(const std::vector<std::string>& args);
  std::string HandleBook(const std::vector<std::string>& args);
  std::string HandleCancelBooking(const std::vector<std::string>& args);
  std::string HandleCancelRide(const std::vector<std::string>& args);
  std::string HandleAdvance(const std::vector<std::string>& args);
  std::string HandleRide(const std::vector<std::string>& args);
  std::string HandleRefresh();
  std::string HandleStats(const std::vector<std::string>& args);

  XarSystem& system_;
  StatsRegistry stats_registry_;
  PendingSearches pending_;
};

}  // namespace xar

#endif  // XAR_XAR_COMMAND_SERVER_H_
