#ifndef XAR_SERVE_COMMAND_SERVER_H_
#define XAR_SERVE_COMMAND_SERVER_H_

#include <string>
#include <vector>

#include "serve/service.h"
#include "xar/concurrent_xar.h"

namespace xar {

/// Line-oriented command front end over a ConcurrentXarSystem — the
/// protocol surface a mobile app / trip-planner gateway would speak, and the
/// text codec over the same serve::XarService the binary server decodes
/// into (xar_shell serves a 1-shard system through it). One request line
/// in, one (possibly multi-line) response out; responses start with `OK` or
/// `ERR`. SEARCH, BOOK, REFRESH and STATS go through the service; the other
/// commands are one system call each. Not thread-safe: one caller, one
/// session.
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
/// binary server's per-connection policy); in the system stats, `pending`
/// counts the bookable SEARCHes and `pending_evicted` those that expired
/// unbooked.
///
/// Numbers must be finite; ids and k are plain decimals that fit in 32 bits
/// and seats a plain non-negative int. Anything else is an `ERR`.
///
/// REFRESH rebuilds the region discretization in place (epoch bump); BOOKs
/// against searches issued before the refresh fail as stale — re-SEARCH.
///
/// STATS renders the service's StatsRegistry (sections: system, match,
/// retry, refresh, pooling, oracle, preprocess); the optional argument
/// filters the response to one section. The response is `OK STATS`
/// followed by one `<section> key=value ...` line per section row.
class CommandServer {
 public:
  explicit CommandServer(ConcurrentXarSystem& system);

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

  ConcurrentXarSystem& system_;
  serve::XarService service_;
  serve::Session session_;
};

}  // namespace xar

#endif  // XAR_SERVE_COMMAND_SERVER_H_
