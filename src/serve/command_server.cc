#include "serve/command_server.h"

#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <sstream>

namespace xar {
namespace {

std::vector<std::string> Tokenize(const std::string& line) {
  std::istringstream in(line);
  return {std::istream_iterator<std::string>(in),
          std::istream_iterator<std::string>()};
}

// A finite double: the binary front end rejects NaN and infinities too.
bool ParseDouble(const std::string& s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

// A plain decimal no larger than `max`: digits only, no sign, no suffix.
bool ParseDecimal(const std::string& s, std::uint64_t max, std::uint64_t* out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
    if (v > max) return false;
  }
  *out = v;
  return true;
}

bool ParseU32(const std::string& s, std::uint32_t* out) {
  std::uint64_t v = 0;
  if (!ParseDecimal(s, UINT32_MAX, &v)) return false;
  *out = static_cast<std::uint32_t>(v);
  return true;
}

std::string Err(const std::string& message) { return "ERR " + message; }

constexpr char kHelp[] =
    "OK COMMANDS\n"
    "CREATE <slat> <slng> <dlat> <dlng> <depart> [seats] [detour_m]\n"
    "SEARCH <req_id> <slat> <slng> <dlat> <dlng> <t0> <t1> [walk_m] [k]\n"
    "BOOK <req_id> <ride_id>\n"
    "CANCELBOOKING <ride_id> <req_id>\n"
    "CANCELRIDE <ride_id>\n"
    "ADVANCE <now_s>\n"
    "RIDE <ride_id>\n"
    "REFRESH\n"
    "STATS [section]";

}  // namespace

CommandServer::CommandServer(ConcurrentXarSystem& system)
    : system_(system), service_(system), session_(service_) {}

std::string CommandServer::Execute(const std::string& line) {
  std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty()) return Err("empty command");
  const std::string& cmd = tokens[0];
  std::vector<std::string> args(tokens.begin() + 1, tokens.end());
  if (cmd == "CREATE") return HandleCreate(args);
  if (cmd == "SEARCH") return HandleSearch(args);
  if (cmd == "BOOK") return HandleBook(args);
  if (cmd == "CANCELBOOKING") return HandleCancelBooking(args);
  if (cmd == "CANCELRIDE") return HandleCancelRide(args);
  if (cmd == "ADVANCE") return HandleAdvance(args);
  if (cmd == "RIDE") return HandleRide(args);
  if (cmd == "REFRESH") return HandleRefresh();
  if (cmd == "STATS") return HandleStats(args);
  if (cmd == "HELP") return kHelp;
  return Err("unknown command " + cmd + " (try HELP)");
}

std::string CommandServer::HandleCreate(
    const std::vector<std::string>& args) {
  if (args.size() < 5 || args.size() > 7) {
    return Err("usage: CREATE slat slng dlat dlng depart [seats] [detour_m]");
  }
  double v[5];
  for (int i = 0; i < 5; ++i) {
    if (!ParseDouble(args[static_cast<std::size_t>(i)], &v[i])) {
      return Err("bad number: " + args[static_cast<std::size_t>(i)]);
    }
  }
  RideOffer offer;
  offer.source = {v[0], v[1]};
  offer.destination = {v[2], v[3]};
  offer.departure_time_s = v[4];
  if (args.size() >= 6) {
    std::uint64_t seats = 0;
    if (!ParseDecimal(args[5], INT_MAX, &seats)) return Err("bad seats");
    offer.seats = static_cast<int>(seats);
  }
  if (args.size() == 7) {
    if (!ParseDouble(args[6], &offer.detour_limit_m)) {
      return Err("bad detour limit");
    }
  }
  Result<RideId> ride = system_.CreateRide(offer);
  if (!ride.ok()) return Err(ride.status().ToString());
  char buf[64];
  std::snprintf(buf, sizeof(buf), "OK RIDE %u", ride->value());
  return buf;
}

std::string CommandServer::HandleSearch(
    const std::vector<std::string>& args) {
  if (args.size() < 7 || args.size() > 9) {
    return Err("usage: SEARCH req_id slat slng dlat dlng t0 t1 [walk] [k]");
  }
  serve::SearchPayload p;
  if (!ParseU32(args[0], &p.rider_id)) return Err("bad request id");
  double* const fields[] = {&p.source_lat,           &p.source_lng,
                            &p.dest_lat,             &p.dest_lng,
                            &p.earliest_departure_s, &p.latest_departure_s};
  for (std::size_t i = 0; i < 6; ++i) {
    if (!ParseDouble(args[i + 1], fields[i])) {
      return Err("bad number: " + args[i + 1]);
    }
  }
  if (args.size() >= 8 && !ParseDouble(args[7], &p.walk_limit_m)) {
    return Err("bad walk limit");
  }
  if (args.size() == 9 && !ParseU32(args[8], &p.top_k)) return Err("bad k");

  const serve::SearchResult result = service_.Search(session_, p);
  char head[64];
  std::snprintf(head, sizeof(head), "OK MATCHES %zu", result.matches.size());
  std::string out = head;
  for (const serve::MatchRow& m : result.matches) {
    char row[128];
    std::snprintf(row, sizeof(row),
                  "\nMATCH ride=%u walk_m=%.0f eta_s=%.0f detour_m=%.0f",
                  m.ride_id, m.walk_m, m.eta_s, m.detour_m);
    out += row;
  }
  return out;
}

std::string CommandServer::HandleBook(const std::vector<std::string>& args) {
  if (args.size() != 2) return Err("usage: BOOK req_id ride_id");
  serve::BookPayload p;
  if (!ParseU32(args[0], &p.rider_id) || !ParseU32(args[1], &p.ride_id)) {
    return Err("bad id");
  }
  Result<serve::BookingResult> booking = service_.Book(session_, p);
  if (!booking.ok()) return Err(booking.status().message());
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "OK BOOKED ride=%u pickup_eta=%.0f dropoff_eta=%.0f "
                "detour_m=%.0f walk_m=%.0f",
                booking->ride_id, booking->pickup_eta_s, booking->dropoff_eta_s,
                booking->detour_m, booking->walk_m);
  return buf;
}

std::string CommandServer::HandleCancelBooking(
    const std::vector<std::string>& args) {
  if (args.size() != 2) return Err("usage: CANCELBOOKING ride_id req_id");
  std::uint32_t ride_id, req_id;
  if (!ParseU32(args[0], &ride_id) || !ParseU32(args[1], &req_id)) {
    return Err("bad id");
  }
  Status status =
      system_.CancelBooking(RideId(ride_id), RequestId(req_id));
  return status.ok() ? "OK CANCELLED" : Err(status.ToString());
}

std::string CommandServer::HandleCancelRide(
    const std::vector<std::string>& args) {
  if (args.size() != 1) return Err("usage: CANCELRIDE ride_id");
  std::uint32_t ride_id;
  if (!ParseU32(args[0], &ride_id)) return Err("bad id");
  Status status = system_.CancelRide(RideId(ride_id));
  return status.ok() ? "OK CANCELLED" : Err(status.ToString());
}

std::string CommandServer::HandleAdvance(
    const std::vector<std::string>& args) {
  if (args.size() != 1) return Err("usage: ADVANCE now_s");
  double now;
  if (!ParseDouble(args[0], &now)) return Err("bad time");
  system_.AdvanceTime(now);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "OK NOW %.0f", system_.Now());
  return buf;
}

std::string CommandServer::HandleRide(const std::vector<std::string>& args) {
  if (args.size() != 1) return Err("usage: RIDE ride_id");
  std::uint32_t ride_id;
  if (!ParseU32(args[0], &ride_id)) return Err("bad id");
  Result<Ride> ride = system_.GetRide(RideId(ride_id));
  if (!ride.ok()) return Err("unknown ride");
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "OK RIDE %u active=%d seats=%d/%d route_m=%.0f "
                "detour_used_m=%.0f via_points=%zu",
                ride_id, ride->active ? 1 : 0, ride->seats_available,
                ride->seats_total, ride->route.length_m, ride->detour_used_m,
                ride->via_points.size());
  return buf;
}

std::string CommandServer::HandleRefresh() {
  const RefreshStats stats = service_.Refresh();
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "OK REFRESH epoch=%llu rehomed=%zu rebuild_ms=%.1f",
                static_cast<unsigned long long>(stats.epoch),
                stats.last_rides_rehomed, stats.last_rebuild_ms);
  return buf;
}

std::string CommandServer::HandleStats(
    const std::vector<std::string>& args) {
  if (args.size() > 1) return Err("usage: STATS [section]");
  Result<std::string> rows = service_.Stats(args.empty() ? "" : args[0]);
  if (!rows.ok()) return Err(rows.status().message());
  // The service's rows each end in a newline; the text protocol puts one
  // before each row instead.
  std::string out = "OK STATS";
  if (!rows->empty()) out += "\n" + rows->substr(0, rows->size() - 1);
  return out;
}

}  // namespace xar
