#include "xar/command_server.h"

#include <cctype>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace xar {
namespace {

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : line) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!current.empty()) {
        tokens.push_back(current);
        current.clear();
      }
    } else {
      current += c;
    }
  }
  if (!current.empty()) tokens.push_back(current);
  return tokens;
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

CommandServer::CommandServer(XarSystem& system) : system_(system) {
  // One provider per stats section; STATS snapshots them on demand.
  stats_registry_.Register("system", [this] {
    StatsSection section;
    section.name = "system";
    section.AddRow(
        {StatsMetric::Counter("rides", system_.NumRides()),
         StatsMetric::Counter("active", system_.NumActiveRides()),
         StatsMetric::Counter("bookings", system_.bookings().size()),
         StatsMetric::Gauge("now", system_.Now(), 0),
         StatsMetric::Counter("index_bytes", system_.MemoryFootprint()),
         StatsMetric::Counter("pending_evicted", pending_.evicted())});
    return section;
  });
  stats_registry_.Register(
      "match", [this] { return MatchStatsSection(system_.match_index().stats()); });
  stats_registry_.Register(
      "refresh", [this] { return RefreshStatsSection(system_.refresh_stats()); });
  stats_registry_.Register("pooling", [this] {
    return PoolingStatsSection(system_.pooling_stats());
  });
  stats_registry_.Register(
      "oracle", [this] { return OracleStatsSection(system_.oracle()); });
  stats_registry_.Register("preprocess", [this] {
    const RoutingBackend* backend = system_.oracle().routing_backend();
    if (backend != nullptr) return PreprocessStatsSection(*backend);
    StatsSection section;
    section.name = "preprocess";
    return section;
  });
}

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
  std::uint32_t req_id;
  if (!ParseU32(args[0], &req_id)) return Err("bad request id");
  double v[6];
  for (int i = 0; i < 6; ++i) {
    if (!ParseDouble(args[static_cast<std::size_t>(i + 1)], &v[i])) {
      return Err("bad number: " + args[static_cast<std::size_t>(i + 1)]);
    }
  }
  RideRequest request;
  request.id = RequestId(req_id);
  request.source = {v[0], v[1]};
  request.destination = {v[2], v[3]};
  request.earliest_departure_s = v[4];
  request.latest_departure_s = v[5];
  std::size_t k = 0;
  if (args.size() >= 8 && !ParseDouble(args[7], &request.walk_limit_m)) {
    return Err("bad walk limit");
  }
  if (args.size() == 9) {
    std::uint32_t kk;
    if (!ParseU32(args[8], &kk)) return Err("bad k");
    k = kk;
  }

  std::vector<RideMatch> matches = system_.SearchTopK(request, k);

  char head[64];
  std::snprintf(head, sizeof(head), "OK MATCHES %zu", matches.size());
  std::string out = head;
  for (const RideMatch& m : matches) {
    char row[128];
    std::snprintf(row, sizeof(row),
                  "\nMATCH ride=%u walk_m=%.0f eta_s=%.0f detour_m=%.0f",
                  m.ride.value(), m.TotalWalkM(), m.eta_source_s,
                  m.detour_estimate_m);
    out += row;
  }
  pending_.Put(request, std::move(matches));
  return out;
}

std::string CommandServer::HandleBook(const std::vector<std::string>& args) {
  if (args.size() != 2) return Err("usage: BOOK req_id ride_id");
  std::uint32_t req_id, ride_id;
  if (!ParseU32(args[0], &req_id) || !ParseU32(args[1], &ride_id)) {
    return Err("bad id");
  }
  const PendingSearches::Entry* pending = pending_.Find(RequestId(req_id));
  if (pending == nullptr) {
    return Err("no prior SEARCH for request " + args[0]);
  }
  const RideMatch* match = nullptr;
  for (const RideMatch& m : pending->matches) {
    if (m.ride == RideId(ride_id)) {
      match = &m;
      break;
    }
  }
  if (match == nullptr) {
    return Err("ride " + args[1] + " was not in the search results");
  }
  Result<BookingRecord> booking =
      system_.Book(RideId(ride_id), pending->request, *match);
  if (!booking.ok()) return Err(booking.status().ToString());
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "OK BOOKED ride=%u pickup_eta=%.0f dropoff_eta=%.0f "
                "detour_m=%.0f walk_m=%.0f",
                ride_id, booking->pickup_eta_s, booking->dropoff_eta_s,
                booking->actual_detour_m, booking->walk_m);
  pending_.Erase(RequestId(req_id));
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
  const Ride* ride = system_.GetRide(RideId(ride_id));
  if (ride == nullptr) return Err("unknown ride");
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
  RefreshStats stats = system_.RefreshDiscretization();
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
  auto render = [](const StatsSection& section) {
    std::string out;
    for (const std::vector<StatsMetric>& row : section.rows) {
      out += "\n" + section.name;
      for (const StatsMetric& m : row) out += " " + m.name + "=" + m.value;
    }
    return out;
  };
  if (args.size() == 1) {
    std::optional<StatsSection> section = stats_registry_.Snapshot(args[0]);
    if (!section) {
      std::string names;
      for (const std::string& name : stats_registry_.SectionNames()) {
        names += (names.empty() ? "" : ", ") + name;
      }
      return Err("unknown stats section \"" + args[0] + "\" (sections: " +
                 names + ")");
    }
    return "OK STATS" + render(*section);
  }
  std::string out = "OK STATS";
  for (const StatsSection& section : stats_registry_.SnapshotAll()) {
    out += render(section);
  }
  return out;
}

}  // namespace xar
