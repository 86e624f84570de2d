#include "serve/service.h"

#include <optional>
#include <utility>

namespace xar {
namespace serve {
namespace {

// The one place a wire payload becomes a RideRequest; the codecs have
// validated its numbers.
RideRequest ToRideRequest(const SearchPayload& p) {
  RideRequest request;
  request.id = RequestId(p.rider_id);
  request.source = {p.source_lat, p.source_lng};
  request.destination = {p.dest_lat, p.dest_lng};
  request.earliest_departure_s = p.earliest_departure_s;
  request.latest_departure_s = p.latest_departure_s;
  request.walk_limit_m = p.walk_limit_m;
  return request;
}

Result<BookingResult> ToBookingResult(const Result<BookingRecord>& booked) {
  if (!booked.ok()) return Status::FailedPrecondition(booked.status().ToString());
  return BookingResult{booked->ride.value(), booked->pickup_eta_s,
                       booked->dropoff_eta_s, booked->actual_detour_m,
                       booked->walk_m};
}

}  // namespace

Session::~Session() {
  service_.pending_.fetch_sub(pending_.size(), std::memory_order_relaxed);
}

XarService::XarService(ConcurrentXarSystem& system) : system_(system) {
  // One provider per stats section; STATS snapshots them on demand.
  stats_.Register("system", [this] {
    StatsSection section;
    section.name = "system";
    section.AddRow({StatsMetric::Counter("rides", system_.NumRides()),
                    StatsMetric::Counter("active", system_.NumActiveRides()),
                    StatsMetric::Gauge("now", system_.Now(), 0),
                    StatsMetric::Counter("epoch", system_.epoch()),
                    StatsMetric::Counter("pending", pending()),
                    StatsMetric::Counter("pending_evicted", pending_evicted())});
    return section;
  });
  stats_.Register("match",
                  [this] { return MatchStatsSection(system_.match_stats()); });
  stats_.Register("retry",
                  [this] { return RetryStatsSection(system_.retry_stats()); });
  stats_.Register("refresh", [this] {
    return RefreshStatsSection(system_.refresh_stats());
  });
  stats_.Register("pooling", [this] {
    return PoolingStatsSection(system_.pooling_stats());
  });
  stats_.Register("oracle",
                  [this] { return OracleStatsSection(system_.oracle()); });
  stats_.Register("preprocess", [this] {
    const RoutingBackend* backend = system_.oracle().routing_backend();
    if (backend != nullptr) return PreprocessStatsSection(*backend);
    StatsSection section;
    section.name = "preprocess";
    return section;
  });
}

SearchResult XarService::Search(Session& session, const SearchPayload& p) {
  const RideRequest request = ToRideRequest(p);
  std::vector<RideMatch> matches = system_.SearchTopK(request, p.top_k);
  SearchResult result;
  result.matches.reserve(matches.size());
  for (const RideMatch& m : matches) {
    result.matches.push_back(
        {m.ride.value(), m.TotalWalkM(), m.eta_source_s, m.detour_estimate_m});
  }
  std::lock_guard<std::mutex> lock(session.mutex_);
  const std::size_t before = session.pending_.size();
  if (session.pending_.Put(request, std::move(matches))) {
    pending_evicted_.fetch_add(1, std::memory_order_relaxed);
  }
  pending_.fetch_add(session.pending_.size() - before,
                     std::memory_order_relaxed);
  return result;
}

Result<BookingResult> XarService::Book(Session& session, const BookPayload& p) {
  const RequestId rider(p.rider_id);
  PendingSearches::Entry pending;
  {
    std::lock_guard<std::mutex> lock(session.mutex_);
    const PendingSearches::Entry* found = session.pending_.Find(rider);
    if (found == nullptr) {
      return Status::FailedPrecondition("no prior SEARCH for request " +
                                        std::to_string(p.rider_id));
    }
    pending = *found;
  }
  const RideMatch* match = nullptr;
  for (const RideMatch& m : pending.matches) {
    if (m.ride == RideId(p.ride_id)) {
      match = &m;
      break;
    }
  }
  if (match == nullptr) {
    return Status::FailedPrecondition(
        "ride " + std::to_string(p.ride_id) + " was not in the search results");
  }
  Result<BookingResult> booked =
      ToBookingResult(system_.Book(RideId(p.ride_id), pending.request, *match));
  if (!booked.ok()) return booked;
  std::lock_guard<std::mutex> lock(session.mutex_);
  if (session.pending_.Erase(rider)) {
    pending_.fetch_sub(1, std::memory_order_relaxed);
  }
  return booked;
}

Result<BookingResult> XarService::SearchAndBook(const SearchPayload& p) {
  return ToBookingResult(system_.SearchAndBook(ToRideRequest(p)));
}

Result<std::string> XarService::Stats(std::string_view section) const {
  std::string out;
  auto render = [&out](const StatsSection& s) {
    for (const std::vector<StatsMetric>& row : s.rows) {
      out += s.name;
      for (const StatsMetric& m : row) out += " " + m.name + "=" + m.value;
      out += "\n";
    }
  };
  if (section.empty()) {
    for (const StatsSection& s : stats_.SnapshotAll()) render(s);
    return out;
  }
  std::optional<StatsSection> snapshot = stats_.Snapshot(section);
  if (!snapshot) {
    std::string names;
    for (const std::string& name : stats_.SectionNames()) {
      names += (names.empty() ? "" : ", ") + name;
    }
    return Status::NotFound("unknown stats section \"" + std::string(section) +
                            "\" (sections: " + names + ")");
  }
  render(*snapshot);
  return out;
}

}  // namespace serve
}  // namespace xar
