// The match index's rebuild invariant: incremental maintenance (Insert at
// creation, Update after every booking/cancel/no-show, Advance at tracking
// events, re-homing on refresh) must leave exactly the index a from-scratch
// rebuild of the live fleet produces.
//
// IndexMatchesRebuild builds a fresh MatchIndex on the system's current
// region, Inserts then Advances(now) every active ride, and compares it
// with the live index: every cluster list in both orders (by ride, and the
// whole ETA order via EtaRange(-inf, +inf)) entry by entry with eta_s and
// detour_m bitwise equal, every registration (pass-throughs and registered
// clusters), and the registered-ride count. Since the rebuild runs the same
// Insert/Advance code, it also checks each live list entry against the
// min-aggregated support of the ride's own pass-throughs.
//
// RebuildCheckingTarget runs that check inside an EventSim run, after the
// calls that mutate the index. An end-of-run check alone proves nothing:
// the sim drains every vehicle, so the index is empty when it returns.

#ifndef XAR_TESTS_INDEX_CHECKERS_H_
#define XAR_TESTS_INDEX_CHECKERS_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "discretize/region_snapshot.h"
#include "match/match_index.h"
#include "sim/event_sim.h"
#include "xar/xar_system.h"

namespace xar {
namespace testing {

inline bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

inline ::testing::AssertionResult SameEntries(
    std::span<const PotentialRide> live, std::span<const PotentialRide> fresh,
    std::size_t cluster, const char* order) {
  if (live.size() != fresh.size()) {
    return ::testing::AssertionFailure()
           << "cluster " << cluster << " (" << order << "): live lists "
           << live.size() << " rides, rebuild " << fresh.size();
  }
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (live[i].ride != fresh[i].ride ||
        !SameBits(live[i].eta_s, fresh[i].eta_s) ||
        !SameBits(live[i].detour_m, fresh[i].detour_m)) {
      return ::testing::AssertionFailure()
             << "cluster " << cluster << " (" << order << ") entry " << i
             << ": live ride " << live[i].ride.value() << " eta "
             << live[i].eta_s << " detour " << live[i].detour_m
             << ", rebuild ride " << fresh[i].ride.value() << " eta "
             << fresh[i].eta_s << " detour " << fresh[i].detour_m;
    }
  }
  return ::testing::AssertionSuccess();
}

inline bool SamePassThrough(const PassThroughCluster& a,
                            const PassThroughCluster& b) {
  if (a.cluster != b.cluster || a.landmark != b.landmark ||
      !SameBits(a.eta_s, b.eta_s) || a.segment != b.segment ||
      a.crossed != b.crossed || a.reachable != b.reachable ||
      a.reachable_detour_m.size() != b.reachable_detour_m.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.reachable_detour_m.size(); ++i) {
    if (!SameBits(a.reachable_detour_m[i], b.reachable_detour_m[i])) {
      return false;
    }
  }
  return true;
}

/// `graph` is the graph the system was built on: a refresh may swap in a
/// re-weighted graph, but node positions — all the index reads — are
/// unchanged by contract (GraphDelta).
inline ::testing::AssertionResult IndexMatchesRebuild(const XarSystem& xar,
                                                      const RoadGraph& graph) {
  const MatchIndex& live = xar.match_index();
  MatchIndex fresh(BorrowRegionSnapshot(xar.region()), graph);
  const XarOptions& options = xar.options();
  auto ride_at = [&](std::size_t i) {
    return RideId(static_cast<RideId::underlying_type>(
        options.ride_id_offset + i * options.ride_id_stride));
  };
  for (std::size_t i = 0; i < xar.NumRides(); ++i) {
    const RideId id = ride_at(i);
    const Ride* ride = xar.GetRide(id);
    if (ride == nullptr || !ride->active) continue;
    fresh.Insert(*ride);
    fresh.Advance(*ride, xar.Now());
  }

  if (live.NumRegisteredRides() != fresh.NumRegisteredRides()) {
    return ::testing::AssertionFailure()
           << "live index registers " << live.NumRegisteredRides()
           << " rides, rebuild " << fresh.NumRegisteredRides();
  }
  for (std::size_t i = 0; i < xar.NumRides(); ++i) {
    const RideId id = ride_at(i);
    const RideRegistration* want = fresh.RegistrationOf(id);
    if (want == nullptr) continue;
    const RideRegistration* got = live.RegistrationOf(id);
    if (got == nullptr) {
      return ::testing::AssertionFailure()
             << "active ride " << id.value() << " is not registered";
    }
    if (got->registered_clusters != want->registered_clusters) {
      return ::testing::AssertionFailure()
             << "ride " << id.value() << ": live registered clusters "
             << got->registered_clusters.size() << ", rebuild "
             << want->registered_clusters.size() << " (or differ)";
    }
    if (got->pass_throughs.size() != want->pass_throughs.size()) {
      return ::testing::AssertionFailure()
             << "ride " << id.value() << ": live pass-throughs "
             << got->pass_throughs.size() << ", rebuild "
             << want->pass_throughs.size();
    }
    for (std::size_t p = 0; p < want->pass_throughs.size(); ++p) {
      if (!SamePassThrough(got->pass_throughs[p], want->pass_throughs[p])) {
        return ::testing::AssertionFailure()
               << "ride " << id.value() << ": pass-through " << p
               << " differs (live cluster "
               << got->pass_throughs[p].cluster.value() << " eta "
               << got->pass_throughs[p].eta_s << ", rebuild cluster "
               << want->pass_throughs[p].cluster.value() << " eta "
               << want->pass_throughs[p].eta_s << ")";
      }
    }
  }

  // Independently of the index code: each registered ride is listed under
  // exactly its registered clusters, at the min (ETA, detour) over its
  // pass-throughs — a pass-through's own cluster at its ETA and zero detour,
  // a reachable cluster at the ETA plus the cluster-distance drive.
  const RegionIndex& region = xar.region();
  for (std::size_t i = 0; i < xar.NumRides(); ++i) {
    const RideId id = ride_at(i);
    const RideRegistration* reg = live.RegistrationOf(id);
    if (reg == nullptr) continue;
    std::map<ClusterId, PotentialRide> expected;
    auto offer = [&](ClusterId c, double eta, double detour) {
      auto [it, inserted] = expected.emplace(c, PotentialRide{id, eta, detour});
      if (!inserted) {
        it->second.eta_s = std::min(it->second.eta_s, eta);
        it->second.detour_m = std::min(it->second.detour_m, detour);
      }
    };
    for (const PassThroughCluster& pt : reg->pass_throughs) {
      if (pt.crossed) continue;
      offer(pt.cluster, pt.eta_s, 0.0);
      for (std::size_t r = 0; r < pt.reachable.size(); ++r) {
        const double travel = region.ClusterDistance(pt.cluster,
                                                     pt.reachable[r]) /
                              region.nominal_speed_mps();
        offer(pt.reachable[r], pt.eta_s + travel, pt.reachable_detour_m[r]);
      }
    }
    if (expected.size() != reg->registered_clusters.size()) {
      return ::testing::AssertionFailure()
             << "ride " << id.value() << " is registered under "
             << reg->registered_clusters.size()
             << " clusters, its pass-throughs support " << expected.size();
    }
    std::size_t k = 0;
    for (const auto& [cluster, want] : expected) {
      const PotentialRide* got = live.ListOf(cluster).Find(id);
      if (reg->registered_clusters[k++] != cluster || got == nullptr ||
          !SameBits(got->eta_s, want.eta_s) ||
          !SameBits(got->detour_m, want.detour_m)) {
        return ::testing::AssertionFailure()
               << "ride " << id.value() << " in cluster " << cluster.value()
               << ": listed "
               << (got == nullptr ? "nowhere" : "at a stale support")
               << ", its pass-throughs give eta " << want.eta_s
               << " detour " << want.detour_m;
      }
    }
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < region.NumClusters(); ++c) {
    const ClusterId cluster(static_cast<ClusterId::underlying_type>(c));
    const ClusterRideList& got = live.ListOf(cluster);
    const ClusterRideList& want = fresh.ListOf(cluster);
    ::testing::AssertionResult by_ride =
        SameEntries(got.by_ride(), want.by_ride(), c, "by ride");
    if (!by_ride) return by_ride;
    ::testing::AssertionResult by_eta = SameEntries(
        got.EtaRange(-kInf, kInf), want.EtaRange(-kInf, kInf), c, "by eta");
    if (!by_eta) return by_eta;
  }
  return ::testing::AssertionSuccess();
}

/// Forwards every call to a serial XarSystem and, after each call that can
/// change the index, checks it against a rebuild — every time with
/// `check_every_s` 0, else at most once per that many sim-seconds. Keeps the
/// first failure.
class RebuildCheckingTarget final : public SimTarget {
 public:
  RebuildCheckingTarget(XarSystem& xar, const RoadGraph& graph,
                        double check_every_s)
      : xar_(xar),
        graph_(graph),
        check_every_s_(check_every_s),
        inner_(MakeSimTarget(xar)) {}

  std::vector<RideMatch> Search(const RideRequest& request) const override {
    return inner_->Search(request);
  }
  Result<BookingRecord> SearchAndBook(const RideRequest& request) override {
    Result<BookingRecord> booked = inner_->SearchAndBook(request);
    Check("SearchAndBook");
    return booked;
  }
  Result<RideId> CreateRide(const RideOffer& offer) override {
    Result<RideId> created = inner_->CreateRide(offer);
    Check("CreateRide");
    return created;
  }
  Status CancelBooking(RideId ride, RequestId request) override {
    Status status = inner_->CancelBooking(ride, request);
    Check("CancelBooking");
    return status;
  }
  Status ReportNoShow(RideId ride, RequestId request) override {
    Status status = inner_->ReportNoShow(ride, request);
    Check("ReportNoShow");
    return status;
  }
  void AdvanceTime(double now_s) override {
    inner_->AdvanceTime(now_s);
    Check("AdvanceTime");
  }
  RefreshStats RefreshDiscretization(const GraphDelta& delta) override {
    RefreshStats stats = inner_->RefreshDiscretization(delta);
    Check("RefreshDiscretization");
    return stats;
  }
  Result<Ride> GetRide(RideId id) const override {
    return inner_->GetRide(id);
  }
  std::uint64_t epoch() const override { return inner_->epoch(); }

  std::size_t checks = 0;
  /// Most rides registered at any check: proves the checks saw a live index.
  std::size_t max_registered = 0;
  std::string first_failure;

 private:
  void Check(const char* after) {
    if (checks > 0 && xar_.Now() < next_check_s_) return;
    next_check_s_ = xar_.Now() + check_every_s_;
    ++checks;
    max_registered =
        std::max(max_registered, xar_.match_index().NumRegisteredRides());
    if (!first_failure.empty()) return;
    ::testing::AssertionResult same = IndexMatchesRebuild(xar_, graph_);
    if (!same) {
      first_failure = std::string("after ") + after + " at t=" +
                      std::to_string(xar_.Now()) + ": " + same.message();
    }
  }

  XarSystem& xar_;
  const RoadGraph& graph_;
  const double check_every_s_;
  double next_check_s_ = 0.0;
  std::unique_ptr<SimTarget> inner_;
};

}  // namespace testing
}  // namespace xar

#endif  // XAR_TESTS_INDEX_CHECKERS_H_
