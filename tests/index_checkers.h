// The match index's rebuild invariant: incremental maintenance (Insert at
// creation, Update after every booking/cancel/no-show, Advance at tracking
// events, re-homing on refresh) must leave exactly the index a from-scratch
// rebuild of the live fleet produces.
//
// IndexMatchesRebuild builds a fresh MatchIndex on the system's current
// region, Inserts every active ride at -inf (all its pass-throughs) and then
// Advances it to now — the two steps the live index folds into one Insert
// or Update at now — and compares it with the live index: every cluster
// list in its one order, the whole (eta, ride) order via
// EtaRange(-inf, +inf), entry by entry with eta_s bitwise equal, every
// registration (pass-throughs with their reachable clusters and cached
// next-via pricing terms, registered clusters with their stored ETA keys and
// support masks), and the registered-ride count. Independently of the index
// code, it also checks each registration's stored key against the
// min-aggregated support ETA of the ride's own pass-throughs, and that the
// cluster's list holds exactly (ride, that eta) at that key: the key that
// Update's merge, Advance's re-key and Remove later binary-search for. Each
// support mask must have bit k set iff pass-through k is the cluster or
// reaches it, and each pass-through's cached terms must be those of the
// via-point ending its segment in the ride's current via list.
//
// RebuildCheckingTarget runs that check inside an EventSim run, after the
// calls that mutate the index, on every shard of a ConcurrentXarSystem. An
// end-of-run check alone proves nothing: the sim drains every vehicle, so
// the index is empty when it returns.

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
#include <utility>
#include <vector>

#include "discretize/region_snapshot.h"
#include "match/match_index.h"
#include "sim/event_sim.h"
#include "tests/test_helpers.h"
#include "xar/concurrent_xar.h"
#include "xar/xar_system.h"

namespace xar {
namespace testing {

inline bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

inline ::testing::AssertionResult SameEntries(
    std::span<const PotentialRide> live, std::span<const PotentialRide> fresh,
    std::size_t cluster) {
  if (live.size() != fresh.size()) {
    return ::testing::AssertionFailure()
           << "cluster " << cluster << ": live lists "
           << live.size() << " rides, rebuild " << fresh.size();
  }
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (live[i].ride != fresh[i].ride ||
        !SameBits(live[i].eta_s, fresh[i].eta_s)) {
      return ::testing::AssertionFailure()
             << "cluster " << cluster << " entry " << i
             << ": live ride " << live[i].ride.value() << " eta "
             << live[i].eta_s << ", rebuild ride " << fresh[i].ride.value()
             << " eta " << fresh[i].eta_s;
    }
  }
  return ::testing::AssertionSuccess();
}

inline bool SamePassThrough(const PassThroughCluster& a,
                            const PassThroughCluster& b) {
  return a.cluster == b.cluster && a.landmark == b.landmark &&
         SameBits(a.eta_s, b.eta_s) && a.segment == b.segment &&
         a.next_landmark == b.next_landmark &&
         a.next_cluster == b.next_cluster &&
         SameBits(a.here_to_next_m, b.here_to_next_m) &&
         a.reachable == b.reachable;
}

/// `graph` is the graph the system was built on: a refresh may swap in a
/// re-weighted graph, but node positions — all the index reads — are
/// unchanged by contract (GraphDelta).
inline ::testing::AssertionResult IndexMatchesRebuild(const XarSystem& xar,
                                                      const RoadGraph& graph) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
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
    fresh.Insert(*ride, -kInf);
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
    if (got->registered_eta_s.size() != want->registered_eta_s.size() ||
        !std::equal(got->registered_eta_s.begin(),
                    got->registered_eta_s.end(),
                    want->registered_eta_s.begin(), SameBits)) {
      return ::testing::AssertionFailure()
             << "ride " << id.value()
             << ": live registered ETA keys differ from the rebuild's";
    }
    if (got->registered_support != want->registered_support) {
      return ::testing::AssertionFailure()
             << "ride " << id.value()
             << ": live support masks differ from the rebuild's";
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
  // exactly its registered clusters, at the min ETA over its pass-throughs
  // — a pass-through's own cluster at its ETA, a reachable cluster at the
  // ETA plus the cluster-distance drive — and each cluster's stored key is
  // that min ETA. Bit k of a cluster's support mask is set iff
  // pass-through k is that cluster or reaches it, and each pass-through's
  // pricing terms are those of the via-point ending its segment in the
  // ride's current via list.
  const RegionIndex& region = xar.region();
  for (std::size_t i = 0; i < xar.NumRides(); ++i) {
    const RideId id = ride_at(i);
    const RideRegistration* reg = live.RegistrationOf(id);
    if (reg == nullptr) continue;
    const Ride& ride = *xar.GetRide(id);
    const std::size_t words =
        std::max<std::size_t>(1, (reg->pass_throughs.size() + 63) / 64);
    struct Support {
      double eta;
      std::vector<std::uint64_t> mask;
    };
    std::map<ClusterId, Support> expected;  // min ETA and mask per cluster
    auto offer = [&](ClusterId c, double eta, std::size_t k) {
      auto [it, inserted] =
          expected.emplace(c, Support{eta, std::vector<std::uint64_t>(words)});
      if (!inserted) it->second.eta = std::min(it->second.eta, eta);
      it->second.mask[k / 64] |= std::uint64_t{1} << (k % 64);
    };
    for (std::size_t k = 0; k < reg->pass_throughs.size(); ++k) {
      const PassThroughCluster& pt = reg->pass_throughs[k];
      offer(pt.cluster, pt.eta_s, k);
      for (ClusterId reachable : pt.reachable) {
        const double travel = region.ClusterDistance(pt.cluster, reachable) /
                              region.nominal_speed_mps();
        offer(reachable, pt.eta_s + travel, k);
      }
      const LandmarkId next = region.LandmarkOfGrid(region.GridOfPoint(
          graph.PositionOf(ride.via_points.at(pt.segment + 1).node)));
      const ClusterId next_cluster =
          next.valid() ? region.ClusterOfLandmark(next) : ClusterId::Invalid();
      double here_to_next = 0.0;
      if (pt.landmark.valid() && next.valid()) {
        here_to_next =
            region.landmark_metric().At(pt.landmark.value(), next.value());
      } else if (next_cluster.valid()) {
        here_to_next = region.ClusterDistance(pt.cluster, next_cluster);
      }
      if (pt.next_landmark != next || pt.next_cluster != next_cluster ||
          !SameBits(pt.here_to_next_m, here_to_next)) {
        return ::testing::AssertionFailure()
               << "ride " << id.value() << ": pass-through " << k
               << " of segment " << pt.segment << " caches next landmark "
               << pt.next_landmark.value() << " at " << pt.here_to_next_m
               << " m, its via-point gives " << next.value() << " at "
               << here_to_next << " m";
      }
    }
    if (reg->registered_support.size() != expected.size() * words) {
      return ::testing::AssertionFailure()
             << "ride " << id.value() << " holds "
             << reg->registered_support.size() << " support words, want "
             << expected.size() << " clusters x " << words;
    }
    if (expected.size() != reg->registered_clusters.size() ||
        expected.size() != reg->registered_eta_s.size()) {
      return ::testing::AssertionFailure()
             << "ride " << id.value() << " is registered under "
             << reg->registered_clusters.size() << " clusters with "
             << reg->registered_eta_s.size()
             << " ETA keys, its pass-throughs support " << expected.size();
    }
    std::size_t k = 0;
    for (const auto& [cluster, want] : expected) {
      const double want_eta = want.eta;
      const double key = reg->registered_eta_s[k];
      if (reg->registered_clusters[k] != cluster || !SameBits(key, want_eta)) {
        return ::testing::AssertionFailure()
               << "ride " << id.value() << " in cluster " << cluster.value()
               << ": stored key eta " << key
               << ", its pass-throughs give eta " << want_eta;
      }
      if (!std::equal(want.mask.begin(), want.mask.end(),
                      reg->registered_support.begin() + k * words)) {
        return ::testing::AssertionFailure()
               << "ride " << id.value() << " in cluster " << cluster.value()
               << ": support mask differs from its pass-throughs' supports";
      }
      ++k;
      // The entry sits where the binary search on (key, ride) looks.
      const PotentialRide* got = FindEntry(live.ListOf(cluster), id);
      const std::span<const PotentialRide> at_key =
          live.ListOf(cluster).EtaRange(key, key);
      if (got == nullptr || got < at_key.data() ||
          got >= at_key.data() + at_key.size() ||
          !SameBits(got->eta_s, key)) {
        return ::testing::AssertionFailure()
               << "ride " << id.value() << " in cluster " << cluster.value()
               << ": listed "
               << (got == nullptr ? "nowhere" : "off its key")
               << ", its pass-throughs give eta " << want_eta;
      }
    }
  }

  for (std::size_t c = 0; c < region.NumClusters(); ++c) {
    const ClusterId cluster(static_cast<ClusterId::underlying_type>(c));
    ::testing::AssertionResult same =
        SameEntries(live.ListOf(cluster).EtaRange(-kInf, kInf),
                    fresh.ListOf(cluster).EtaRange(-kInf, kInf), c);
    if (!same) return same;
  }
  return ::testing::AssertionSuccess();
}

/// Forwards every call to a ConcurrentXarSystem and after each call that
/// can change the index checks it against a rebuild, on every shard — every
/// time with `check_every_s` 0, else at most once per that many sim-seconds.
/// Keeps the first failure.
class RebuildCheckingTarget final : public SimTarget {
 public:
  RebuildCheckingTarget(ConcurrentXarSystem& xar, const RoadGraph& graph,
                        double check_every_s)
      : max_registered(xar.num_shards(), 0),
        xar_(&xar),
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
  /// Most rides registered at any check, per shard: proves the checks saw a
  /// live index on every shard.
  std::vector<std::size_t> max_registered;
  std::string first_failure;

 private:
  void Check(const char* after) {
    const double now = xar_->Now();
    if (checks > 0 && now < next_check_s_) return;
    next_check_s_ = now + check_every_s_;
    ++checks;
    for (std::size_t s = 0; s < xar_->num_shards(); ++s) {
      const XarSystem& shard = xar_->shard_system(s);
      max_registered[s] = std::max(max_registered[s],
                                   shard.match_index().NumRegisteredRides());
      if (!first_failure.empty()) continue;
      ::testing::AssertionResult same = IndexMatchesRebuild(shard, graph_);
      if (!same) {
        first_failure = "shard " + std::to_string(s) + " after " + after +
                        " at t=" + std::to_string(now) + ": " + same.message();
      }
    }
  }

  const ConcurrentXarSystem* xar_;
  const RoadGraph& graph_;
  const double check_every_s_;
  double next_check_s_ = 0.0;
  std::unique_ptr<SimTarget> inner_;
};

}  // namespace testing
}  // namespace xar

#endif  // XAR_TESTS_INDEX_CHECKERS_H_
