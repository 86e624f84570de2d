// Differential suite for the route rewrite (RewriteRoute and its callers).
// Every call that re-threads a ride — CreateRide, the splice Book, cancel /
// no-show, the kinetic plan and a graph-delta refresh — is replayed against
// a test-local reference that writes each call site's route change out in
// full (`Ref*` below). After every call each ride's route nodes, cumulative
// profiles, route totals, via-points, via route indices, spent detour and
// free seats, and every field of the booking record, must be bit-equal to
// the reference.
//
// Three systems replay the same seeded book / cancel / no-show / advance /
// refresh streams: a splice and a kinetic_booking one-shard
// ConcurrentXarSystem (read through its shard) and
// TShareSystem (create, book and advance; T-Share has no cancel or
// refresh). T-Share's records are compared without `seats` and
// `budget_before_m`, so the suite also runs against T-Share builds that
// leave them at their defaults; TShareTest.RecordCarriesSeatsAndBudgetBefore
// pins them.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "graph/generator.h"
#include "graph/oracle.h"
#include "tests/test_helpers.h"
#include "tshare/tshare_system.h"
#include "xar/concurrent_xar.h"
#include "xar/route_utils.h"
#include "xar/xar_system.h"

namespace xar {
namespace {

using testing::SharedCity;

constexpr double kStart = 8 * 3600.0;
constexpr std::size_t kOpsPerSeed = 160;

// ---------------------------------------------------------------------------
// Bitwise comparison.

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

::testing::AssertionResult SameDouble(const char* what, double want,
                                      double got) {
  if (Bits(want) == Bits(got)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << what << ": want " << want << ", got " << got << " (bits differ)";
}

::testing::AssertionResult SameDoubles(const char* what,
                                       const std::vector<double>& want,
                                       const std::vector<double>& got) {
  if (want.size() != got.size()) {
    return ::testing::AssertionFailure()
           << what << ": size " << got.size() << ", want " << want.size();
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (Bits(want[i]) != Bits(got[i])) {
      return ::testing::AssertionFailure()
             << what << "[" << i << "]: want " << want[i] << ", got "
             << got[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// The fields a route rewrite produces or charges.
::testing::AssertionResult SameRide(const Ride& want, const Ride& got) {
  if (want.route.nodes != got.route.nodes) {
    return ::testing::AssertionFailure()
           << "ride " << want.id.value() << ": route nodes differ ("
           << got.route.nodes.size() << " vs want " << want.route.nodes.size()
           << ")";
  }
  for (auto r : {SameDouble("route.length_m", want.route.length_m,
                            got.route.length_m),
                 SameDouble("route.time_s", want.route.time_s,
                            got.route.time_s),
                 SameDoubles("route_cum_time_s", want.route_cum_time_s,
                             got.route_cum_time_s),
                 SameDoubles("route_cum_dist_m", want.route_cum_dist_m,
                             got.route_cum_dist_m),
                 SameDouble("detour_used_m", want.detour_used_m,
                            got.detour_used_m)}) {
    if (!r) return r << " (ride " << want.id.value() << ")";
  }
  if (want.via_route_index != got.via_route_index) {
    return ::testing::AssertionFailure()
           << "ride " << want.id.value() << ": via_route_index differs";
  }
  if (want.via_points.size() != got.via_points.size()) {
    return ::testing::AssertionFailure()
           << "ride " << want.id.value() << ": " << got.via_points.size()
           << " via-points, want " << want.via_points.size();
  }
  for (std::size_t v = 0; v < want.via_points.size(); ++v) {
    const ViaPoint& a = want.via_points[v];
    const ViaPoint& b = got.via_points[v];
    if (a.node != b.node || a.request != b.request ||
        a.is_pickup != b.is_pickup || Bits(a.eta_s) != Bits(b.eta_s)) {
      return ::testing::AssertionFailure()
             << "ride " << want.id.value() << ": via-point " << v
             << " differs";
    }
  }
  if (want.seats_available != got.seats_available) {
    return ::testing::AssertionFailure()
           << "ride " << want.id.value() << ": seats_available "
           << got.seats_available << ", want " << want.seats_available;
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameRecord(const BookingRecord& want,
                                      const BookingRecord& got,
                                      bool compare_seat_fields) {
  if (want.request != got.request || want.ride != got.ride ||
      want.pickup_node != got.pickup_node ||
      want.dropoff_node != got.dropoff_node) {
    return ::testing::AssertionFailure() << "record identity differs";
  }
  if (want.shortest_path_computations != got.shortest_path_computations) {
    return ::testing::AssertionFailure()
           << "record shortest_path_computations "
           << got.shortest_path_computations << ", want "
           << want.shortest_path_computations;
  }
  for (auto r : {SameDouble("actual_detour_m", want.actual_detour_m,
                            got.actual_detour_m),
                 SameDouble("estimated_detour_m", want.estimated_detour_m,
                            got.estimated_detour_m),
                 SameDouble("walk_m", want.walk_m, got.walk_m),
                 SameDouble("pickup_eta_s", want.pickup_eta_s,
                            got.pickup_eta_s),
                 SameDouble("dropoff_eta_s", want.dropoff_eta_s,
                            got.dropoff_eta_s)}) {
    if (!r) return r;
  }
  if (compare_seat_fields) {
    if (want.seats != got.seats) {
      return ::testing::AssertionFailure() << "record seats differ";
    }
    auto r = SameDouble("budget_before_m", want.budget_before_m,
                        got.budget_before_m);
    if (!r) return r;
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// Reference: each call site's route change, written out in full.

/// CreateRide's route setup (both systems): one shortest path, the oracle
/// Path's own totals, source and destination via-points.
void RefCreate(const RoadGraph& graph, DistanceOracle& oracle, Ride& ride) {
  Path route = oracle.DriveRoute(ride.source, ride.destination);
  ASSERT_TRUE(route.Found());
  ride.route = std::move(route);
  BuildCumulativeProfiles(graph, ride.route.nodes, &ride.route_cum_time_s,
                          &ride.route_cum_dist_m);
  ViaPoint start{ride.source, ride.departure_time_s, RequestId::Invalid(),
                 false};
  ViaPoint end{ride.destination,
               ride.departure_time_s + ride.route_cum_time_s.back(),
               RequestId::Invalid(), false};
  ride.via_points = {start, end};
  ride.via_route_index = {0, ride.route.nodes.size() - 1};
}

/// The booking splice (paper Section VIII-B), XarSystem::Book and
/// TShareSystem::Book: pickup after via `s`, drop-off after via `d`, the
/// four legs around them fresh, every other span copied. Returns the
/// shortest-path count; `*actual_detour` gets the charged detour.
std::size_t RefSplice(const RoadGraph& graph, DistanceOracle& oracle,
                      Ride& ride, std::size_t s, std::size_t d, NodeId pickup,
                      NodeId dropoff, const RideRequest& request,
                      double* actual_detour) {
  double old_length = ride.route_cum_dist_m.back();
  std::size_t sp_count = 0;
  std::vector<NodeId> new_nodes;
  std::vector<ViaPoint> new_vias;
  std::vector<std::size_t> new_via_idx;
  auto copy_route_span = [&](std::size_t from_idx, std::size_t to_idx) {
    for (std::size_t r = from_idx; r <= to_idx; ++r) {
      if (!new_nodes.empty() && new_nodes.back() == ride.route.nodes[r])
        continue;
      new_nodes.push_back(ride.route.nodes[r]);
    }
  };
  auto splice_leg = [&](NodeId from, NodeId to) {
    if (from == to) return;
    ++sp_count;
    Path leg = oracle.DriveRoute(from, to);
    EXPECT_TRUE(leg.Found());
    AppendPathNodes(&new_nodes, leg.nodes);
  };
  ViaPoint pickup_via{pickup, 0.0, request.id, true};
  ViaPoint dropoff_via{dropoff, 0.0, request.id, false};

  copy_route_span(0, ride.via_route_index[s]);
  for (std::size_t v = 0; v <= s; ++v) {
    new_vias.push_back(ride.via_points[v]);
    new_via_idx.push_back(ride.via_route_index[v]);
  }
  splice_leg(ride.via_points[s].node, pickup);
  new_vias.push_back(pickup_via);
  new_via_idx.push_back(new_nodes.size() - 1);
  std::size_t tail = s + 1;  // first old via after the drop-off
  if (s == d) {
    splice_leg(pickup, dropoff);
  } else {
    splice_leg(pickup, ride.via_points[s + 1].node);
    std::size_t anchor = new_nodes.size() - 1;
    copy_route_span(ride.via_route_index[s + 1], ride.via_route_index[d]);
    for (std::size_t v = s + 1; v <= d; ++v) {
      new_vias.push_back(ride.via_points[v]);
      new_via_idx.push_back(anchor + (ride.via_route_index[v] -
                                      ride.via_route_index[s + 1]));
    }
    splice_leg(ride.via_points[d].node, dropoff);
    tail = d + 1;
  }
  new_vias.push_back(dropoff_via);
  new_via_idx.push_back(new_nodes.size() - 1);
  splice_leg(dropoff, ride.via_points[tail].node);
  std::size_t resume = new_nodes.size() - 1;
  copy_route_span(ride.via_route_index[tail], ride.route.nodes.size() - 1);
  for (std::size_t v = tail; v < ride.via_points.size(); ++v) {
    new_vias.push_back(ride.via_points[v]);
    new_via_idx.push_back(resume + (ride.via_route_index[v] -
                                    ride.via_route_index[tail]));
  }

  ride.route.nodes = std::move(new_nodes);
  BuildCumulativeProfiles(graph, ride.route.nodes, &ride.route_cum_time_s,
                          &ride.route_cum_dist_m);
  ride.route.length_m = ride.route_cum_dist_m.back();
  ride.route.time_s = ride.route_cum_time_s.back();
  ride.via_points = std::move(new_vias);
  ride.via_route_index = std::move(new_via_idx);
  for (std::size_t v = 0; v < ride.via_points.size(); ++v) {
    ride.via_points[v].eta_s =
        ride.departure_time_s + ride.route_cum_time_s[ride.via_route_index[v]];
  }
  *actual_detour = std::max(0.0, ride.route_cum_dist_m.back() - old_length);
  ride.detour_used_m += *actual_detour;
  ride.seats_available -= request.seats;
  return sp_count;
}

/// The splice path's cancel / no-show re-route: fresh legs through the
/// remaining via-points, the freed length refunded to the detour budget.
void RefSpliceRemove(const RoadGraph& graph, DistanceOracle& oracle,
                     Ride& ride, RequestId request, int seats) {
  std::vector<ViaPoint> kept;
  for (const ViaPoint& vp : ride.via_points) {
    if (vp.request != request) kept.push_back(vp);
  }
  std::vector<NodeId> new_nodes;
  std::vector<std::size_t> new_via_idx;
  for (std::size_t v = 0; v < kept.size(); ++v) {
    if (v == 0) {
      new_nodes.push_back(kept[0].node);
    } else if (kept[v].node != new_nodes.back()) {
      Path leg = oracle.DriveRoute(new_nodes.back(), kept[v].node);
      EXPECT_TRUE(leg.Found());
      AppendPathNodes(&new_nodes, leg.nodes);
    }
    new_via_idx.push_back(new_nodes.size() - 1);
  }
  double old_length = ride.route_cum_dist_m.back();
  ride.route.nodes = std::move(new_nodes);
  BuildCumulativeProfiles(graph, ride.route.nodes, &ride.route_cum_time_s,
                          &ride.route_cum_dist_m);
  ride.route.length_m = ride.route_cum_dist_m.back();
  ride.route.time_s = ride.route_cum_time_s.back();
  ride.via_points = std::move(kept);
  ride.via_route_index = std::move(new_via_idx);
  for (std::size_t v = 0; v < ride.via_points.size(); ++v) {
    ride.via_points[v].eta_s =
        ride.departure_time_s + ride.route_cum_time_s[ride.via_route_index[v]];
  }
  double freed = std::max(0.0, old_length - ride.route.length_m);
  ride.detour_used_m = std::max(0.0, ride.detour_used_m - freed);
  ride.seats_available = std::min(ride.seats_total, ride.seats_available + seats);
}

/// The kinetic plan: source, committed stops, the best schedule's stops and
/// destination, every leg fresh; all detour beyond the driver's own
/// shortest path is charged. Returns the leg count.
std::size_t RefKineticPlan(const RoadGraph& graph, DistanceOracle& oracle,
                           Ride& ride, const RideSchedule& schedule) {
  Schedule best = schedule.Best();
  std::vector<ScheduleStop> stops(schedule.committed());
  stops.insert(stops.end(), best.stops.begin(), best.stops.end());
  std::vector<NodeId> order = {ride.source};
  for (const ScheduleStop& stop : stops) order.push_back(stop.node);
  order.push_back(ride.destination);

  std::size_t legs = 0;
  std::vector<NodeId> new_nodes = {order.front()};
  std::vector<std::size_t> stop_route_idx = {0};
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (order[i] != new_nodes.back()) {
      ++legs;
      Path leg = oracle.DriveRoute(new_nodes.back(), order[i]);
      EXPECT_TRUE(leg.Found());
      AppendPathNodes(&new_nodes, leg.nodes);
    }
    stop_route_idx.push_back(new_nodes.size() - 1);
  }
  std::vector<double> cum_time, cum_dist;
  BuildCumulativeProfiles(graph, new_nodes, &cum_time, &cum_dist);
  double base_length = oracle.DriveDistance(ride.source, ride.destination);
  double detour_used = std::max(0.0, cum_dist.back() - base_length);

  ride.route.nodes = std::move(new_nodes);
  ride.route_cum_time_s = std::move(cum_time);
  ride.route_cum_dist_m = std::move(cum_dist);
  ride.route.length_m = ride.route_cum_dist_m.back();
  ride.route.time_s = ride.route_cum_time_s.back();
  std::vector<ViaPoint> vias;
  std::vector<std::size_t> via_idx;
  vias.push_back(ViaPoint{ride.source, ride.departure_time_s,
                          RequestId::Invalid(), false});
  via_idx.push_back(0);
  for (std::size_t i = 0; i < stops.size(); ++i) {
    vias.push_back(
        ViaPoint{stops[i].node, 0.0, stops[i].request, stops[i].is_pickup});
    via_idx.push_back(stop_route_idx[i + 1]);
  }
  vias.push_back(ViaPoint{ride.destination, 0.0, RequestId::Invalid(), false});
  via_idx.push_back(ride.route.nodes.size() - 1);
  ride.via_points = std::move(vias);
  ride.via_route_index = std::move(via_idx);
  for (std::size_t v = 0; v < ride.via_points.size(); ++v) {
    ride.via_points[v].eta_s =
        ride.departure_time_s + ride.route_cum_time_s[ride.via_route_index[v]];
  }
  ride.detour_used_m = detour_used;
  return legs;
}

/// A graph-delta refresh of a splice ride: the same nodes re-profiled on
/// the new weights.
void RefReprofile(const RoadGraph& graph, Ride& ride) {
  BuildCumulativeProfiles(graph, ride.route.nodes, &ride.route_cum_time_s,
                          &ride.route_cum_dist_m);
  ride.route.length_m = ride.route_cum_dist_m.back();
  ride.route.time_s = ride.route_cum_time_s.back();
  for (std::size_t v = 0; v < ride.via_points.size(); ++v) {
    ride.via_points[v].eta_s =
        ride.departure_time_s + ride.route_cum_time_s[ride.via_route_index[v]];
  }
}

/// The record both booking paths fill from the booked ride.
BookingRecord RefRecord(const Ride& booked, const RideRequest& request,
                        NodeId pickup, NodeId dropoff, double actual_detour,
                        double estimated, double budget_before, double walk,
                        std::size_t sp_count) {
  BookingRecord record;
  record.request = request.id;
  record.ride = booked.id;
  record.seats = request.seats;
  record.pickup_node = pickup;
  record.dropoff_node = dropoff;
  record.actual_detour_m = actual_detour;
  record.estimated_detour_m = estimated;
  record.budget_before_m = budget_before;
  record.walk_m = walk;
  record.shortest_path_computations = sp_count;
  for (const ViaPoint& vp : booked.via_points) {
    if (vp.request == request.id) {
      (vp.is_pickup ? record.pickup_eta_s : record.dropoff_eta_s) = vp.eta_s;
    }
  }
  return record;
}

// ---------------------------------------------------------------------------
// The op stream: a pure function of the seed.

LatLng Frac(double fy, double fx) {
  const BoundingBox& b = SharedCity().graph.bounds();
  return {b.min_lat + fy * (b.max_lat - b.min_lat),
          b.min_lng + fx * (b.max_lng - b.min_lng)};
}

struct Op {
  enum Kind { kCreate, kBook, kCancel, kNoShow, kAdvance, kRefresh };
  Kind kind = kBook;
  RideOffer offer;           // kCreate
  RideRequest request;       // kBook
  std::uint64_t pick = 0;    // kBook (match), kCancel / kNoShow (booking)
  double advance_to = 0.0;   // kAdvance
  std::uint64_t graph_seed = 0;  // kRefresh; 0 = an empty delta
};

std::vector<Op> MakeOps(std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 7);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<Op> ops;
  double now = kStart;
  std::uint32_t next_request = 1;
  // A fleet up front, so the first bookings have rides to land on.
  for (int f = 0; f < 4; ++f) {
    Op op;
    op.kind = Op::kCreate;
    const double off = 0.04 * f;
    op.offer.source = Frac(0.05 + off, 0.05);
    op.offer.destination = Frac(0.95, 0.95 - off);
    op.offer.departure_time_s = kStart + 60.0 * f;
    op.offer.detour_limit_m = 6000;
    ops.push_back(op);
  }
  for (std::size_t i = 0; i < kOpsPerSeed; ++i) {
    const double dice = u(rng);
    Op op;
    if (dice < 0.08) {
      op.kind = Op::kCreate;
      const double a = 0.05 + 0.3 * u(rng);
      const double b = 0.65 + 0.3 * u(rng);
      const bool flip = u(rng) < 0.3;
      op.offer.source = flip ? Frac(b, a) : Frac(a, a + 0.1 * u(rng));
      op.offer.destination = flip ? Frac(a, b) : Frac(b, b - 0.1 * u(rng));
      op.offer.departure_time_s = now + 300 * u(rng);
      op.offer.detour_limit_m = 3000 + 5000 * u(rng);
    } else if (dice < 0.58) {
      op.kind = Op::kBook;
      // Riders hug the fleet's diagonal so rides pool several of them.
      const double a = 0.10 + 0.50 * u(rng);
      const double b = std::min(0.95, a + 0.10 + 0.30 * u(rng));
      const double jitter = 0.08 * (u(rng) - 0.5);
      op.request.id = RequestId(next_request++);
      op.request.source = Frac(a + jitter, a - jitter);
      op.request.destination = Frac(b - jitter, b + jitter);
      op.request.earliest_departure_s = now;
      op.request.latest_departure_s = now + 2400;
      op.request.seats = u(rng) < 0.25 ? 2 : 1;
      op.pick = rng();
    } else if (dice < 0.70) {
      op.kind = Op::kCancel;
      op.pick = rng();
    } else if (dice < 0.78) {
      op.kind = Op::kNoShow;
      op.pick = rng();
    } else if (dice < 0.95) {
      op.kind = Op::kAdvance;
      now += 30 + 90 * u(rng);
      op.advance_to = now;
    } else {
      op.kind = Op::kRefresh;
      op.graph_seed = u(rng) < 0.2 ? 0 : rng() | 1;
    }
    ops.push_back(op);
  }
  return ops;
}

struct Booked {
  RideId ride;
  RequestId request;
  int seats;
};

/// What one replay exercised, so no leg passes vacuously.
struct Coverage {
  std::size_t creates = 0;
  std::size_t bookings = 0;
  std::size_t multi_seat = 0;
  std::size_t same_segment = 0;   // splice: pickup and drop-off share a leg
  std::size_t split_segment = 0;  // splice: they do not
  std::size_t removals = 0;
  std::size_t refreshed_rides = 0;
};

// ---------------------------------------------------------------------------
// One-shard ConcurrentXarSystem, splice and kinetic.

::testing::AssertionResult AllRidesMatch(const XarSystem& xar,
                                         const std::vector<Ride>& want) {
  for (const Ride& w : want) {
    const Ride* got = xar.GetRide(w.id);
    if (got == nullptr) {
      return ::testing::AssertionFailure() << "ride " << w.id.value()
                                           << " missing";
    }
    ::testing::AssertionResult same = SameRide(w, *got);
    if (!same) return same;
  }
  return ::testing::AssertionSuccess();
}

Coverage ReplayXar(std::uint64_t seed, bool kinetic) {
  Coverage cov;
  World& city = SharedCity();
  // Refresh graphs and their oracles must outlive the system.
  std::vector<std::unique_ptr<RoadGraph>> graphs;
  std::vector<std::unique_ptr<GraphOracle>> oracles;
  oracles.push_back(std::make_unique<GraphOracle>(city.graph));
  const RoadGraph* graph = &city.graph;
  // The reference queries the system's own oracle: its one cached query
  // (the kinetic plan's DriveDistance) then reads the value the system just
  // read, which a batched matrix may have filled with other low bits than a
  // fresh point query would.
  GraphOracle* oracle = oracles.back().get();

  XarOptions options;
  options.kinetic_booking = kinetic;
  ConcurrentXarSystem system(city.graph, *city.spatial, *city.region, *oracle,
                             options, /*num_shards=*/1);
  // Calls go through the facade; the checks read the one shard behind it.
  const XarSystem& xar = system.shard_system(0);

  std::vector<Ride> want;  // by local index == ride id value
  std::vector<Booked> booked;
  std::size_t op_index = 0;
  for (const Op& op : MakeOps(seed)) {
    SCOPED_TRACE(::testing::Message() << "op " << op_index++);
    switch (op.kind) {
      case Op::kCreate: {
        Result<RideId> id = system.CreateRide(op.offer);
        if (!id.ok()) break;
        Ride ref = *xar.GetRide(*id);  // identity fields; route recomputed
        ref.route = Path{};
        RefCreate(*graph, *oracle, ref);
        want.push_back(ref);
        ++cov.creates;
        break;
      }
      case Op::kBook: {
        std::vector<RideMatch> matches = system.Search(op.request);
        if (matches.empty()) break;
        const RideMatch& m = matches[op.pick % matches.size()];
        const Ride before = *xar.GetRide(m.ride);
        std::size_t s = 0, d = 0;
        double estimate = 0.0;
        const bool segments = xar.match_index().ChooseInsertionSegments(
            before, m.source_cluster, m.pickup_landmark, m.dest_cluster,
            m.dropoff_landmark, &s, &d, &estimate);
        const NodeId pickup = xar.region().GetLandmark(m.pickup_landmark).node;
        const NodeId dropoff =
            xar.region().GetLandmark(m.dropoff_landmark).node;
        Result<BookingRecord> got = system.Book(m.ride, op.request, m);
        if (!got.ok()) break;  // the all-rides check below pins "untouched"
        EXPECT_TRUE(segments);
        Ride& ref = want[m.ride.value()];
        double actual = 0.0;
        std::size_t sp = 0;
        if (kinetic) {
          const RideSchedule* sched = xar.GetSchedule(m.ride);
          EXPECT_NE(sched, nullptr);
          if (sched == nullptr) break;
          sp = RefKineticPlan(*graph, *oracle, ref, *sched);
          ref.seats_available -= op.request.seats;
          actual = std::max(0.0, ref.route.length_m -
                                     before.route_cum_dist_m.back());
        } else {
          sp = RefSplice(*graph, *oracle, ref, s, d, pickup, dropoff,
                         op.request, &actual);
          EXPECT_LE(sp, 4u);
          ++(s == d ? cov.same_segment : cov.split_segment);
        }
        EXPECT_TRUE(SameRecord(
            RefRecord(ref, op.request, pickup, dropoff, actual,
                      m.detour_estimate_m, before.RemainingDetourBudget(),
                      m.TotalWalkM(), sp),
            *got, /*compare_seat_fields=*/true));
        booked.push_back({m.ride, op.request.id, op.request.seats});
        ++cov.bookings;
        if (op.request.seats > 1) ++cov.multi_seat;
        break;
      }
      case Op::kCancel:
      case Op::kNoShow: {
        // Scan from the pick until one removal lands: a rider already
        // picked up (or on a finished ride) legitimately stays booked.
        const std::size_t n = booked.size();
        for (std::size_t k = 0; k < n; ++k) {
          const std::size_t idx = (op.pick + k) % n;
          const Booked b = booked[idx];
          Status st = op.kind == Op::kCancel
                          ? system.CancelBooking(b.ride, b.request)
                          : system.ReportNoShow(b.ride, b.request);
          if (!st.ok()) continue;
          Ride& ref = want[b.ride.value()];
          const RideSchedule* sched = xar.GetSchedule(b.ride);
          if (sched != nullptr) {
            RefKineticPlan(*graph, *oracle, ref, *sched);
            ref.seats_available =
                std::min(ref.seats_total, ref.seats_available + b.seats);
          } else {
            RefSpliceRemove(*graph, *oracle, ref, b.request, b.seats);
          }
          booked.erase(booked.begin() + static_cast<std::ptrdiff_t>(idx));
          ++cov.removals;
          break;
        }
        break;
      }
      case Op::kAdvance:
        system.AdvanceTime(op.advance_to);
        break;
      case Op::kRefresh: {
        GraphDelta delta;
        if (op.graph_seed != 0) {
          graphs.push_back(std::make_unique<RoadGraph>(
              PerturbEdgeWeights(city.graph, 0.15, op.graph_seed)));
          oracles.push_back(std::make_unique<GraphOracle>(*graphs.back()));
          graph = graphs.back().get();
          oracle = oracles.back().get();
          delta.graph = graph;
          delta.oracle = oracle;
        }
        system.RefreshDiscretization(delta);
        if (op.graph_seed == 0) break;  // same metric: nothing re-threads
        for (Ride& ref : want) {
          const Ride* got = xar.GetRide(ref.id);
          if (!got->active) continue;
          const RideSchedule* sched = xar.GetSchedule(ref.id);
          if (sched != nullptr) {
            RefKineticPlan(*graph, *oracle, ref, *sched);
          } else {
            RefReprofile(*graph, ref);
          }
          ++cov.refreshed_rides;
        }
        break;
      }
    }
    EXPECT_TRUE(AllRidesMatch(xar, want));
    if (::testing::Test::HasFailure()) return cov;  // first divergence
  }
  return cov;
}

class RouteRewriteTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RouteRewriteTest, SpliceXarMatchesReference) {
  SCOPED_TRACE(::testing::Message() << "reproducing seed = " << GetParam());
  const Coverage cov = ReplayXar(GetParam(), /*kinetic=*/false);
  if (HasFailure()) return;
  EXPECT_GT(cov.bookings, 5u);
  EXPECT_GT(cov.multi_seat, 0u);
  EXPECT_GT(cov.same_segment, 0u);
  EXPECT_GT(cov.split_segment, 0u);
  EXPECT_GT(cov.removals, 0u);
  EXPECT_GT(cov.refreshed_rides, 0u);
}

TEST_P(RouteRewriteTest, KineticXarMatchesReference) {
  SCOPED_TRACE(::testing::Message() << "reproducing seed = " << GetParam());
  const Coverage cov = ReplayXar(GetParam(), /*kinetic=*/true);
  if (HasFailure()) return;
  EXPECT_GT(cov.bookings, 5u);
  EXPECT_GT(cov.multi_seat, 0u);
  EXPECT_GT(cov.removals, 0u);
  EXPECT_GT(cov.refreshed_rides, 0u);
}

// ---------------------------------------------------------------------------
// TShareSystem: create, splice book, advance.

TEST_P(RouteRewriteTest, TShareMatchesReference) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE(::testing::Message() << "reproducing seed = " << seed);
  World& city = SharedCity();
  GraphOracle oracle(city.graph);
  TShareSystem tshare(city.graph, *city.spatial, oracle);

  std::vector<Ride> want;
  Coverage cov;
  std::size_t op_index = 0;
  for (const Op& op : MakeOps(seed)) {
    SCOPED_TRACE(::testing::Message() << "op " << op_index++);
    switch (op.kind) {
      case Op::kCreate: {
        Result<RideId> id = tshare.CreateRide(op.offer);
        if (!id.ok()) break;
        Ride ref = *tshare.GetRide(*id);
        ref.route = Path{};
        RefCreate(city.graph, oracle, ref);
        want.push_back(ref);
        ++cov.creates;
        break;
      }
      case Op::kBook: {
        std::vector<TShareMatch> matches = tshare.Search(op.request, 8);
        if (matches.empty()) break;
        const TShareMatch& m = matches[op.pick % matches.size()];
        const Ride before = *tshare.GetRide(m.ride);
        Result<BookingRecord> got = tshare.Book(m.ride, op.request, m);
        if (!got.ok()) break;
        Ride& ref = want[m.ride.value()];
        const std::size_t s = m.pickup_segment;
        const std::size_t d = std::max(s, m.dropoff_segment);
        double actual = 0.0;
        const std::size_t sp =
            RefSplice(city.graph, oracle, ref, s, d, m.pickup_node,
                      m.dropoff_node, op.request, &actual);
        ++(s == d ? cov.same_segment : cov.split_segment);
        EXPECT_TRUE(SameRecord(
            RefRecord(ref, op.request, m.pickup_node, m.dropoff_node, actual,
                      m.detour_m, before.RemainingDetourBudget(), 0.0, sp),
            *got, /*compare_seat_fields=*/false));
        ++cov.bookings;
        if (op.request.seats > 1) ++cov.multi_seat;
        break;
      }
      case Op::kAdvance:
        tshare.AdvanceTime(op.advance_to);
        break;
      default:
        break;  // T-Share has no cancel, no-show or refresh
    }
    for (const Ride& w : want) {
      EXPECT_TRUE(SameRide(w, *tshare.GetRide(w.id)));
    }
    if (HasFailure()) return;
  }
  EXPECT_GT(cov.bookings, 5u);
  EXPECT_GT(cov.multi_seat, 0u);
  EXPECT_GT(cov.same_segment, 0u);
  EXPECT_GT(cov.split_segment, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouteRewriteTest,
                         ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace xar
