#include "sim/event_sim.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "graph/generator.h"
#include "graph/oracle.h"
#include "xar/concurrent_xar.h"
#include "xar/xar_system.h"

namespace xar {
namespace {

/// Edge traversals may still be draining after the last request; ticks and
/// refreshes keep running this long past it so late rides see live traffic.
constexpr double kDrainWindowS = 3600.0;

class XarSimTarget final : public SimTarget {
 public:
  explicit XarSimTarget(XarSystem& xar) : xar_(&xar) {}

  std::vector<RideMatch> Search(const RideRequest& request) const override {
    return xar_->Search(request);
  }
  Result<BookingRecord> SearchAndBook(const RideRequest& request) override {
    return xar_->SearchAndBook(request);
  }
  Result<RideId> CreateRide(const RideOffer& offer) override {
    return xar_->CreateRide(offer);
  }
  Status CancelBooking(RideId ride, RequestId request) override {
    return xar_->CancelBooking(ride, request);
  }
  Status ReportNoShow(RideId ride, RequestId request) override {
    return xar_->ReportNoShow(ride, request);
  }
  void AdvanceTime(double now_s) override { xar_->AdvanceTime(now_s); }
  RefreshStats RefreshDiscretization(const GraphDelta& delta) override {
    return xar_->RefreshDiscretization(delta);
  }
  Result<Ride> GetRide(RideId id) const override {
    const Ride* ride = xar_->GetRide(id);
    if (ride == nullptr) return Status::NotFound("unknown ride");
    return *ride;
  }
  std::uint64_t epoch() const override { return xar_->epoch(); }

 private:
  XarSystem* xar_;
};

class ConcurrentSimTarget final : public SimTarget {
 public:
  explicit ConcurrentSimTarget(ConcurrentXarSystem& xar) : xar_(&xar) {}

  std::vector<RideMatch> Search(const RideRequest& request) const override {
    return xar_->Search(request);
  }
  Result<BookingRecord> SearchAndBook(const RideRequest& request) override {
    return xar_->SearchAndBook(request);
  }
  Result<RideId> CreateRide(const RideOffer& offer) override {
    return xar_->CreateRide(offer);
  }
  Status CancelBooking(RideId ride, RequestId request) override {
    return xar_->CancelBooking(ride, request);
  }
  Status ReportNoShow(RideId ride, RequestId request) override {
    return xar_->ReportNoShow(ride, request);
  }
  void AdvanceTime(double now_s) override { xar_->AdvanceTime(now_s); }
  RefreshStats RefreshDiscretization(const GraphDelta& delta) override {
    return xar_->RefreshDiscretization(delta);
  }
  Result<Ride> GetRide(RideId id) const override { return xar_->GetRide(id); }
  std::uint64_t epoch() const override { return xar_->epoch(); }

 private:
  ConcurrentXarSystem* xar_;
};

}  // namespace

std::unique_ptr<SimTarget> MakeSimTarget(XarSystem& xar) {
  return std::make_unique<XarSimTarget>(xar);
}

std::unique_ptr<SimTarget> MakeSimTarget(ConcurrentXarSystem& xar) {
  return std::make_unique<ConcurrentSimTarget>(xar);
}

EventSim::EventSim(const RoadGraph& world, XarOptions system_options,
                   ScenarioConfig config)
    : world_(&world),
      system_options_(std::move(system_options)),
      config_(std::move(config)),
      rng_(config_.seed) {}

EventSim::~EventSim() = default;

void EventSim::Push(double time_s, EventKind kind, std::size_t trip_index,
                    RideId ride, RequestId request) {
  Event event;
  event.time_s = time_s;
  event.seq = next_seq_++;
  event.kind = kind;
  event.trip_index = trip_index;
  event.ride = ride;
  event.request = request;
  queue_.push(event);
}

void EventSim::Mix(std::uint64_t value) {
  // boost::hash_combine-style mixing; order-sensitive by construction.
  fingerprint_ ^=
      value + 0x9e3779b97f4a7c15ULL + (fingerprint_ << 6) + (fingerprint_ >> 2);
}

void EventSim::MixTime(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  Mix(bits);
}

double EventSim::RushFactor(double time_s) const {
  double hour = std::fmod(time_s / 3600.0, 24.0);
  if (hour < 0.0) hour += 24.0;
  // Two Gaussian peaks: morning (8:30, sigma 1.5h) and evening (17:30,
  // sigma 2h). At the peak the whole city slows by rush_amplitude.
  const double morning = std::exp(-0.5 * ((hour - 8.5) / 1.5) *
                                  ((hour - 8.5) / 1.5));
  const double evening = std::exp(-0.5 * ((hour - 17.5) / 2.0) *
                                  ((hour - 17.5) / 2.0));
  return 1.0 +
         config_.traffic.rush_amplitude * std::max(morning, evening);
}

std::uint64_t EventSim::StreetKey(NodeId from, NodeId to) {
  // One key per unordered endpoint pair: both directions of a street share
  // load, keeping the congestion factor symmetric per street.
  const std::uint64_t lo = std::min(from.value(), to.value());
  const std::uint64_t hi = std::max(from.value(), to.value());
  return (lo << 32) | hi;
}

double EventSim::CongestionFactor(NodeId from, NodeId to,
                                  double time_s) const {
  double load = 0.0;
  auto it = street_loads_.find(StreetKey(from, to));
  if (it != street_loads_.end()) load = it->second;
  const double factor =
      RushFactor(time_s) * (1.0 + config_.traffic.load_alpha * load);
  return std::clamp(factor, 1.0, config_.traffic.max_factor);
}

void EventSim::StartMotion(const Ride& ride) {
  if (ride.route.nodes.empty() || motion_.count(ride.id) != 0) return;
  MotionState state;
  state.at_node = ride.route.nodes.front();
  state.hint_index = 0;
  state.promised_arrival_s = ride.ArrivalTimeS();
  motion_.emplace(ride.id, state);
  Push(ride.departure_time_s, EventKind::kEdgeArrive, 0, ride.id,
       RequestId::Invalid());
}

void EventSim::OnBooked(const BookingRecord& record, double now_s,
                        EventSimResult* result) {
  if (result->refreshes == 0) ++result->bookings_before_first_refresh;
  // Always burn all three uniforms so the RNG stream stays aligned whatever
  // the probabilities — part of the bit-determinism contract.
  const double u_cancel = rng_.NextDouble();
  const double u_no_show = rng_.NextDouble();
  const double u_when = rng_.NextDouble();
  if (u_cancel < config_.events.cancel_probability &&
      record.pickup_eta_s > now_s) {
    // Cancel somewhere strictly before the pickup ETA.
    Push(now_s + u_when * (record.pickup_eta_s - now_s), EventKind::kCancel,
         0, record.ride, record.request);
  } else if (u_no_show < config_.events.no_show_probability) {
    // No-show is discovered when the vehicle reaches the pickup.
    Push(std::max(now_s, record.pickup_eta_s), EventKind::kNoShow, 0,
         record.ride, record.request);
  }
  Mix(record.ride.value());
  Mix(record.request.value());
  MixTime(record.pickup_eta_s);
  MixTime(record.dropoff_eta_s);
  MixTime(record.actual_detour_m);
}

void EventSim::HandleRequest(SimTarget& target, const Event& event,
                             const std::vector<TaxiTrip>& trips,
                             EventSimResult* result) {
  const TaxiTrip& trip = trips[event.trip_index];
  ++result->requests;
  if (config_.protocol.advance_time) target.AdvanceTime(trip.pickup_time_s);

  RideRequest request;
  request.id = trip.id;
  request.source = trip.pickup;
  request.destination = trip.dropoff;
  request.earliest_departure_s = trip.pickup_time_s;
  request.latest_departure_s = trip.pickup_time_s + config_.protocol.window_s;
  request.walk_limit_m = config_.protocol.walk_limit_m;

  const bool book_now = ++since_last_book_ >= config_.protocol.look_to_book;
  if (book_now) {
    Result<BookingRecord> booked = target.SearchAndBook(request);
    if (booked.ok()) {
      since_last_book_ = 0;
      ++result->matched;
      OnBooked(*booked, trip.pickup_time_s, result);
      result->bookings.push_back(*booked);
      const double walk_s = booked->walk_m / kWalkSpeedMps;
      result->metrics.AddTrip(
          booked->dropoff_eta_s - trip.pickup_time_s + walk_s, walk_s,
          std::max(0.0, booked->pickup_eta_s - trip.pickup_time_s));
      return;
    }
    Mix(0);
  } else {
    // A look-only turn still exercises the search path (look-to-book).
    Mix(target.Search(request).size());
  }

  // Fixed-fleet mode: commuters never become drivers; the fleet registered
  // at Run() start is the whole supply.
  if (config_.fleet > 0) {
    ++result->metrics.requests_unserved;
    return;
  }

  // No booking: the commuter drives and offers the ride for sharing.
  OfferRide(target, trip, result);
}

Result<RideId> EventSim::OfferRide(SimTarget& target, const TaxiTrip& trip,
                                   EventSimResult* result) {
  RideOffer offer;
  offer.source = trip.pickup;
  offer.destination = trip.dropoff;
  offer.departure_time_s = trip.pickup_time_s;
  Result<RideId> ride = target.CreateRide(offer);
  if (!ride.ok()) {
    ++result->metrics.requests_unserved;
    return ride;
  }
  ++result->rides_created;
  ++result->metrics.cars_used;
  // GetRide can miss after a successful create if tracking retired the ride
  // in the same tick; the car still counted.
  Result<Ride> created = target.GetRide(*ride);
  result->metrics.AddTrip(created.ok() ? created->route.time_s : 0.0, 0.0,
                          0.0);
  if (created.ok()) StartMotion(created.value());
  return ride;
}

void EventSim::HandleEdgeArrive(SimTarget& target, const Event& event,
                                EventSimResult* result) {
  auto it = motion_.find(event.ride);
  if (it == motion_.end()) return;
  MotionState& state = it->second;
  Result<Ride> got = target.GetRide(event.ride);
  if (!got.ok() || got.value().route.nodes.empty()) {
    motion_.erase(it);
    return;
  }
  const Ride& ride = got.value();
  const std::vector<NodeId>& nodes = ride.route.nodes;
  // The latest promise; the delta against world arrival is the ETA error.
  state.promised_arrival_s = ride.ArrivalTimeS();

  // Re-anchor the cursor: bookings splice the route and cancellations
  // rebuild it, so the node index may have shifted since the last event.
  std::size_t at = nodes.size();
  if (state.hint_index < nodes.size() &&
      nodes[state.hint_index] == state.at_node) {
    at = state.hint_index;
  } else {
    // Pick the occurrence of the current node nearest the old index (routes
    // may revisit a node); fall back to clamping the old index.
    std::size_t best_distance = std::numeric_limits<std::size_t>::max();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i] != state.at_node) continue;
      const std::size_t distance = i > state.hint_index
                                       ? i - state.hint_index
                                       : state.hint_index - i;
      if (distance < best_distance) {
        best_distance = distance;
        at = i;
      }
    }
    if (at == nodes.size()) {
      at = std::min<std::size_t>(state.hint_index, nodes.size() - 1);
      state.at_node = nodes[at];
    }
  }

  if (at + 1 >= nodes.size()) {
    // The vehicle reached its destination in the world. Compare with the
    // system's promise: this is the staleness signal the refresh cadence
    // is supposed to shrink.
    eta_error_sum_s_ += std::abs(event.time_s - state.promised_arrival_s);
    ++result->eta_samples;
    MixTime(event.time_s);
    motion_.erase(it);
    return;
  }

  const NodeId from = nodes[at];
  const NodeId to = nodes[at + 1];
  double base_time_s = 0.0;
  for (const RoadEdge& edge : world_->OutEdges(from)) {
    if (edge.to == to && edge.drivable) {
      base_time_s = edge.time_s;
      break;
    }
  }
  if (base_time_s <= 0.0) base_time_s = 1.0;  // defensive; routes are drivable
  const double dt = base_time_s * CongestionFactor(from, to, event.time_s);
  street_loads_[StreetKey(from, to)] += 1.0;
  ++result->edge_traversals;
  state.at_node = to;
  state.hint_index = static_cast<std::uint32_t>(at + 1);
  Push(event.time_s + dt, EventKind::kEdgeArrive, 0, event.ride,
       RequestId::Invalid());
}

void EventSim::HandleRefresh(SimTarget& target, const Event& event,
                             EventSimResult* result) {
  // Materialize the congested world as a weight-scaled graph (same nodes
  // and arcs — the GraphDelta contract) plus a fresh oracle over it, then
  // feed the pair through the live refresh path: region rebuild, atomic
  // epoch swap, ride re-homing, route re-profiling (reroute-on-refresh).
  const double now_s = event.time_s;
  auto graph = std::make_unique<RoadGraph>(
      ScaleEdgeWeights(*world_, [this, now_s](NodeId from, NodeId to) {
        return CongestionFactor(from, to, now_s);
      }));
  auto oracle = std::make_unique<GraphOracle>(
      *graph, /*cache_capacity=*/1 << 16, system_options_.routing_backend,
      system_options_.BackendOptions(), system_options_.oracle_cache);
  GraphDelta delta;
  delta.graph = graph.get();
  delta.oracle = oracle.get();
  RefreshStats stats = target.RefreshDiscretization(delta);
  refresh_graphs_.push_back(std::move(graph));
  refresh_oracles_.push_back(std::move(oracle));
  ++result->refreshes;
  bookings_at_last_refresh_ = result->matched;
  Mix(stats.epoch);
}

EventSimResult EventSim::Run(SimTarget& target,
                             const std::vector<TaxiTrip>& trips) {
  queue_ = {};
  next_seq_ = 0;
  rng_ = Rng(config_.seed);
  fingerprint_ = 0;
  street_loads_.clear();
  motion_.clear();
  since_last_book_ = 0;
  bookings_at_last_refresh_ = 0;
  eta_error_sum_s_ = 0.0;

  EventSimResult result;
  // At most one rider/car sample per trip.
  result.metrics.travel_s.Reserve(trips.size());
  result.metrics.walk_s.Reserve(trips.size());
  result.metrics.wait_s.Reserve(trips.size());
  if (trips.empty()) {
    result.final_epoch = target.epoch();
    return result;
  }

  const double start_s = trips.front().pickup_time_s;
  const double horizon_s =
      trips.back().pickup_time_s + config_.protocol.window_s + kDrainWindowS;
  // Fixed-fleet mode: the first `fleet` trips are the drivers. Register
  // each as a moving offer up front; only the remaining trips become
  // requests. With fleet == 0 this degenerates to the classic stream.
  const std::size_t fleet = std::min<std::size_t>(config_.fleet, trips.size());
  for (std::size_t i = 0; i < fleet; ++i) {
    Result<RideId> ride = OfferRide(target, trips[i], &result);
    Mix(ride.ok() ? (*ride).value() + 1 : 0);
  }
  for (std::size_t i = fleet; i < trips.size(); ++i) {
    Push(trips[i].pickup_time_s, EventKind::kRequest, i, RideId::Invalid(),
         RequestId::Invalid());
  }
  if (config_.traffic.tick_period_s > 0.0) {
    for (double t = start_s + config_.traffic.tick_period_s; t <= horizon_s;
         t += config_.traffic.tick_period_s) {
      Push(t, EventKind::kTrafficTick, 0, RideId::Invalid(),
           RequestId::Invalid());
    }
  }
  // Refreshes fire only while requests are still arriving: epoch swaps are
  // interesting under booking traffic, and a CH rebuild during the quiet
  // drain window would be wasted work.
  if (config_.refresh_period_s > 0.0) {
    for (double t = start_s + config_.refresh_period_s;
         t <= trips.back().pickup_time_s; t += config_.refresh_period_s) {
      Push(t, EventKind::kRefresh, 0, RideId::Invalid(), RequestId::Invalid());
    }
  }

  while (!queue_.empty()) {
    const Event event = queue_.top();
    queue_.pop();
    Mix(static_cast<std::uint64_t>(event.kind) + 1);
    MixTime(event.time_s);
    switch (event.kind) {
      case EventKind::kRequest:
        HandleRequest(target, event, trips, &result);
        break;
      case EventKind::kEdgeArrive:
        HandleEdgeArrive(target, event, &result);
        break;
      case EventKind::kCancel: {
        ++result.cancels_attempted;
        const Status status = target.CancelBooking(event.ride, event.request);
        if (status.ok()) ++result.cancels_succeeded;
        Mix(status.ok() ? 1 : 0);
        break;
      }
      case EventKind::kNoShow: {
        ++result.no_shows_attempted;
        const Status status = target.ReportNoShow(event.ride, event.request);
        if (status.ok()) ++result.no_shows_succeeded;
        Mix(status.ok() ? 1 : 0);
        break;
      }
      case EventKind::kTrafficTick: {
        ++result.traffic_ticks;
        if (config_.protocol.advance_time) target.AdvanceTime(event.time_s);
        // Decay street loads; drop the tail so the map stays proportional
        // to *recently* busy streets, not every street ever driven.
        for (auto it = street_loads_.begin(); it != street_loads_.end();) {
          it->second *= config_.traffic.load_decay;
          if (it->second < 1e-3) {
            it = street_loads_.erase(it);
          } else {
            ++it;
          }
        }
        break;
      }
      case EventKind::kRefresh:
        HandleRefresh(target, event, &result);
        break;
    }
  }

  result.final_epoch = target.epoch();
  result.bookings_after_last_refresh =
      result.matched - bookings_at_last_refresh_;
  if (result.eta_samples > 0) {
    result.mean_eta_error_s =
        eta_error_sum_s_ / static_cast<double>(result.eta_samples);
  }
  if (!result.bookings.empty()) {
    double detour_sum = 0.0;
    double walk_sum = 0.0;
    for (const BookingRecord& booking : result.bookings) {
      detour_sum += booking.actual_detour_m;
      walk_sum += booking.walk_m;
    }
    result.mean_actual_detour_m =
        detour_sum / static_cast<double>(result.bookings.size());
    result.mean_walk_m = walk_sum / static_cast<double>(result.bookings.size());
  }
  Mix(result.requests);
  Mix(result.matched);
  Mix(result.rides_created);
  Mix(result.edge_traversals);
  Mix(result.refreshes);
  Mix(result.cancels_succeeded);
  Mix(result.no_shows_succeeded);
  Mix(result.final_epoch);
  result.fingerprint = fingerprint_;
  return result;
}

EventSimResult RunEventSim(XarSystem& xar, EventSim& sim,
                           const std::vector<TaxiTrip>& trips) {
  std::unique_ptr<SimTarget> target = MakeSimTarget(xar);
  return sim.Run(*target, trips);
}

EventSimResult RunEventSim(ConcurrentXarSystem& xar, EventSim& sim,
                           const std::vector<TaxiTrip>& trips) {
  std::unique_ptr<SimTarget> target = MakeSimTarget(xar);
  return sim.Run(*target, trips);
}

}  // namespace xar
