#ifndef XAR_SIM_EVENT_SIM_H_
#define XAR_SIM_EVENT_SIM_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "discretize/region_snapshot.h"
#include "graph/road_graph.h"
#include "sim/metrics.h"
#include "sim/scenario.h"
#include "workload/taxi_trip.h"
#include "xar/options.h"
#include "xar/ride.h"

namespace xar {

class XarSystem;
class ConcurrentXarSystem;
class GraphOracle;

/// The slice of the XAR surface the event sim drives, implemented over both
/// XarSystem and ConcurrentXarSystem (MakeSimTarget below) so one simulator
/// exercises the serial paths and the sharded/locking ones identically.
class SimTarget {
 public:
  virtual ~SimTarget() = default;

  virtual std::vector<RideMatch> Search(const RideRequest& request) const = 0;
  virtual Result<BookingRecord> SearchAndBook(const RideRequest& request) = 0;
  virtual Result<RideId> CreateRide(const RideOffer& offer) = 0;
  virtual Status CancelBooking(RideId ride, RequestId request) = 0;
  virtual Status ReportNoShow(RideId ride, RequestId request) = 0;
  virtual void AdvanceTime(double now_s) = 0;
  virtual RefreshStats RefreshDiscretization(const GraphDelta& delta) = 0;
  /// Copy of the live ride state (route, via-points, ETAs) — a copy, not a
  /// pointer, so the concurrent implementation can release its shard lock.
  virtual Result<Ride> GetRide(RideId id) const = 0;
  virtual std::uint64_t epoch() const = 0;
};

std::unique_ptr<SimTarget> MakeSimTarget(XarSystem& xar);
std::unique_ptr<SimTarget> MakeSimTarget(ConcurrentXarSystem& xar);

/// Outcome of one event-sim run: protocol counts, event counts, refresh
/// bracketing, the staleness/quality signals the refresh_under_traffic
/// bench sweeps, and the Fig. 6 rider/car metrics.
struct EventSimResult {
  std::size_t requests = 0;
  std::size_t matched = 0;
  std::size_t rides_created = 0;

  std::size_t edge_traversals = 0;
  std::size_t traffic_ticks = 0;
  std::size_t refreshes = 0;  ///< live RefreshDiscretization epoch swaps
  std::size_t cancels_attempted = 0;
  std::size_t cancels_succeeded = 0;
  std::size_t no_shows_attempted = 0;
  std::size_t no_shows_succeeded = 0;

  /// Bookings bracketing the refresh sequence — the "epoch swaps happened
  /// mid-simulation, with traffic before and after" acceptance signal.
  std::size_t bookings_before_first_refresh = 0;
  std::size_t bookings_after_last_refresh = 0;
  std::uint64_t final_epoch = 0;

  /// Mean |world arrival − system-promised arrival| over completed rides:
  /// the staleness signal. Refreshing more often re-profiles routes onto the
  /// congested graph, so this shrinks with the refresh cadence.
  double mean_eta_error_s = 0.0;
  std::size_t eta_samples = 0;
  /// Mean booked-rider quality, from the booking records.
  double mean_actual_detour_m = 0.0;
  double mean_walk_m = 0.0;

  std::vector<BookingRecord> bookings;

  /// Fig. 6 metrics: a booked rider's travel (drop-off ETA − request time +
  /// walk), walk and wait times; a created ride is one car serving its own
  /// commuter for its route time. Unmatched requests in fixed-fleet mode
  /// and failed creates count unserved, so served + unserved == trips.
  ModeMetrics metrics;

  /// Order-sensitive hash of every processed event and booking. Two runs of
  /// the same scenario (same seed) must produce identical fingerprints —
  /// pinned by the determinism test.
  std::uint64_t fingerprint = 0;
};

/// Discrete-event city simulator (ROADMAP: "vehicles that actually move on
/// the graph, traffic that actually changes"). A priority-queue event loop
/// over six event kinds — request arrival, vehicle edge-traversal,
/// cancellation, no-show, periodic traffic tick, periodic refresh — where:
///
///  - booked rides traverse their route's edges in sim time, each traversal
///    taking the *world* time: base edge time × the live congestion factor;
///  - every traversal adds load to its street; a traffic tick decays loads;
///    a rush-hour profile modulates everything (ScenarioConfig::traffic);
///  - every refresh period the congested world is materialized as a new
///    weight-scaled graph + oracle and fed through RefreshDiscretization
///    (GraphDelta), so the epoch-swap/re-homing/prewarm machinery runs as a
///    continuously-exercised hot path and booked routes re-profile onto the
///    congested map (reroute-on-refresh);
///  - booked riders cancel or no-show per ScenarioConfig::events, driving
///    CancelBooking / ReportNoShow against live rides.
///
/// Everything is deterministic in ScenarioConfig::seed: events are ordered
/// by (time, insertion sequence) and all randomness flows from one Rng.
///
/// Lifetime: the EventSim owns every graph/oracle it materialized for a
/// refresh, and the target system keeps pointers into the latest one (the
/// GraphDelta contract). Keep the EventSim alive as long as the system is
/// used after Run().
class EventSim {
 public:
  /// `world` must be the graph the target system was built on;
  /// `system_options` supplies the routing backend / cache policy for the
  /// oracles built at each refresh.
  EventSim(const RoadGraph& world, XarOptions system_options,
           ScenarioConfig config);
  ~EventSim();

  EventSim(const EventSim&) = delete;
  EventSim& operator=(const EventSim&) = delete;

  /// Runs the scenario over `trips` (time-ordered). Repeatable: each call
  /// resets all traffic/RNG state (but the target system keeps its state).
  EventSimResult Run(SimTarget& target, const std::vector<TaxiTrip>& trips);

 private:
  enum class EventKind : std::uint8_t {
    kRequest = 0,
    kEdgeArrive = 1,
    kCancel = 2,
    kNoShow = 3,
    kTrafficTick = 4,
    kRefresh = 5,
  };

  struct Event {
    double time_s = 0.0;
    std::uint64_t seq = 0;  ///< insertion order; breaks time ties
    EventKind kind = EventKind::kRequest;
    std::size_t trip_index = 0;               // kRequest
    RideId ride = RideId::Invalid();          // kEdgeArrive/kCancel/kNoShow
    RequestId request = RequestId::Invalid();  // kCancel/kNoShow
  };

  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time_s != b.time_s) return a.time_s > b.time_s;
      return a.seq > b.seq;
    }
  };

  /// World-side motion cursor of one vehicle.
  struct MotionState {
    NodeId at_node = NodeId::Invalid();
    std::uint32_t hint_index = 0;   ///< last known index of at_node in route
    double promised_arrival_s = 0;  ///< latest system estimate seen
  };

  void Push(double time_s, EventKind kind, std::size_t trip_index, RideId ride,
            RequestId request);
  void Mix(std::uint64_t value);
  void MixTime(double value);

  double RushFactor(double time_s) const;
  double CongestionFactor(NodeId from, NodeId to, double time_s) const;
  static std::uint64_t StreetKey(NodeId from, NodeId to);

  void HandleRequest(SimTarget& target, const Event& event,
                     const std::vector<TaxiTrip>& trips,
                     EventSimResult* result);
  void HandleEdgeArrive(SimTarget& target, const Event& event,
                        EventSimResult* result);
  void HandleRefresh(SimTarget& target, const Event& event,
                     EventSimResult* result);
  /// The trip's commuter drives and offers the ride for sharing: one car,
  /// set in motion.
  Result<RideId> OfferRide(SimTarget& target, const TaxiTrip& trip,
                           EventSimResult* result);
  void StartMotion(const Ride& ride);
  void OnBooked(const BookingRecord& record, double now_s,
                EventSimResult* result);

  const RoadGraph* world_;
  XarOptions system_options_;
  ScenarioConfig config_;

  std::priority_queue<Event, std::vector<Event>, EventAfter> queue_;
  std::uint64_t next_seq_ = 0;
  Rng rng_;
  std::uint64_t fingerprint_ = 0;

  std::unordered_map<std::uint64_t, double> street_loads_;
  std::unordered_map<RideId, MotionState> motion_;
  std::size_t since_last_book_ = 0;
  std::size_t bookings_at_last_refresh_ = 0;
  double eta_error_sum_s_ = 0.0;

  /// Graphs/oracles materialized by refreshes; must outlive the target.
  std::vector<std::unique_ptr<RoadGraph>> refresh_graphs_;
  std::vector<std::unique_ptr<GraphOracle>> refresh_oracles_;
};

/// Convenience: builds the target adapter and runs one scenario.
EventSimResult RunEventSim(XarSystem& xar, EventSim& sim,
                           const std::vector<TaxiTrip>& trips);
EventSimResult RunEventSim(ConcurrentXarSystem& xar, EventSim& sim,
                           const std::vector<TaxiTrip>& trips);

}  // namespace xar

#endif  // XAR_SIM_EVENT_SIM_H_
