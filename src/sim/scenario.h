#ifndef XAR_SIM_SCENARIO_H_
#define XAR_SIM_SCENARIO_H_

#include <cstddef>
#include <cstdint>

namespace xar {

/// Knobs of the paper's request protocol (Section X-A.2): each trip searches,
/// books the least-walking match on a booking turn, otherwise the commuter
/// drives and offers the ride.
struct SimOptions {
  /// Departure window length granted to each request.
  double window_s = 900.0;
  /// Requests per booked ride (look-to-book r): every request performs one
  /// search; only every r-th searcher actually books. 1 = book always.
  std::size_t look_to_book = 1;
  /// Walking threshold passed on each request (-1 = XAR default).
  double walk_limit_m = -1.0;
  /// Advance the virtual clock with request timestamps (tracking on).
  bool advance_time = true;
};

/// How traffic responds to the simulated fleet: per-edge load and a
/// rush-hour profile combine into a driving-time factor
///
///   factor = clamp(rush(hour) * (1 + load_alpha * load), 1, max_factor)
///
/// where `load` is the decayed count of vehicle traversals on that street
/// (both directions pooled, so the factor stays symmetric per street).
struct TrafficModel {
  /// Period of the traffic tick that decays per-edge loads (seconds).
  double tick_period_s = 300.0;
  /// Extra driving-time fraction per unit of decayed edge load.
  double load_alpha = 0.05;
  /// Load retained across one traffic tick (0 = memoryless, 1 = permanent).
  double load_decay = 0.5;
  /// Peak rush-hour slow-down fraction (0.35 = +35% at the worst hour).
  double rush_amplitude = 0.35;
  /// Congestion-factor clamp; keeps a pile-up from freezing the city.
  double max_factor = 3.0;
};

/// Rider-behaviour events the event sim injects (both drawn per booking).
struct EventMix {
  /// Probability a booked rider cancels (CancelBooking) before pickup.
  double cancel_probability = 0.0;
  /// Probability a booked rider is absent at the pickup ETA (ReportNoShow).
  double no_show_probability = 0.0;
};

/// One scenario for the event sim (RunEventSim). With `traffic` and `events`
/// at their defaults and no refreshes, it replays the paper's protocol:
/// traffic then only moves vehicles in the world, which changes no booking
/// (pinned by EventSimTest.InertScenarioReplaysPaperProtocol).
struct ScenarioConfig {
  /// The request protocol.
  SimOptions protocol;
  /// Traffic response model.
  TrafficModel traffic;
  /// Cancellation / no-show behaviour.
  EventMix events;
  /// If > 0, the event sim re-materializes the world graph and feeds it to
  /// RefreshDiscretization every this many sim-seconds (the live epoch-swap
  /// path). 0 = the system never refreshes and serves ever-staler ETAs.
  double refresh_period_s = 0.0;
  /// Seed for every stochastic draw (cancellation, no-show timing). Fixed
  /// seed => bit-identical simulation, pinned by the determinism test.
  std::uint64_t seed = 1;
  /// Fixed-fleet mode. When > 0, the first `fleet` trips become the
  /// drivers — each is registered as a moving ride offer before any
  /// request fires — and every later trip is a pure commuter request:
  /// an unmatched request does NOT fall back to creating a ride, so fleet
  /// size stays the swept variable (the pooling bench's knob). 0 keeps the
  /// classic behaviour where unmatched commuters drive and offer their ride.
  std::size_t fleet = 0;
};

}  // namespace xar

#endif  // XAR_SIM_SCENARIO_H_
