#ifndef XAR_SIM_METRICS_H_
#define XAR_SIM_METRICS_H_

#include <cstddef>
#include <string>

#include "common/stats.h"

namespace xar {

/// Walking speed that turns walked metres into walking time in every mode.
inline constexpr double kWalkSpeedMps = 1.4;

/// Per-transport-mode quality metrics, matching what Fig. 6 compares:
/// end-to-end travel time, walking time, waiting time, and the number of
/// cars needed to serve the request stream.
struct ModeMetrics {
  std::string mode_name;
  PercentileTracker travel_s;
  PercentileTracker walk_s;
  PercentileTracker wait_s;
  std::size_t cars_used = 0;
  std::size_t requests_served = 0;
  std::size_t requests_unserved = 0;

  void AddTrip(double travel_time_s, double walk_time_s, double wait_time_s) {
    travel_s.Add(travel_time_s);
    walk_s.Add(walk_time_s);
    wait_s.Add(wait_time_s);
    ++requests_served;
  }
};

}  // namespace xar

#endif  // XAR_SIM_METRICS_H_
