#ifndef XAR_MATCH_CLUSTER_RIDE_LIST_H_
#define XAR_MATCH_CLUSTER_RIDE_LIST_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/ids.h"

namespace xar {

/// One entry of a cluster's potential-ride list: ride r is expected to be
/// able to serve pickups in this cluster around time `eta_s`. Which of the
/// ride's pass-throughs support the cluster stays in its registration
/// (RideRegistration::registered_support), where pricing reads it.
struct PotentialRide {
  RideId ride;
  double eta_s = 0.0;
};
static_assert(sizeof(PotentialRide) == 16);

/// The paper's per-cluster potential-ride structure (Section VI): one list
/// sorted by (eta_s, ride), probed by the logarithmic time-window search of
/// Search Step 1/2. A ride appears at most once per list, and its owner
/// remembers the ETA it inserted at: that full key is what Erase and Move
/// find it by.
class ClusterRideList {
 public:
  /// Inserts `ride` at key (eta_s, ride). The ride must not be listed yet.
  void Insert(RideId ride, double eta_s);

  /// Removes the entry at key (eta_s, ride); returns whether it was there.
  bool Erase(RideId ride, double eta_s);

  /// Re-keys the entry at (old_eta_s, ride) to (new_eta_s, ride), rotating
  /// only the entries between the two keys; returns whether it was there.
  /// The list ends as Erase then Insert would leave it.
  bool Move(RideId ride, double old_eta_s, double new_eta_s);

  /// All entries with eta in [t_begin, t_end], by binary search.
  std::span<const PotentialRide> EtaRange(double t_begin, double t_end) const;

  std::size_t size() const { return by_eta_.size(); }
  bool empty() const { return by_eta_.empty(); }

  std::size_t MemoryFootprint() const {
    return by_eta_.capacity() * sizeof(PotentialRide) + sizeof(*this);
  }

 private:
  std::vector<PotentialRide> by_eta_;  // sorted by (eta_s, ride)
};

}  // namespace xar

#endif  // XAR_MATCH_CLUSTER_RIDE_LIST_H_
