#include "match/cluster_ride_list.h"

#include <algorithm>

namespace xar {
namespace {

bool EtaLess(const PotentialRide& a, const PotentialRide& b) {
  if (a.eta_s != b.eta_s) return a.eta_s < b.eta_s;
  return a.ride < b.ride;
}

}  // namespace

void ClusterRideList::Insert(RideId ride, double eta_s, double detour_m) {
  PotentialRide entry{ride, eta_s, detour_m};
  by_eta_.insert(
      std::lower_bound(by_eta_.begin(), by_eta_.end(), entry, EtaLess), entry);
}

bool ClusterRideList::Erase(RideId ride, double eta_s) {
  PotentialRide key{ride, eta_s, 0.0};
  auto it = std::lower_bound(by_eta_.begin(), by_eta_.end(), key, EtaLess);
  if (it == by_eta_.end() || it->ride != ride || it->eta_s != eta_s) {
    return false;
  }
  by_eta_.erase(it);
  return true;
}

std::span<const PotentialRide> ClusterRideList::EtaRange(double t_begin,
                                                         double t_end) const {
  PotentialRide lo{RideId(0), t_begin, 0.0};
  auto first = std::lower_bound(by_eta_.begin(), by_eta_.end(), lo, EtaLess);
  auto last = first;
  while (last != by_eta_.end() && last->eta_s <= t_end) ++last;
  return {by_eta_.data() + (first - by_eta_.begin()),
          static_cast<std::size_t>(last - first)};
}

}  // namespace xar
