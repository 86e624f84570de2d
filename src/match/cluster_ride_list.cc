#include "match/cluster_ride_list.h"

#include <algorithm>
#include <vector>

namespace xar {
namespace {

bool EtaLess(const PotentialRide& a, const PotentialRide& b) {
  if (a.eta_s != b.eta_s) return a.eta_s < b.eta_s;
  return a.ride < b.ride;
}

/// The entry at key (eta_s, ride) in `by_eta`, or its end.
std::vector<PotentialRide>::iterator Find(std::vector<PotentialRide>& by_eta,
                                          RideId ride, double eta_s) {
  const PotentialRide key{ride, eta_s};
  auto it = std::lower_bound(by_eta.begin(), by_eta.end(), key, EtaLess);
  if (it != by_eta.end() && (it->ride != ride || it->eta_s != eta_s)) {
    return by_eta.end();
  }
  return it;
}

}  // namespace

void ClusterRideList::Insert(RideId ride, double eta_s) {
  PotentialRide entry{ride, eta_s};
  by_eta_.insert(
      std::lower_bound(by_eta_.begin(), by_eta_.end(), entry, EtaLess), entry);
}

bool ClusterRideList::Erase(RideId ride, double eta_s) {
  auto it = Find(by_eta_, ride, eta_s);
  if (it == by_eta_.end()) return false;
  by_eta_.erase(it);
  return true;
}

bool ClusterRideList::Move(RideId ride, double old_eta_s, double new_eta_s) {
  auto it = Find(by_eta_, ride, old_eta_s);
  if (it == by_eta_.end()) return false;
  // (eta, ride) is unique in the list, so the entry's new rank is fixed by
  // the entries strictly on one side of the new key.
  const PotentialRide moved{ride, new_eta_s};
  if (EtaLess(moved, *it)) {
    auto to = std::upper_bound(by_eta_.begin(), it, moved, EtaLess);
    std::rotate(to, it, it + 1);
    *to = moved;
  } else {
    auto end = std::lower_bound(it + 1, by_eta_.end(), moved, EtaLess);
    std::rotate(it, it + 1, end);
    *(end - 1) = moved;
  }
  return true;
}

std::span<const PotentialRide> ClusterRideList::EtaRange(double t_begin,
                                                         double t_end) const {
  PotentialRide lo{RideId(0), t_begin};
  auto first = std::lower_bound(by_eta_.begin(), by_eta_.end(), lo, EtaLess);
  auto last = first;
  while (last != by_eta_.end() && last->eta_s <= t_end) ++last;
  return {by_eta_.data() + (first - by_eta_.begin()),
          static_cast<std::size_t>(last - first)};
}

}  // namespace xar
