#include "serve/pending_searches.h"

namespace xar {

bool PendingSearches::Put(const RideRequest& request,
                          std::vector<RideMatch> matches) {
  const std::uint64_t seq = next_seq_++;
  entries_[request.id] = Entry{request, std::move(matches), seq};
  order_.emplace_back(seq, request.id);
  if (order_.size() <= kMaxPendingSearches) return false;
  const auto [old_seq, old_rider] = order_.front();
  order_.pop_front();
  auto it = entries_.find(old_rider);
  if (it == entries_.end() || it->second.seq != old_seq) return false;
  entries_.erase(it);
  ++evicted_;
  return true;
}

const PendingSearches::Entry* PendingSearches::Find(RequestId rider) const {
  auto it = entries_.find(rider);
  return it == entries_.end() ? nullptr : &it->second;
}

}  // namespace xar
