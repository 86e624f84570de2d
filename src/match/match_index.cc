#include "match/match_index.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <span>

namespace xar {

namespace {

/// One walkable-cluster hit of a candidate ride on one side of a request.
struct SideEntry {
  double walk_m;
  double eta_s;
  ClusterId cluster;
  LandmarkId landmark;
};

/// The order of one ride's side entries: least walk, then earliest ETA,
/// then cluster id (a ride has at most one entry per cluster).
bool SideLess(const SideEntry& a, const SideEntry& b) {
  if (a.walk_m != b.walk_m) return a.walk_m < b.walk_m;
  if (a.eta_s != b.eta_s) return a.eta_s < b.eta_s;
  return a.cluster < b.cluster;
}

/// Offers `e` to a ride's kept run `run[0, *count)` of capacity `cap`: the
/// ride's least entries so far in SideLess order. The run's landmarks are
/// distinct because its clusters are: a walkable cluster is reached through
/// one of its own landmarks.
void Offer(const SideEntry& e, std::size_t cap, SideEntry* run,
           std::uint32_t* count) {
  std::size_t n = *count;
  std::size_t at = n;
  while (at > 0 && SideLess(e, run[at - 1])) --at;
  if (at == cap) return;
  if (n == cap) --n;  // the last entry makes room
  std::copy_backward(run + at, run + n, run + n + 1);
  run[at] = e;
  *count = static_cast<std::uint32_t>(n + 1);
}

/// A ride the source side gathered, with its kept entries on both sides.
struct GatheredRide {
  RideId ride;
  std::uint32_t source_count = 0;
  std::uint32_t dest_count = 0;
  std::size_t dest_begin = 0;  ///< its run in SearchScratch::dest
};

/// The detour terms of one pass-through in a joint estimate.
struct PassTerms {
  std::size_t segment;
  bool pickup;   ///< supports the pickup cluster
  bool dropoff;  ///< supports the drop-off cluster
  double src;    ///< pickup inserted in this segment
  double same;   ///< pickup then drop-off inserted in this segment
  double dst;    ///< drop-off inserted in this segment
};

/// Per-thread search scratch, reused across calls. Candidates runs under
/// shared shard locks, so concurrent searches of one index each get their
/// own. `marks` grows to the largest ride table searched on the thread;
/// the other vectors to the largest request.
struct SearchScratch {
  /// Per ride slot: the search that last gathered the ride, and the ride's
  /// position in `rides`.
  struct Mark {
    std::uint32_t stamp = 0;
    std::uint32_t ride = 0;
  };
  std::vector<Mark> marks;
  std::uint32_t stamp = 0;
  std::vector<GatheredRide> rides;
  std::vector<SideEntry> source;  ///< rides[p]'s run at p * source cap
  std::vector<SideEntry> dest;
  std::vector<std::uint32_t> joined;  ///< rides on both sides
  std::vector<PassTerms> terms;       ///< ChooseInsertionSegments
};

SearchScratch& ThreadScratch() {
  thread_local SearchScratch scratch;
  return scratch;
}

/// Landmark-metric distance with a cluster-level fallback when either
/// landmark is unknown.
double LandmarkDistance(const RegionIndex& region, LandmarkId a, LandmarkId b,
                        ClusterId ca, ClusterId cb) {
  if (a.valid() && b.valid()) {
    return region.landmark_metric().At(a.value(), b.value());
  }
  if (ca.valid() && cb.valid()) return region.ClusterDistance(ca, cb);
  return 0.0;
}

/// The walkable clusters of `location`'s grid (sorted by walk) within
/// `walk_limit_m`: the paper's linear traversal of the sorted list.
std::span<const WalkableCluster> WalkablePrefix(const RegionIndex& region,
                                                const LatLng& location,
                                                double walk_limit_m) {
  std::span<const WalkableCluster> all =
      region.WalkableClustersOf(region.GridOfPoint(location));
  std::size_t n = 0;
  while (n < all.size() && all[n].walk_m <= walk_limit_m) ++n;
  return all.first(n);
}

}  // namespace

MatchIndex::MatchIndex(std::shared_ptr<const RegionSnapshot> snapshot,
                       const RoadGraph& graph)
    : snapshot_(snapshot),
      region_(snapshot->index.get()),
      graph_(&graph),
      lists_(region_->NumClusters()),
      support_eta_(region_->NumClusters(),
                   std::numeric_limits<double>::infinity()),
      support_mask_(region_->NumClusters(), 0),
      seen_stamp_(region_->NumClusters(), 0) {}

void MatchIndex::OnEpochSwap(std::shared_ptr<const RegionSnapshot> snapshot,
                             const RoadGraph& graph) {
  region_ = snapshot->index.get();
  graph_ = &graph;
  // Fresh containers, so the old epoch's list capacity is released.
  lists_ = std::vector<ClusterRideList>(region_->NumClusters());
  support_eta_.assign(region_->NumClusters(),
                      std::numeric_limits<double>::infinity());
  support_mask_.assign(region_->NumClusters(), 0);
  seen_stamp_.assign(region_->NumClusters(), 0);
  seen_generation_ = 0;
  registrations_ = decltype(registrations_)();
  snapshot_.store(std::move(snapshot), std::memory_order_release);
}

StatsSection MatchStatsSection(const MatchIndexStats& stats) {
  StatsSection section;
  section.name = "match";
  section.AddRow(
      {StatsMetric::Gauge("registered_rides",
                          static_cast<double>(stats.registered_rides), 0),
       StatsMetric::Gauge("bytes", static_cast<double>(stats.bytes), 0),
       StatsMetric::Counter("inserts", stats.counters.inserts),
       StatsMetric::Counter("removes", stats.counters.removes),
       StatsMetric::Counter("updates", stats.counters.updates),
       StatsMetric::Counter("evictions", stats.counters.evictions),
       StatsMetric::Counter("searches", stats.counters.searches),
       StatsMetric::Counter("empty_searches", stats.counters.empty_searches),
       StatsMetric::Counter("candidates", stats.counters.candidates),
       StatsMetric::Counter("update_kept", stats.counters.update_kept),
       StatsMetric::Counter("update_moved", stats.counters.update_moved),
       StatsMetric::Counter("update_left", stats.counters.update_left),
       StatsMetric::Counter("update_entered", stats.counters.update_entered)});
  return section;
}

MatchCounters MatchIndex::counters() const {
  MatchCounters c;
  c.inserts = counters_.inserts.load(std::memory_order_relaxed);
  c.removes = counters_.removes.load(std::memory_order_relaxed);
  c.updates = counters_.updates.load(std::memory_order_relaxed);
  c.evictions = counters_.evictions.load(std::memory_order_relaxed);
  c.searches = counters_.searches.load(std::memory_order_relaxed);
  c.empty_searches = counters_.empty_searches.load(std::memory_order_relaxed);
  c.candidates = counters_.candidates.load(std::memory_order_relaxed);
  c.update_kept = counters_.update_kept.load(std::memory_order_relaxed);
  c.update_moved = counters_.update_moved.load(std::memory_order_relaxed);
  c.update_left = counters_.update_left.load(std::memory_order_relaxed);
  c.update_entered = counters_.update_entered.load(std::memory_order_relaxed);
  return c;
}

void MatchIndex::CountSearch(std::size_t returned) const {
  counters_.searches.fetch_add(1, std::memory_order_relaxed);
  if (returned == 0) {
    counters_.empty_searches.fetch_add(1, std::memory_order_relaxed);
  } else {
    counters_.candidates.fetch_add(returned, std::memory_order_relaxed);
  }
}

std::vector<PassThroughCluster> MatchIndex::ComputePassThroughs(
    const Ride& ride, double now_s) {
  std::vector<PassThroughCluster> out;
  if (ride.route.nodes.empty() || ride.via_points.size() < 2) return out;

  double budget = ride.RemainingDetourBudget();
  std::size_t m = region_->NumClusters();

  for (std::size_t seg = 0; seg + 1 < ride.via_points.size(); ++seg) {
    std::size_t begin = ride.via_route_index[seg];
    std::size_t end = ride.via_route_index[seg + 1];
    // Landmark of the segment's end via-point and its cluster (the point's
    // cluster), for the detour triangle test and for pricing.
    const LandmarkId next = region_->LandmarkOfGrid(region_->GridOfPoint(
        graph_->PositionOf(ride.via_points[seg + 1].node)));
    const ClusterId next_cluster =
        next.valid() ? region_->ClusterOfLandmark(next) : ClusterId::Invalid();

    if (++seen_generation_ == 0) {
      std::fill(seen_stamp_.begin(), seen_stamp_.end(), 0);
      seen_generation_ = 1;
    }
    ClusterId prev = ClusterId::Invalid();
    for (std::size_t j = begin; j <= end && j < ride.route.nodes.size(); ++j) {
      GridId grid =
          region_->GridOfPoint(graph_->PositionOf(ride.route.nodes[j]));
      ClusterId c = region_->ClusterOfGrid(grid);
      if (!c.valid() || c == prev) continue;
      prev = c;
      if (seen_stamp_[c.value()] == seen_generation_) continue;
      seen_stamp_[c.value()] = seen_generation_;
      // A first visit already behind the clock is dropped, not replaced by
      // a later visit of the same cluster in this segment.
      const double eta_s = ride.departure_time_s + ride.route_cum_time_s[j];
      if (eta_s < now_s) continue;

      PassThroughCluster pt;
      pt.cluster = c;
      pt.landmark = region_->LandmarkOfGrid(grid);
      pt.segment = seg;
      pt.eta_s = eta_s;
      pt.next_landmark = next;
      pt.next_cluster = next_cluster;
      pt.here_to_next_m =
          LandmarkDistance(*region_, pt.landmark, next, c, next_cluster);

      // Reachable clusters (paper Section VI): candidates within the detour
      // budget of C, kept iff the round-trip detour via C' does not exceed
      // the budget: d(C,C') + d(C',v_next) - d(C,v_next) <= d.
      for (std::size_t other = 0; other < m; ++other) {
        ClusterId cp(static_cast<ClusterId::underlying_type>(other));
        if (cp == c) continue;
        double d1 = region_->ClusterDistance(c, cp);
        if (d1 > budget) continue;
        double detour = d1;
        if (next_cluster.valid()) {
          double via = d1 + region_->ClusterDistance(cp, next_cluster) -
                       region_->ClusterDistance(c, next_cluster);
          detour = std::max(0.0, via);
        }
        if (detour > budget) continue;
        pt.reachable.push_back(cp);
      }
      out.push_back(std::move(pt));
    }
  }
  return out;
}

void MatchIndex::AggregateSupports(const RideRegistration& reg,
                                   std::vector<ClusterId>* clusters,
                                   std::vector<double>* eta_s,
                                   std::vector<std::uint64_t>* support) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double speed = region_->nominal_speed_mps();
  const std::size_t words = reg.SupportWords();
  if (support_mask_.size() < support_eta_.size() * words) {
    support_mask_.resize(support_eta_.size() * words, 0);
  }
  std::size_t supported = 0;
  auto offer = [&](ClusterId c, double eta, std::size_t word,
                   std::uint64_t bit) {
    double& best = support_eta_[c.value()];
    if (best == kInf) ++supported;
    best = std::min(best, eta);
    support_mask_[c.value() * words + word] |= bit;
  };
  for (std::size_t k = 0; k < reg.pass_throughs.size(); ++k) {
    const PassThroughCluster& pt = reg.pass_throughs[k];
    const std::size_t word = k / 64;
    const std::uint64_t bit = std::uint64_t{1} << (k % 64);
    offer(pt.cluster, pt.eta_s, word, bit);
    for (ClusterId reachable : pt.reachable) {
      offer(reachable,
            pt.eta_s + region_->ClusterDistance(pt.cluster, reachable) / speed,
            word, bit);
    }
  }
  clusters->clear();
  eta_s->clear();
  support->clear();
  clusters->reserve(supported);
  eta_s->reserve(supported);
  support->reserve(supported * words);
  for (std::size_t c = 0; c < support_eta_.size(); ++c) {
    if (support_eta_[c] == kInf) continue;
    clusters->push_back(ClusterId(static_cast<ClusterId::underlying_type>(c)));
    eta_s->push_back(support_eta_[c]);
    support_eta_[c] = kInf;
    std::uint64_t* mask = support_mask_.data() + c * words;
    support->insert(support->end(), mask, mask + words);
    std::fill(mask, mask + words, 0);
  }
}

MatchIndex::Rekeyed MatchIndex::Rekey(RideId ride, RideRegistration* reg) {
  std::vector<ClusterId> clusters;
  std::vector<double> eta_s;
  std::vector<std::uint64_t> support;
  AggregateSupports(*reg, &clusters, &eta_s, &support);

  const std::vector<ClusterId>& old_clusters = reg->registered_clusters;
  const std::vector<double>& old_eta_s = reg->registered_eta_s;
  Rekeyed done;
  std::size_t i = 0;  // old keys
  std::size_t j = 0;  // new keys
  while (i < old_clusters.size() || j < clusters.size()) {
    if (j == clusters.size() ||
        (i < old_clusters.size() && old_clusters[i] < clusters[j])) {
      [[maybe_unused]] const bool listed =
          lists_[old_clusters[i].value()].Erase(ride, old_eta_s[i]);
      assert(listed);
      ++done.left;
      ++i;
    } else if (i == old_clusters.size() || clusters[j] < old_clusters[i]) {
      lists_[clusters[j].value()].Insert(ride, eta_s[j]);
      ++done.entered;
      ++j;
    } else {
      if (old_eta_s[i] == eta_s[j]) {
        ++done.kept;
      } else {
        [[maybe_unused]] const bool listed =
            lists_[clusters[j].value()].Move(ride, old_eta_s[i], eta_s[j]);
        assert(listed);
        ++done.moved;
      }
      ++i;
      ++j;
    }
  }
  reg->registered_clusters = std::move(clusters);
  reg->registered_eta_s = std::move(eta_s);
  reg->registered_support = std::move(support);
  return done;
}

MatchIndex::Rekeyed MatchIndex::Register(const Ride& ride, double now_s) {
  RideRegistration& reg = registrations_[ride.id];
  reg.pass_throughs = ComputePassThroughs(ride, now_s);
  return Rekey(ride.id, &reg);
}

void MatchIndex::Insert(const Ride& ride, double now_s) {
  assert(registrations_.find(ride.id) == registrations_.end());
  Register(ride, now_s);
  counters_.inserts.fetch_add(1, std::memory_order_relaxed);
}

void MatchIndex::Remove(RideId ride) {
  auto it = registrations_.find(ride);
  if (it != registrations_.end()) {
    const RideRegistration& reg = it->second;
    for (std::size_t k = 0; k < reg.registered_clusters.size(); ++k) {
      lists_[reg.registered_clusters[k].value()].Erase(
          ride, reg.registered_eta_s[k]);
    }
    registrations_.erase(it);
  }
  counters_.removes.fetch_add(1, std::memory_order_relaxed);
}

void MatchIndex::Update(const Ride& ride, double now_s) {
  const Rekeyed done = Register(ride, now_s);
  counters_.updates.fetch_add(1, std::memory_order_relaxed);
  counters_.update_kept.fetch_add(done.kept, std::memory_order_relaxed);
  counters_.update_moved.fetch_add(done.moved, std::memory_order_relaxed);
  counters_.update_left.fetch_add(done.left, std::memory_order_relaxed);
  counters_.update_entered.fetch_add(done.entered, std::memory_order_relaxed);
}

std::size_t MatchIndex::Advance(const Ride& ride, double now_s) {
  auto it = registrations_.find(ride.id);
  if (it == registrations_.end()) return 0;
  RideRegistration& reg = it->second;

  // Drop the pass-throughs the ride has crossed. A cluster stays only if a
  // remaining pass-through still reaches it, re-keyed if it lost its best
  // support; otherwise the ride is evicted from that cluster's potential
  // list. Crossing only removes supports, so nothing enters.
  const std::size_t crossed = std::erase_if(
      reg.pass_throughs,
      [now_s](const PassThroughCluster& pt) { return pt.eta_s < now_s; });
  if (crossed == 0) return 0;
  const Rekeyed done = Rekey(ride.id, &reg);
  assert(done.entered == 0);
  if (done.left > 0) {
    counters_.evictions.fetch_add(done.left, std::memory_order_relaxed);
  }
  return done.left;
}

const RideRegistration* MatchIndex::RegistrationOf(RideId ride) const {
  auto it = registrations_.find(ride);
  return it == registrations_.end() ? nullptr : &it->second;
}

double MatchIndex::NextEventTime(RideId ride) const {
  const RideRegistration* reg = RegistrationOf(ride);
  double next = std::numeric_limits<double>::infinity();
  if (reg == nullptr) return next;
  for (const PassThroughCluster& pt : reg->pass_throughs) {
    next = std::min(next, pt.eta_s);
  }
  return next;
}

bool MatchIndex::ChooseInsertionSegments(const Ride& ride,
                                        ClusterId source_cluster,
                                        LandmarkId pickup_landmark,
                                        ClusterId dest_cluster,
                                        LandmarkId dropoff_landmark,
                                        std::size_t* seg_src,
                                        std::size_t* seg_dst,
                                        double* joint_estimate_m) const {
  const RideRegistration* reg = RegistrationOf(ride.id);
  if (reg == nullptr) return false;
  // The two clusters' support masks. A cluster the ride is not registered
  // under has no support, so a stale match is refused here.
  const std::size_t words = reg->SupportWords();
  auto support_of = [&](ClusterId c) -> const std::uint64_t* {
    const auto it = std::lower_bound(reg->registered_clusters.begin(),
                                     reg->registered_clusters.end(), c);
    if (it == reg->registered_clusters.end() || *it != c) return nullptr;
    return reg->registered_support.data() +
           (it - reg->registered_clusters.begin()) * words;
  };
  const std::uint64_t* pickup_support = support_of(source_cluster);
  const std::uint64_t* dropoff_support = support_of(dest_cluster);
  if (pickup_support == nullptr || dropoff_support == nullptr) return false;
  constexpr double kInf = std::numeric_limits<double>::infinity();

  auto dist = [&](LandmarkId a, LandmarkId b, ClusterId ca, ClusterId cb) {
    return LandmarkDistance(*region_, a, b, ca, cb);
  };
  const double pickup_to_dropoff = dist(pickup_landmark, dropoff_landmark,
                                        source_cluster, dest_cluster);

  // Pass 1, forward over the pass-throughs supporting either cluster: each
  // one's own terms. Inserting the pickup in its segment costs `src`
  // (at -> pickup -> next via-point), the drop-off costs `dst`, and both in
  // sequence cost `same` (at -> pickup -> dropoff -> next).
  std::vector<PassTerms>& terms = ThreadScratch().terms;
  terms.clear();
  std::size_t segment = std::numeric_limits<std::size_t>::max();
  double pickup_to_next = 0.0;
  double dropoff_to_next = 0.0;
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t pickups = pickup_support[w];
    const std::uint64_t dropoffs = dropoff_support[w];
    for (std::uint64_t bits = pickups | dropoffs; bits != 0;
         bits &= bits - 1) {
      const int b = std::countr_zero(bits);
      const PassThroughCluster& pt = reg->pass_throughs[w * 64 + b];
      const bool pickup = (pickups >> b) & 1;
      const bool dropoff = (dropoffs >> b) & 1;
      const LandmarkId next = pt.next_landmark;
      assert(segment == std::numeric_limits<std::size_t>::max() ||
             pt.segment >= segment);
      if (pt.segment != segment) {
        segment = pt.segment;
        pickup_to_next =
            dist(pickup_landmark, next, source_cluster, pt.next_cluster);
        dropoff_to_next =
            dist(dropoff_landmark, next, dest_cluster, pt.next_cluster);
      }
      const double here_to_next = pt.here_to_next_m;
      PassTerms t{pt.segment, pickup, dropoff, kInf, kInf, kInf};
      if (pickup) {
        const double to_pickup =
            dist(pt.landmark, pickup_landmark, pt.cluster, source_cluster);
        t.same = to_pickup + pickup_to_dropoff;
        if (next.valid()) t.same += dropoff_to_next - here_to_next;
        t.same = std::max(0.0, t.same);
        t.src = to_pickup;
        if (next.valid()) {
          t.src = std::max(0.0, t.src + pickup_to_next - here_to_next);
        }
      }
      if (dropoff) {
        t.dst = dist(pt.landmark, dropoff_landmark, pt.cluster, dest_cluster);
        if (next.valid()) {
          t.dst = std::max(0.0, t.dst + dropoff_to_next - here_to_next);
        }
      }
      terms.push_back(t);
    }
  }

  // Pass 2, backward over segments: a pickup pass-through's least estimate
  // is `same` if a drop-off pass-through shares its segment, else `src`
  // plus the least `dst` of a later segment. Rounding is monotone, so
  // src + min(dst) is the least of the pairwise sums. Ties resolve as a
  // scan over every segment-ordered (pickup, drop-off) pair would resolve
  // them, to its first strict minimum: the earliest pickup (hence `<=`
  // going backward), then `same`, whose pairs come first.
  double best = kInf;
  std::size_t chosen = 0;
  bool chosen_same = false;
  double later_dst = kInf;  // least dst over segments after the current one
  for (std::size_t end = terms.size(); end > 0;) {
    std::size_t begin = end - 1;
    while (begin > 0 && terms[begin - 1].segment == terms[end - 1].segment) {
      --begin;
    }
    bool dropoff_here = false;
    double segment_dst = kInf;
    for (std::size_t t = begin; t < end; ++t) {
      if (!terms[t].dropoff) continue;
      dropoff_here = true;
      segment_dst = std::min(segment_dst, terms[t].dst);
    }
    for (std::size_t t = end; t-- > begin;) {
      if (!terms[t].pickup) continue;
      const double split = terms[t].src + later_dst;
      const bool same = dropoff_here && terms[t].same <= split;
      const double est = same ? terms[t].same : split;
      if (est <= best) {
        best = est;
        chosen = t;
        chosen_same = same;
      }
    }
    later_dst = std::min(later_dst, segment_dst);
    end = begin;
  }
  if (best == kInf) return false;

  const PassTerms& ps = terms[chosen];
  *seg_src = ps.segment;
  *seg_dst = ps.segment;
  if (!chosen_same) {
    // The first later drop-off pass-through whose sum attains the minimum.
    for (std::size_t t = chosen + 1; t < terms.size(); ++t) {
      if (terms[t].dropoff && terms[t].segment > ps.segment &&
          ps.src + terms[t].dst == best) {
        *seg_dst = terms[t].segment;
        break;
      }
    }
  }
  *joint_estimate_m = best;
  return true;
}

std::size_t MatchIndex::MemoryFootprint() const {
  std::size_t bytes = sizeof(*this) +
                      support_eta_.capacity() * sizeof(double) +
                      support_mask_.capacity() * sizeof(std::uint64_t) +
                      seen_stamp_.capacity() * sizeof(std::uint32_t);
  for (const ClusterRideList& list : lists_) bytes += list.MemoryFootprint();
  for (const auto& [id, reg] : registrations_) {
    bytes += sizeof(id) + sizeof(reg);
    for (const PassThroughCluster& pt : reg.pass_throughs) {
      bytes += sizeof(pt) + pt.reachable.capacity() * sizeof(ClusterId);
    }
    bytes += reg.registered_clusters.capacity() * sizeof(ClusterId) +
             reg.registered_eta_s.capacity() * sizeof(double) +
             reg.registered_support.capacity() * sizeof(std::uint64_t);
  }
  return bytes;
}

std::vector<RideMatch> MatchIndex::Candidates(
    const RideRequest& request, const MatchTuning& tuning,
    const RideLookup& rides) const {
  const double walk_limit = tuning.walk_limit_m;
  const std::size_t per_ride = tuning.per_ride;

  // Pin the snapshot for the whole search: every region probe below resolves
  // against one epoch even if a refresh swaps the snapshot mid-flight.
  std::shared_ptr<const RegionSnapshot> pinned =
      snapshot_.load(std::memory_order_acquire);
  const RegionIndex& region = *pinned->index;

  SearchScratch& scratch = ThreadScratch();
  const RideSlots slots = rides.Slots();
  if (scratch.marks.size() < slots.size) scratch.marks.resize(slots.size);
  if (++scratch.stamp == 0) {
    std::fill(scratch.marks.begin(), scratch.marks.end(),
              SearchScratch::Mark{});
    scratch.stamp = 1;
  }
  scratch.rides.clear();
  scratch.source.clear();
  scratch.dest.clear();
  scratch.joined.clear();

  // A ride keeps at most one entry per walkable cluster, so a run never
  // needs more room than the side has clusters.
  const std::span<const WalkableCluster> source_clusters =
      WalkablePrefix(region, request.source, walk_limit);
  const std::span<const WalkableCluster> dest_clusters =
      WalkablePrefix(region, request.destination, walk_limit);
  const std::size_t cap = std::max<std::size_t>(per_ride, 1);
  const std::size_t source_cap = std::min(cap, source_clusters.size());
  const std::size_t dest_cap = std::min(cap, dest_clusters.size());

  // Step 1: rides around the source, keyed by pickup-cluster ETA inside the
  // departure window. Clusters arrive in walk order and each ride keeps its
  // `per_ride` least entries as they stream in.
  const double source_begin =
      request.earliest_departure_s - tuning.eta_window_slack_s;
  const double source_end =
      request.latest_departure_s + tuning.eta_window_slack_s;
  for (const WalkableCluster& wc : source_clusters) {
    for (const PotentialRide& pr :
         ListOf(wc.cluster).EtaRange(source_begin, source_end)) {
      const std::size_t slot = slots.Of(pr.ride);
      if (slot == slots.size) continue;
      SearchScratch::Mark& mark = scratch.marks[slot];
      if (mark.stamp != scratch.stamp) {
        mark = {scratch.stamp,
                static_cast<std::uint32_t>(scratch.rides.size())};
        scratch.rides.push_back(GatheredRide{pr.ride});
        scratch.source.resize(scratch.source.size() + source_cap);
      }
      Offer({wc.walk_m, pr.eta_s, wc.cluster, wc.nearest_landmark},
            source_cap, scratch.source.data() + mark.ride * source_cap,
            &scratch.rides[mark.ride].source_count);
    }
  }

  // Step 2: the same around the destination, where the drop-off may happen
  // any time between the window start and the onboard bound — a semi-join:
  // only rides step 1 gathered are kept.
  const double dest_begin = request.earliest_departure_s;
  const double dest_end = request.latest_departure_s + tuning.max_onboard_s;
  for (const WalkableCluster& wc : dest_clusters) {
    for (const PotentialRide& pr :
         ListOf(wc.cluster).EtaRange(dest_begin, dest_end)) {
      const std::size_t slot = slots.Of(pr.ride);
      if (slot == slots.size || scratch.marks[slot].stamp != scratch.stamp) {
        continue;
      }
      const std::uint32_t p = scratch.marks[slot].ride;
      GatheredRide& g = scratch.rides[p];
      if (g.dest_count == 0) {
        scratch.joined.push_back(p);
        g.dest_begin = scratch.dest.size();
        scratch.dest.resize(scratch.dest.size() + dest_cap);
      }
      Offer({wc.walk_m, pr.eta_s, wc.cluster, wc.nearest_landmark}, dest_cap,
            scratch.dest.data() + g.dest_begin, &g.dest_count);
    }
  }

  // R' = R1 ∩ R2 in ride-id order, then the final walking & detour
  // threshold checks (paper Section VII). Each feasible cross-combination
  // of a ride's two runs is a distinct meeting-point match, at most
  // per_ride of them per ride.
  std::sort(scratch.joined.begin(), scratch.joined.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return scratch.rides[a].ride < scratch.rides[b].ride;
            });
  std::vector<RideMatch> matches;
  for (std::uint32_t p : scratch.joined) {
    const GatheredRide& g = scratch.rides[p];
    const Ride* ride = rides.Find(g.ride);
    if (ride == nullptr || !ride->active ||
        ride->seats_available < request.seats) {
      continue;
    }
    const SideEntry* source_run = scratch.source.data() + p * source_cap;
    const SideEntry* dest_run = scratch.dest.data() + g.dest_begin;
    std::size_t emitted = 0;
    for (std::size_t ii = 0; ii < g.source_count && emitted < per_ride; ++ii) {
      const SideEntry& s = source_run[ii];
      for (std::size_t jj = 0; jj < g.dest_count && emitted < per_ride; ++jj) {
        const SideEntry& d = dest_run[jj];
        // The ride must reach the pickup cluster before the drop-off
        // cluster, and they must differ (same-cluster trips are below
        // system resolution).
        if (s.cluster == d.cluster || s.eta_s > d.eta_s) continue;
        if (s.walk_m + d.walk_m > walk_limit) continue;
        // Combined detour check (paper Section VII, final step) with the
        // joint landmark-level estimate — pure index lookups, no shortest
        // paths.
        std::size_t seg_s = 0;
        std::size_t seg_d = 0;
        double joint_detour = 0.0;
        if (!ChooseInsertionSegments(*ride, s.cluster, s.landmark, d.cluster,
                                     d.landmark, &seg_s, &seg_d,
                                     &joint_detour)) {
          continue;
        }
        if (joint_detour > ride->RemainingDetourBudget()) continue;

        RideMatch m;
        m.ride = g.ride;
        m.walk_source_m = s.walk_m;
        m.walk_dest_m = d.walk_m;
        m.eta_source_s = s.eta_s;
        m.eta_dest_s = d.eta_s;
        m.detour_estimate_m = joint_detour;
        m.source_cluster = s.cluster;
        m.dest_cluster = d.cluster;
        m.pickup_landmark = s.landmark;
        m.dropoff_landmark = d.landmark;
        m.epoch = pinned->epoch;
        matches.push_back(m);
        ++emitted;
      }
    }
  }

  std::sort(matches.begin(), matches.end(), MatchRankLess);
  if (tuning.max_results > 0 && matches.size() > tuning.max_results)
    matches.resize(tuning.max_results);
  CountSearch(matches.size());
  return matches;
}

}  // namespace xar
