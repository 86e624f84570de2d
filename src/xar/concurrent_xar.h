#ifndef XAR_XAR_CONCURRENT_XAR_H_
#define XAR_XAR_CONCURRENT_XAR_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/stats_registry.h"
#include "common/thread_pool.h"
#include "discretize/region_snapshot.h"
#include "xar/xar_system.h"

namespace xar {

/// Retry/staleness observability of the optimistic SearchAndBook path
/// (ROADMAP metrics item): how often the first optimistic round wins vs how
/// often a re-search round was needed.
struct RetryStats {
  std::size_t booked_first_try = 0;      ///< booked in round 0
  std::size_t booked_after_research = 0; ///< booked in a re-search round
  std::size_t stale_rejections = 0;      ///< candidates rejected by Book
  std::size_t unmatched = 0;             ///< SearchAndBook returned NotFound
  // Never written; kept only while perfbench's xar.priced_* metrics read them.
  std::size_t priced_waves = 0;
  std::size_t priced_candidates = 0;
  std::size_t priced_dropped = 0;
};

/// "retry" stats section for the unified StatsRegistry surface.
inline StatsSection RetryStatsSection(const RetryStats& stats) {
  StatsSection section;
  section.name = "retry";
  section.AddRow(
      {StatsMetric::Counter("booked_first_try", stats.booked_first_try),
       StatsMetric::Counter("booked_after_research",
                            stats.booked_after_research),
       StatsMetric::Counter("stale_rejections", stats.stale_rejections),
       StatsMetric::Counter("unmatched", stats.unmatched)});
  return section;
}

/// Thread-safe sharded deployment of XarSystem.
///
/// The paper's search touches only precomputed sorted lists, which makes the
/// read path embarrassingly parallel; the earlier facade nevertheless pushed
/// every operation through one global shared_mutex, so a single CreateRide
/// or Book stalled all searches. This version stripes the mutable state by
/// ride id instead (see DESIGN.md "Concurrency model"):
///
///  - N shards (default: hardware_concurrency), each a full XarSystem owning
///    a disjoint slice of the rides. Shard s assigns ride ids s, s+N, s+2N,
///    ... (XarOptions::ride_id_offset/stride), so the owner of any id is
///    id % N and ids remain globally unique. Round-robin creation makes the
///    global id sequence dense: the k-th created ride gets id k, exactly as
///    a standalone XarSystem would assign.
///  - The immutable inputs (road graph, spatial index, RegionIndex cluster
///    geometry) are shared by all shards and read lock-free.
///  - Searches take each shard's lock in *shared* mode: they run concurrently
///    with each other and are only ever blocked by a write to that one shard.
///  - Writes (CreateRide, Book, Cancel*, AdvanceTime) take only the owning
///    shard's lock in exclusive mode; traffic on other shards is unaffected.
///  - SearchAndBook is optimistic: search under shared locks, then validate
///    and book under the owning shard's exclusive lock. Staleness (seat
///    taken, budget spent, cluster support gone) is detected by Book itself;
///    on failure the next candidate is tried, then one full re-search round.
///
/// Lock order: at most one shard lock is ever held at a time (multi-shard
/// walks like AdvanceTime lock shard by shard in ascending index order), so
/// the design is deadlock-free by construction.
///
/// Refresh (live map updates): RefreshDiscretization rebuilds the region
/// snapshot with NO shard locks held, then adopts it shard by shard under
/// each shard's exclusive lock (brief: re-homes that shard's live rides).
/// Searches racing a refresh see some shards on the old epoch and some on
/// the new — the same benign skew AdvanceTime exhibits; each shard's search
/// pins its snapshot, and Book rejects cross-epoch matches as stale, which
/// SearchAndBook turns into a re-search round.
class ConcurrentXarSystem {
 public:
  /// `num_shards` == 0 picks std::thread::hardware_concurrency() (min 1).
  ConcurrentXarSystem(const RoadGraph& graph, const SpatialNodeIndex& spatial,
                      const RegionIndex& region, DistanceOracle& oracle,
                      XarOptions options = {}, std::size_t num_shards = 0)
      : graph_(&graph),
        spatial_(&spatial),
        num_shards_(ResolveShardCount(num_shards)),
        max_results_(options.max_results),
        book_rounds_(options.search_and_book_rounds),
        head_(BorrowRegionSnapshot(region)),
        oracle_(&oracle),
        pool_(num_shards_) {
    shards_.reserve(num_shards_);
    for (std::size_t s = 0; s < num_shards_; ++s) {
      XarOptions shard_options = options;
      shard_options.ride_id_offset = static_cast<std::uint32_t>(s);
      shard_options.ride_id_stride = static_cast<std::uint32_t>(num_shards_);
      shards_.push_back(std::make_unique<Shard>(graph, spatial, head_,
                                                oracle, shard_options));
    }
  }

  ConcurrentXarSystem(const ConcurrentXarSystem&) = delete;
  ConcurrentXarSystem& operator=(const ConcurrentXarSystem&) = delete;

  std::size_t num_shards() const { return num_shards_; }

  // --- Read path (per-shard shared locks, concurrent) ---------------------

  std::vector<RideMatch> Search(const RideRequest& request) const {
    return SearchTopK(request, max_results_);
  }

  /// As Search, with an explicit top-k override (0 = all). Per-shard results
  /// are merged and re-sorted with XarSystem's total order (MatchRankLess),
  /// so the output is byte-identical to a single-shard system over the same
  /// rides.
  std::vector<RideMatch> SearchTopK(const RideRequest& request,
                                    std::size_t k) const {
    std::vector<RideMatch> merged;
    for (const std::unique_ptr<Shard>& shard : shards_) {
      std::shared_lock lock(shard->mutex);
      std::vector<RideMatch> part = shard->system.SearchTopK(request, k);
      merged.insert(merged.end(), part.begin(), part.end());
    }
    std::sort(merged.begin(), merged.end(), MatchRankLess);
    if (k > 0 && merged.size() > k) merged.resize(k);
    return merged;
  }

  /// Fans the searches across the internal thread pool and returns results
  /// in input order. Results are deterministic: identical to calling
  /// Search/SearchTopK serially on a quiescent system.
  std::vector<std::vector<RideMatch>> SearchBatch(
      const std::vector<RideRequest>& requests, std::size_t k = 0) const {
    std::vector<std::vector<RideMatch>> results(requests.size());
    pool_.ParallelFor(requests.size(), [&](std::size_t i) {
      results[i] = k > 0 ? SearchTopK(requests[i], k) : Search(requests[i]);
    });
    return results;
  }

  std::size_t NumActiveRides() const {
    std::size_t total = 0;
    for (const std::unique_ptr<Shard>& shard : shards_) {
      std::shared_lock lock(shard->mutex);
      total += shard->system.NumActiveRides();
    }
    return total;
  }

  std::size_t NumRides() const {
    std::size_t total = 0;
    for (const std::unique_ptr<Shard>& shard : shards_) {
      std::shared_lock lock(shard->mutex);
      total += shard->system.NumRides();
    }
    return total;
  }

  double Now() const {
    std::shared_lock lock(shards_.front()->mutex);
    return shards_.front()->system.Now();
  }

  /// Copies the ride state (a pointer would dangle once the lock drops).
  Result<Ride> GetRide(RideId id) const {
    if (!id.valid()) return Status::NotFound("unknown ride");
    const Shard& shard = ShardOf(id);
    std::shared_lock lock(shard.mutex);
    const Ride* ride = shard.system.GetRide(id);
    if (ride == nullptr) return Status::NotFound("unknown ride");
    return *ride;
  }

  // --- Write path (owning shard's exclusive lock only) --------------------

  Result<RideId> CreateRide(const RideOffer& offer) {
    std::size_t s =
        next_shard_.fetch_add(1, std::memory_order_relaxed) % num_shards_;
    Shard& shard = *shards_[s];
    std::unique_lock lock(shard.mutex);
    return shard.system.CreateRide(offer);
  }

  Result<BookingRecord> Book(RideId ride, const RideRequest& request,
                             const RideMatch& match) {
    if (!ride.valid()) return Status::NotFound("unknown ride");
    Shard& shard = ShardOf(ride);
    std::unique_lock lock(shard.mutex);
    return shard.system.Book(ride, request, match);
  }

  Status CancelBooking(RideId ride, RequestId request) {
    if (!ride.valid()) return Status::NotFound("unknown ride");
    Shard& shard = ShardOf(ride);
    std::unique_lock lock(shard.mutex);
    return shard.system.CancelBooking(ride, request);
  }

  Status ReportNoShow(RideId ride, RequestId request) {
    if (!ride.valid()) return Status::NotFound("unknown ride");
    Shard& shard = ShardOf(ride);
    std::unique_lock lock(shard.mutex);
    return shard.system.ReportNoShow(ride, request);
  }

  Status CancelRide(RideId ride) {
    if (!ride.valid()) return Status::NotFound("unknown ride");
    Shard& shard = ShardOf(ride);
    std::unique_lock lock(shard.mutex);
    return shard.system.CancelRide(ride);
  }

  /// Advances every shard's clock, shard by shard in ascending order. A
  /// search interleaved with AdvanceTime may observe some shards already
  /// advanced and others not yet — the same (benign) staleness any
  /// optimistic reader of a live system sees.
  void AdvanceTime(double now_s) {
    for (const std::unique_ptr<Shard>& shard : shards_) {
      std::unique_lock lock(shard->mutex);
      shard->system.AdvanceTime(now_s);
    }
  }

  // --- Refresh (rebuild + atomic epoch swap) ------------------------------

  /// Current discretization generation: the epoch of the last fully adopted
  /// snapshot. Lock-free; SearchAndBook pins it to detect mid-search swaps.
  std::uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Rebuilds the discretization (no locks held — traffic keeps flowing),
  /// then adopts the new snapshot shard by shard under each shard's
  /// exclusive lock, re-homing that shard's live rides. Concurrent refreshes
  /// serialize on an internal mutex. An empty delta rebuilds the current
  /// region over the current graph (identical tables, new epoch).
  RefreshStats RefreshDiscretization(const GraphDelta& delta = {}) {
    std::lock_guard<std::mutex> refresh_lock(refresh_mutex_);
    Stopwatch timer;
    const RoadGraph& build_graph =
        delta.graph != nullptr ? *delta.graph : *graph_;
    const DiscretizationOptions& build_options =
        delta.options.has_value() ? *delta.options : head_->index->options();
    // Backend preprocessing for the incoming oracle (per-metric contraction
    // hierarchies, inherited from the current oracle's where they still
    // hold) runs first, off-thread with no shard locks held: the snapshot
    // rebuild batches its landmark metric on that backend, and the per-shard
    // swap below adopts snapshot AND ready oracle together — no post-refresh
    // query ever sees a stale hierarchy or pays a build.
    Stopwatch prewarm_timer;
    if (delta.oracle != nullptr) PrewarmFrom(*delta.oracle, *oracle_);
    const double prewarm_ms = prewarm_timer.ElapsedMillis();
    RoutingBackend* matrix_backend =
        delta.oracle != nullptr ? delta.oracle->mutable_routing_backend()
                                : nullptr;
    std::shared_ptr<const RegionSnapshot> next =
        BuildRegionSnapshot(build_graph, *spatial_, build_options,
                            head_->epoch + 1, matrix_backend);

    std::size_t rehomed = 0;
    for (const std::unique_ptr<Shard>& shard : shards_) {
      std::unique_lock lock(shard->mutex);
      rehomed += shard->system.AdoptSnapshot(next, delta.graph, delta.oracle);
    }
    if (delta.graph != nullptr) graph_ = delta.graph;
    if (delta.oracle != nullptr) oracle_ = delta.oracle;
    head_ = std::move(next);
    epoch_.store(head_->epoch, std::memory_order_release);

    refresh_stats_.epoch = head_->epoch;
    refresh_stats_.refreshes += 1;
    refresh_stats_.last_rebuild_ms = timer.ElapsedMillis();
    refresh_stats_.last_prewarm_ms = prewarm_ms;
    refresh_stats_.last_matrix_ms =
        head_->index->landmark_metric().build_millis();
    refresh_stats_.last_rides_rehomed = rehomed;
    refresh_stats_.total_rides_rehomed += rehomed;
    return refresh_stats_;
  }

  /// Runs RefreshDiscretization on a background thread. The delta's graph /
  /// oracle / options must outlive the returned future's completion.
  std::future<RefreshStats> RefreshDiscretizationAsync(GraphDelta delta = {}) {
    return std::async(std::launch::async,
                      [this, delta] { return RefreshDiscretization(delta); });
  }

  RefreshStats refresh_stats() const {
    std::lock_guard<std::mutex> lock(refresh_mutex_);
    return refresh_stats_;
  }

  /// The oracle of the last adopted refresh, which every shard serves with
  /// once that refresh returns: what the "oracle" and "preprocess" stats
  /// sections read.
  const DistanceOracle& oracle() const {
    std::lock_guard<std::mutex> lock(refresh_mutex_);
    return *oracle_;
  }

  RetryStats retry_stats() const {
    RetryStats stats;
    stats.booked_first_try =
        booked_first_try_.load(std::memory_order_relaxed);
    stats.booked_after_research =
        booked_after_research_.load(std::memory_order_relaxed);
    stats.stale_rejections =
        stale_rejections_.load(std::memory_order_relaxed);
    stats.unmatched = unmatched_.load(std::memory_order_relaxed);
    return stats;
  }

  /// Aggregated match-index view across all shards (the "match" stats
  /// section): counters summed, registered rides and bytes totaled.
  MatchIndexStats match_stats() const {
    MatchIndexStats stats;
    for (const auto& shard : shards_) {
      std::shared_lock lock(shard->mutex);
      const MatchIndex& index = shard->system.match_index();
      stats.registered_rides += index.NumRegisteredRides();
      stats.bytes += index.MemoryFootprint();
      stats.counters += index.counters();
    }
    return stats;
  }

  /// Aggregated pooling view across all shards (the "pooling" stats
  /// section): persistent-schedule counters summed, gauges totaled over the
  /// whole live fleet, the rider peak maxed. Each shard is read under its
  /// shared lock — tree mutations only ever happen under the same shard's
  /// exclusive lock, so the snapshot is consistent per shard.
  PoolingStats pooling_stats() const {
    PoolingStats stats;
    for (const std::unique_ptr<Shard>& shard : shards_) {
      std::shared_lock lock(shard->mutex);
      stats += shard->system.pooling_stats();
    }
    return stats;
  }

  /// Test seam: invoked after each SearchAndBook round's search, with no
  /// locks held, receiving the request and the round number. Lets tests
  /// force-stale the candidates deterministically. Set while quiescent only
  /// (the hook itself is not synchronized).
  void SetPostSearchHookForTest(
      std::function<void(const RideRequest&, std::size_t)> hook) {
    post_search_hook_ = std::move(hook);
  }

  /// Compound op: search, then book the best match. Optimistic: the search
  /// holds only shared locks; the book validates the match under the owning
  /// shard's exclusive lock (Book re-checks seats, budget, cluster support
  /// and the discretization epoch). Candidates are tried in least-walking
  /// order; when every one went stale — or the search came back empty while
  /// a refresh moved the epoch mid-flight — the next round re-searches the
  /// new state, up to XarOptions::search_and_book_rounds rounds total.
  Result<BookingRecord> SearchAndBook(const RideRequest& request) {
    const std::size_t rounds = std::max<std::size_t>(1, book_rounds_);
    for (std::size_t round = 0; round < rounds; ++round) {
      const std::uint64_t pinned_epoch = epoch();
      std::vector<RideMatch> matches = Search(request);
      if (post_search_hook_) post_search_hook_(request, round);
      for (const RideMatch& match : matches) {
        Shard& shard = ShardOf(match.ride);
        std::unique_lock lock(shard.mutex);
        Result<BookingRecord> booked =
            shard.system.Book(match.ride, request, match);
        if (booked.ok()) {
          (round == 0 ? booked_first_try_ : booked_after_research_)
              .fetch_add(1, std::memory_order_relaxed);
          return booked;
        }
        stale_rejections_.fetch_add(1, std::memory_order_relaxed);
      }
      // A re-search only pays when the world may have moved under us: a
      // candidate went stale, or a refresh advanced the epoch mid-search.
      // An empty result on a stable epoch is final.
      if (matches.empty() && epoch() == pinned_epoch) break;
    }
    unmatched_.fetch_add(1, std::memory_order_relaxed);
    return Status::NotFound("no feasible ride");
  }

 private:
  struct Shard {
    Shard(const RoadGraph& graph, const SpatialNodeIndex& spatial,
          std::shared_ptr<const RegionSnapshot> snapshot,
          DistanceOracle& oracle, XarOptions options)
        : system(graph, spatial, std::move(snapshot), oracle, options) {}

    mutable std::shared_mutex mutex;
    XarSystem system;
  };

  static std::size_t ResolveShardCount(std::size_t requested) {
    if (requested > 0) return requested;
    std::size_t hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
  }

  Shard& ShardOf(RideId id) const {
    return *shards_[id.value() % num_shards_];
  }

  const RoadGraph* graph_;            ///< swapped by refresh graph deltas
  const SpatialNodeIndex* spatial_;
  std::size_t num_shards_;
  std::size_t max_results_;
  std::size_t book_rounds_;
  /// Last fully adopted snapshot; guarded by refresh_mutex_. Shards on an
  /// older epoch keep their snapshot alive independently via shared_ptr.
  std::shared_ptr<const RegionSnapshot> head_;
  /// Oracle of the last fully adopted refresh: the one the next refresh
  /// prewarms its incoming oracle from. Guarded by refresh_mutex_ (the
  /// shards swap their own oracle pointers under their locks).
  DistanceOracle* oracle_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> next_shard_{0};
  std::atomic<std::uint64_t> epoch_{0};
  mutable std::mutex refresh_mutex_;
  RefreshStats refresh_stats_;  ///< guarded by refresh_mutex_

  std::atomic<std::size_t> booked_first_try_{0};
  std::atomic<std::size_t> booked_after_research_{0};
  std::atomic<std::size_t> stale_rejections_{0};
  std::atomic<std::size_t> unmatched_{0};
  std::function<void(const RideRequest&, std::size_t)> post_search_hook_;
  mutable ThreadPool pool_;
};

}  // namespace xar

#endif  // XAR_XAR_CONCURRENT_XAR_H_
