#ifndef XAR_GRAPH_ORACLE_CACHE_H_
#define XAR_GRAPH_ORACLE_CACHE_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "common/ids.h"
#include "graph/road_graph.h"

namespace xar {

/// The distance cache a GraphOracle runs in front of its routing backend.
/// CLOCK is the only policy; the enum stays because XarOptions::oracle_cache
/// and the GraphOracle constructor still name it.
enum class OracleCachePolicy {
  /// Lossy lock-free CLOCK approximation (OracleClockCache): no locks on
  /// the read or insert path; losing a race simply drops the entry and the
  /// backend recomputes.
  kClock,
};

/// Stable lowercase name ("clock") for logs/stats/JSON.
const char* OracleCachePolicyName(OracleCachePolicy policy);

/// Cache key of one (from, to, metric) distance query. `from` and `to` use
/// the full 32 bits each: the old single-uint64 packing (`from << 34 |
/// to << 2 | metric`) silently dropped the top bits of `from` for node ids
/// >= 2^30, aliasing distinct queries onto one cache slot.
struct OracleCacheKey {
  std::uint64_t nodes = 0;  ///< from in the high 32 bits, to in the low 32
  std::uint32_t metric = 0;

  friend bool operator==(const OracleCacheKey& a, const OracleCacheKey& b) {
    return a.nodes == b.nodes && a.metric == b.metric;
  }
};

inline OracleCacheKey MakeOracleCacheKey(NodeId from, NodeId to,
                                         Metric metric) {
  OracleCacheKey key;
  key.nodes = (static_cast<std::uint64_t>(from.value()) << 32) |
              static_cast<std::uint64_t>(to.value());
  key.metric = static_cast<std::uint32_t>(metric);
  return key;
}

struct OracleCacheKeyHash {
  std::size_t operator()(const OracleCacheKey& key) const noexcept {
    // splitmix64-style mix of both fields.
    std::uint64_t h = key.nodes + 0x9e3779b97f4a7c15ull * (key.metric + 1);
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 31;
    return static_cast<std::size_t>(h);
  }
};

/// Insert-path counters of the distance cache. Hits and misses are
/// counted by the owning GraphOracle (cache_hit_count / computation_count);
/// these count what happened on the insert path.
struct OracleCacheCounters {
  std::uint64_t insertions = 0;  ///< entries written into the cache
  std::uint64_t evictions = 0;   ///< insertions that displaced a live entry
  std::uint64_t drops = 0;       ///< insertions abandoned (lost every CAS)
  std::uint64_t races = 0;       ///< key already present at insert time
};

/// Lossy, lock-free CLOCK-approximation distance cache.
///
/// Layout: a fixed-capacity (power-of-two) open-addressed table of slots.
/// Each slot is a tiny seqlock — a monotone sequence counter (even =
/// stable, odd = writer mid-flight) plus the key, the value bits and a
/// CLOCK reference bit, all individually atomic. Readers retry nothing:
/// a torn or mid-write slot is simply treated as a miss and the backend
/// recomputes, which is always correct because the backend is a pure
/// function of (from, to, metric).
///
/// Insertion probes a short linear window from the key's hash bucket:
/// a matching key counts as a race (a concurrent thread computed the same
/// pair first — keep its entry, the values are identical); an empty slot
/// is claimed by CAS-ing its sequence counter to odd. When the window is
/// full, a CLOCK second-chance sweep evicts: a global atomic hand rotates
/// the sweep's starting offset, slots with the reference bit set get it
/// cleared and survive, and the first unreferenced slot is claimed by the
/// same CAS. If every claim attempt loses its race the insertion is
/// dropped — lossy by design, the entry just isn't cached this time.
///
/// No mutex anywhere; no operation ever blocks another. TSan-clean: every
/// shared field is a std::atomic and the per-slot publication protocol is
/// the standard seqlock in the form TSan models (release payload stores,
/// acquire payload loads before the sequence re-check, release store
/// publishing the new sequence) — no standalone fences.
class OracleClockCache {
 public:
  /// `capacity` is rounded up to a power of two (minimum 8). The probe
  /// window is min(8, capacity): with capacity 8 every key's window is the
  /// whole table, which unit tests use to force eviction deterministically.
  explicit OracleClockCache(std::size_t capacity);

  OracleClockCache(const OracleClockCache&) = delete;
  OracleClockCache& operator=(const OracleClockCache&) = delete;

  /// Value cached for `key`, or nullopt. A hit sets the slot's reference
  /// bit (the CLOCK second chance). Lock-free and wait-free.
  std::optional<double> Lookup(const OracleCacheKey& key);

  enum class InsertOutcome {
    kInserted,        ///< wrote into an empty slot
    kEvicted,         ///< wrote over a CLOCK-selected victim
    kAlreadyPresent,  ///< a racing thread inserted this key first
    kDropped,         ///< lost every CAS; entry not cached (benign)
  };

  /// Inserts `value` for `key`. Never blocks; see InsertOutcome.
  InsertOutcome Insert(const OracleCacheKey& key, double value);

  std::size_t capacity() const { return capacity_; }
  std::size_t probe_window() const { return window_; }
  /// Live entries (never exceeds capacity; evictions keep it constant).
  std::size_t occupied() const {
    return occupied_.load(std::memory_order_relaxed);
  }
  OracleCacheCounters counters() const {
    OracleCacheCounters c;
    c.insertions = insertions_.load(std::memory_order_relaxed);
    c.evictions = evictions_.load(std::memory_order_relaxed);
    c.drops = drops_.load(std::memory_order_relaxed);
    c.races = races_.load(std::memory_order_relaxed);
    return c;
  }

 private:
  struct Slot {
    /// Even = stable, odd = writer mid-flight. Monotone, so the claim CAS
    /// has no ABA window.
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> nodes{0};
    /// metric + 1; 0 = slot has never been written.
    std::atomic<std::uint32_t> metric_plus1{0};
    /// CLOCK reference bit (hint only — no ordering with the seqlock).
    std::atomic<std::uint32_t> ref{0};
    std::atomic<std::uint64_t> value_bits{0};
  };

  std::size_t BucketOf(const OracleCacheKey& key) const {
    return OracleCacheKeyHash{}(key) & mask_;
  }

  /// Claims `slot` (seq CAS even->odd), writes the entry, publishes
  /// (seq -> even). Returns false if the claim CAS lost; `*was_empty`
  /// reports whether the overwritten slot had never held an entry.
  bool TryWrite(Slot& slot, std::uint64_t seq_even, const OracleCacheKey& key,
                double value, bool* was_empty);

  std::size_t capacity_;
  std::size_t mask_;
  std::size_t window_;
  std::unique_ptr<Slot[]> slots_;
  /// The CLOCK hand: rotates the eviction sweep's starting offset so
  /// repeated evictions in one window don't always victimize slot 0.
  std::atomic<std::uint64_t> hand_{0};
  std::atomic<std::size_t> occupied_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> drops_{0};
  std::atomic<std::uint64_t> races_{0};
};

}  // namespace xar

#endif  // XAR_GRAPH_ORACLE_CACHE_H_
