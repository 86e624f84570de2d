#include "graph/oracle_cache.h"

#include <atomic>

namespace xar {
namespace {

std::size_t RoundUpPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

const char* OracleCachePolicyName(OracleCachePolicy policy) {
  switch (policy) {
    case OracleCachePolicy::kClock:
      return "clock";
  }
  return "unknown";
}

OracleClockCache::OracleClockCache(std::size_t capacity)
    : capacity_(RoundUpPow2(capacity < 8 ? 8 : capacity)),
      mask_(capacity_ - 1),
      window_(capacity_ < 8 ? capacity_ : 8),
      slots_(new Slot[capacity_]) {}

std::optional<double> OracleClockCache::Lookup(const OracleCacheKey& key) {
  const std::size_t base = BucketOf(key);
  for (std::size_t i = 0; i < window_; ++i) {
    Slot& slot = slots_[(base + i) & mask_];
    const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
    if (seq & 1) continue;  // writer mid-flight: treat as a miss
    // Acquire payload loads keep the seq re-check below them, and one that
    // reads a racing writer's release store sees that writer's odd seq.
    const std::uint64_t nodes = slot.nodes.load(std::memory_order_acquire);
    const std::uint32_t metric =
        slot.metric_plus1.load(std::memory_order_acquire);
    const std::uint64_t bits = slot.value_bits.load(std::memory_order_acquire);
    // Seqlock validation: if the sequence moved, the payload reads above may
    // be torn — treat the slot as a miss (the backend recomputes).
    if (slot.seq.load(std::memory_order_relaxed) != seq) continue;
    if (metric == 0) return std::nullopt;  // never-written slot ends the probe
    if (nodes == key.nodes && metric == key.metric + 1) {
      slot.ref.store(1, std::memory_order_relaxed);  // CLOCK second chance
      return std::bit_cast<double>(bits);
    }
  }
  return std::nullopt;
}

bool OracleClockCache::TryWrite(Slot& slot, std::uint64_t seq_even,
                                const OracleCacheKey& key, double value,
                                bool* was_empty) {
  if (!slot.seq.compare_exchange_strong(seq_even, seq_even + 1,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
    return false;
  }
  // Slot claimed (seq is odd): we are the only writer and the sequence is
  // monotone, so the fields are ours until the release below. The payload
  // stores release too, so a reader whose acquire load sees one of them
  // also sees the odd seq and discards the slot.
  *was_empty = slot.metric_plus1.load(std::memory_order_relaxed) == 0;
  slot.nodes.store(key.nodes, std::memory_order_release);
  slot.metric_plus1.store(key.metric + 1, std::memory_order_release);
  slot.value_bits.store(std::bit_cast<std::uint64_t>(value),
                        std::memory_order_release);
  slot.ref.store(1, std::memory_order_relaxed);
  slot.seq.store(seq_even + 2, std::memory_order_release);
  return true;
}

OracleClockCache::InsertOutcome OracleClockCache::Insert(
    const OracleCacheKey& key, double value) {
  const std::size_t base = BucketOf(key);
  // Pass 1: a racing duplicate, or the first empty slot in the window.
  for (std::size_t i = 0; i < window_; ++i) {
    Slot& slot = slots_[(base + i) & mask_];
    const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
    if (seq & 1) continue;
    const std::uint64_t nodes = slot.nodes.load(std::memory_order_acquire);
    const std::uint32_t metric =
        slot.metric_plus1.load(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != seq) continue;
    if (metric == 0) {
      // The claim CAS only succeeds if seq is unchanged since the reads
      // above, and seq is monotone — so a successful claim still sees the
      // empty slot.
      bool was_empty = false;
      if (TryWrite(slot, seq, key, value, &was_empty)) {
        occupied_.fetch_add(1, std::memory_order_relaxed);
        insertions_.fetch_add(1, std::memory_order_relaxed);
        return InsertOutcome::kInserted;
      }
      continue;  // a racer took this slot; keep probing
    }
    if (nodes == key.nodes && metric == key.metric + 1) {
      // A racing thread computed and inserted this very key first. Its value
      // is bit-identical (the backend is deterministic), so keep its entry.
      races_.fetch_add(1, std::memory_order_relaxed);
      return InsertOutcome::kAlreadyPresent;
    }
  }
  // Pass 2: CLOCK second-chance sweep over the window, starting offset
  // rotated by the global hand. Referenced slots get their bit cleared and
  // survive this sweep; the first unreferenced, stable slot is the victim.
  const std::uint64_t start = hand_.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t attempt = 0; attempt < 2 * window_; ++attempt) {
    const std::size_t offset =
        static_cast<std::size_t>(start + attempt) % window_;
    Slot& slot = slots_[(base + offset) & mask_];
    if (slot.ref.load(std::memory_order_relaxed) != 0) {
      slot.ref.store(0, std::memory_order_relaxed);  // second chance
      continue;
    }
    const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
    if (seq & 1) continue;
    bool was_empty = false;
    if (TryWrite(slot, seq, key, value, &was_empty)) {
      if (was_empty) occupied_.fetch_add(1, std::memory_order_relaxed);
      insertions_.fetch_add(1, std::memory_order_relaxed);
      if (!was_empty) evictions_.fetch_add(1, std::memory_order_relaxed);
      return was_empty ? InsertOutcome::kInserted : InsertOutcome::kEvicted;
    }
  }
  // Every claim lost its race (all slots hot or contended). Lossy by
  // design: the entry just is not cached this time.
  drops_.fetch_add(1, std::memory_order_relaxed);
  return InsertOutcome::kDropped;
}

}  // namespace xar
