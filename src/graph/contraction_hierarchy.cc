#include "graph/contraction_hierarchy.h"

#include <algorithm>
#include <cassert>
#include <future>
#include <memory>
#include <numeric>
#include <thread>
#include <utility>

#include "common/clock.h"
#include "common/thread_pool.h"

namespace xar {

ContractionHierarchy::ContractionHierarchy(const RoadGraph& graph,
                                           Metric metric, ChOptions options)
    : ContractionHierarchy(graph, metric, nullptr, options) {}

ContractionHierarchy::ContractionHierarchy(
    const RoadGraph& graph, Metric metric,
    const ContractionHierarchy& previous, ChOptions options)
    : ContractionHierarchy(graph, metric, &previous, options) {}

ContractionHierarchy::ContractionHierarchy(
    const RoadGraph& graph, Metric metric,
    const ContractionHierarchy* previous, ChOptions options)
    : metric_(metric),
      n_(graph.NumNodes()),
      options_(options),
      fwd_(n_),
      bwd_(n_),
      contracted_(n_, 0),
      in_batch_(n_, 0),
      contracted_neighbors_(n_, 0),
      priority_(n_, 0.0),
      rank_(n_, 0),
      level_(n_, 0),
      up_(n_),
      down_(n_) {
  Stopwatch build_timer;
  // Base adjacency under the chosen metric (lightest parallel arc only).
  for (std::size_t u = 0; u < n_; ++u) {
    for (const RoadEdge& e :
         graph.OutEdges(NodeId(static_cast<NodeId::underlying_type>(u)))) {
      double w = RoadGraph::EdgeWeight(e, metric);
      if (w == kInf) continue;
      fwd_[u].push_back(Arc{e.to.value(), w, kNoVia});
      bwd_[e.to.value()].push_back(
          Arc{static_cast<std::uint32_t>(u), w, kNoVia});
    }
  }
  auto dedup = [](std::vector<Arc>& arcs) {
    std::sort(arcs.begin(), arcs.end(), [](const Arc& a, const Arc& b) {
      if (a.to != b.to) return a.to < b.to;
      return a.weight < b.weight;
    });
    arcs.erase(std::unique(arcs.begin(), arcs.end(),
                           [](const Arc& a, const Arc& b) {
                             return a.to == b.to;
                           }),
               arcs.end());
  };
  for (std::size_t u = 0; u < n_; ++u) {
    dedup(fwd_[u]);
    dedup(bwd_[u]);
  }

  Contract(previous);

  // Assemble the upward/downward search graphs from the final arc sets
  // (originals + shortcuts accumulated into fwd_/bwd_), and the unpack map
  // over ALL final arcs — shortcut expansion recurses through pairs that
  // the rank cut excludes from up_/down_.
  for (std::size_t u = 0; u < n_; ++u) {
    for (const Arc& a : fwd_[u]) {
      if (rank_[a.to] > rank_[u]) up_[u].push_back(a);
      auto [it, inserted] = unpack_.try_emplace(
          PackPair(static_cast<std::uint32_t>(u), a.to), a);
      if (!inserted && a.weight < it->second.weight) it->second = a;
    }
    for (const Arc& a : bwd_[u]) {
      if (rank_[a.to] > rank_[u]) down_[u].push_back(a);
    }
    dedup(up_[u]);
    dedup(down_[u]);
  }

  // Construction-only state is dead weight from here on; the query side
  // reads up_/down_/unpack_/rank_ only.
  std::vector<std::vector<Arc>>().swap(fwd_);
  std::vector<std::vector<Arc>>().swap(bwd_);
  std::vector<std::uint8_t>().swap(contracted_);
  std::vector<std::uint8_t>().swap(in_batch_);
  std::vector<std::uint32_t>().swap(contracted_neighbors_);
  std::vector<double>().swap(priority_);
  build_millis_ = build_timer.ElapsedMillis();
}

ContractionHierarchy::~ContractionHierarchy() = default;

void ContractionHierarchy::Contract(const ContractionHierarchy* previous) {
  std::size_t threads = options_.preprocess_threads;
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  if (n_ > 0) threads = std::min(threads, n_);
  threads_used_ = std::max<std::size_t>(1, threads);

  std::vector<WitnessSpace> spaces;
  spaces.reserve(threads_used_);
  for (std::size_t t = 0; t < threads_used_; ++t) spaces.emplace_back(n_);
  // Extra workers only; chunk 0 always runs on the calling thread, so a
  // 1-thread build spawns nothing.
  std::unique_ptr<ThreadPool> pool;
  if (threads_used_ > 1) {
    pool = std::make_unique<ThreadPool>(threads_used_ - 1);
  }

  // Runs fn(space, i) for i in [0, count), statically chunked so each chunk
  // owns one witness space. The phases below only ever write per-index
  // slots (priority_[v], shortcut lists), so results are independent of the
  // chunking; joining the futures sequences each phase before the next.
  auto parallel_for = [&](std::size_t count, auto&& fn) {
    const std::size_t chunks = std::min(threads_used_, std::max<std::size_t>(
                                                           1, count));
    const std::size_t per = (count + chunks - 1) / chunks;
    std::vector<std::future<void>> helpers;
    helpers.reserve(chunks > 0 ? chunks - 1 : 0);
    for (std::size_t c = 1; c < chunks; ++c) {
      const std::size_t begin = c * per;
      const std::size_t end = std::min(count, begin + per);
      if (begin >= end) break;
      helpers.push_back(pool->Submit([&, begin, end, c] {
        for (std::size_t i = begin; i < end; ++i) fn(spaces[c], i);
      }));
    }
    const std::size_t end0 = std::min(count, per);
    for (std::size_t i = 0; i < end0; ++i) fn(spaces[0], i);
    for (std::future<void>& helper : helpers) helper.get();
  };

  // Initial priorities for every node: simulated, or `previous`'s levels.
  const bool fixed = previous != nullptr;
  if (fixed) {
    assert(previous->n_ == n_);
    for (std::size_t v = 0; v < n_; ++v) {
      priority_[v] = static_cast<double>(previous->level_[v]);
    }
  } else {
    parallel_for(n_, [&](WitnessSpace& space, std::size_t v) {
      priority_[v] = ContractPriority(space, static_cast<std::uint32_t>(v));
    });
  }

  // `a` strictly before `b` in the contraction order (id tie-break keeps
  // batch selection — and hence the whole hierarchy — deterministic).
  auto before = [&](std::uint32_t a, std::uint32_t b) {
    if (priority_[a] != priority_[b]) return priority_[a] < priority_[b];
    return a < b;
  };

  std::vector<std::uint32_t> alive(n_);
  std::iota(alive.begin(), alive.end(), 0);
  std::vector<std::uint32_t> batch;
  std::vector<std::vector<std::pair<Arc, std::uint32_t>>> batch_shortcuts;
  std::vector<std::uint32_t> dirty;
  std::size_t next_rank = 0;

  while (!alive.empty()) {
    ++num_batches_;
    // Select the independent set: uncontracted nodes that order before all
    // their uncontracted neighbors. The global minimum always qualifies, so
    // every round makes progress; two neighbors can never both qualify.
    batch.clear();
    // Fixed levels confine the batch to the lowest level left: a node
    // whose neighbors all sit higher would qualify earlier, but contracting
    // it ahead of its level changes which nodes the witness searches see
    // and avoid, which compounds into many spurious shortcuts.
    double lowest_level = 0.0;
    if (fixed) {
      lowest_level = kInf;
      for (std::uint32_t v : alive) {
        lowest_level = std::min(lowest_level, priority_[v]);
      }
    }
    for (std::uint32_t v : alive) {
      if (fixed && priority_[v] != lowest_level) continue;
      bool is_min = true;
      for (const Arc& a : fwd_[v]) {
        if (!contracted_[a.to] && before(a.to, v)) {
          is_min = false;
          break;
        }
      }
      if (is_min) {
        for (const Arc& a : bwd_[v]) {
          if (!contracted_[a.to] && before(a.to, v)) {
            is_min = false;
            break;
          }
        }
      }
      if (is_min) batch.push_back(v);
    }
    for (std::uint32_t v : batch) in_batch_[v] = 1;

    // Simulate all batch contractions in parallel against the same
    // pre-batch graph. Witness searches avoid every batch member, so a
    // skipped shortcut always has a surviving witness path no matter which
    // order the batch lands in (equal-weight witnesses through two batch
    // members could otherwise cancel each other's shortcuts).
    batch_shortcuts.assign(batch.size(), {});
    parallel_for(batch.size(), [&](WitnessSpace& space, std::size_t i) {
      batch_shortcuts[i] = SimulateContract(space, batch[i]);
    });

    // Apply in ascending node id (the selection scan order): ranks,
    // shortcut arcs and counters land exactly as a serial replay would.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::uint32_t v = batch[i];
      rank_[v] = next_rank++;
      level_[v] = static_cast<std::uint32_t>(num_batches_ - 1);
      for (const auto& [arc, from] : batch_shortcuts[i]) {
        fwd_[from].push_back(arc);
        bwd_[arc.to].push_back(Arc{from, arc.weight, arc.via});
        ++num_shortcuts_;
      }
      contracted_[v] = 1;
    }

    for (std::uint32_t v : batch) in_batch_[v] = 0;

    // Lazy re-evaluation: only neighbors of the batch changed (lost a
    // neighbor and/or gained shortcut arcs) — refresh just their priorities.
    // Fixed levels never change.
    if (!fixed) {
      dirty.clear();
      for (std::uint32_t v : batch) {
        for (const Arc& a : fwd_[v]) {
          ++contracted_neighbors_[a.to];
          if (!contracted_[a.to]) dirty.push_back(a.to);
        }
        for (const Arc& a : bwd_[v]) {
          ++contracted_neighbors_[a.to];
          if (!contracted_[a.to]) dirty.push_back(a.to);
        }
      }
      std::sort(dirty.begin(), dirty.end());
      dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
      parallel_for(dirty.size(), [&](WitnessSpace& space, std::size_t i) {
        priority_[dirty[i]] = ContractPriority(space, dirty[i]);
      });
    }

    alive.erase(std::remove_if(alive.begin(), alive.end(),
                               [&](std::uint32_t v) {
                                 return contracted_[v] != 0;
                               }),
                alive.end());
  }
}

void ContractionHierarchy::WitnessSearch(WitnessSpace& space,
                                         std::uint32_t from,
                                         std::uint32_t excluded,
                                         double cutoff) const {
  ++space.generation;
  space.heap.Clear();
  space.dist[from] = 0;
  space.mark[from] = space.generation;
  space.heap.Push(from, 0);
  std::size_t settled = 0;
  while (!space.heap.empty() && settled < options_.witness_search_limit) {
    std::uint32_t u = static_cast<std::uint32_t>(space.heap.PopMin());
    ++settled;
    double du = WitnessLabel(space, u);
    if (du > cutoff) break;
    for (const Arc& a : fwd_[u]) {
      if (a.to == excluded || contracted_[a.to] || in_batch_[a.to]) continue;
      double nd = du + a.weight;
      if (nd < WitnessLabel(space, a.to) && nd <= cutoff) {
        space.dist[a.to] = nd;
        space.mark[a.to] = space.generation;
        space.heap.PushOrDecrease(a.to, nd);
      }
    }
  }
}

std::vector<std::pair<ContractionHierarchy::Arc, std::uint32_t>>
ContractionHierarchy::SimulateContract(WitnessSpace& space,
                                       std::uint32_t v) const {
  std::vector<std::pair<Arc, std::uint32_t>> shortcuts;  // (arc, from)
  for (const Arc& in : bwd_[v]) {
    if (contracted_[in.to]) continue;
    // One bounded Dijkstra from this incoming neighbor serves every
    // outgoing target (cutoff = the longest candidate via-path), instead of
    // one search per (in, out) pair.
    double max_out = -1.0;
    for (const Arc& out : fwd_[v]) {
      if (contracted_[out.to] || out.to == in.to) continue;
      max_out = std::max(max_out, out.weight);
    }
    if (max_out < 0.0) continue;
    WitnessSearch(space, in.to, v, in.weight + max_out);
    for (const Arc& out : fwd_[v]) {
      if (contracted_[out.to] || out.to == in.to) continue;
      double via = in.weight + out.weight;
      if (WitnessLabel(space, out.to) <= via) continue;  // witness path found
      shortcuts.push_back({Arc{out.to, via, v}, in.to});
    }
  }
  return shortcuts;
}

double ContractionHierarchy::ContractPriority(WitnessSpace& space,
                                              std::uint32_t v) const {
  if (contracted_[v]) return kInf;
  std::size_t removed = 0;
  for (const Arc& a : fwd_[v]) removed += contracted_[a.to] ? 0 : 1;
  for (const Arc& a : bwd_[v]) removed += contracted_[a.to] ? 0 : 1;
  std::size_t added = SimulateContract(space, v).size();
  return static_cast<double>(added) - static_cast<double>(removed) +
         2.0 * static_cast<double>(contracted_neighbors_[v]);
}

ChQuery& ContractionHierarchy::DefaultQuery() {
  if (!default_query_) default_query_ = std::make_unique<ChQuery>(*this);
  return *default_query_;
}

double ContractionHierarchy::Distance(NodeId src, NodeId dst) {
  return DefaultQuery().Distance(src, dst);
}

std::vector<NodeId> ContractionHierarchy::RouteNodes(NodeId src, NodeId dst) {
  return DefaultQuery().RouteNodes(src, dst);
}


std::size_t ContractionHierarchy::last_settled_count() const {
  return default_query_ ? default_query_->last_settled_count() : 0;
}

std::size_t ContractionHierarchy::MemoryFootprint() const {
  std::size_t bytes = sizeof(*this);
  auto count = [&](const std::vector<std::vector<Arc>>& adj) {
    for (const auto& arcs : adj) bytes += arcs.capacity() * sizeof(Arc);
  };
  count(up_);
  count(down_);
  // Hash map: key + value per entry plus bucket/link overhead.
  bytes += unpack_.size() *
           (sizeof(std::uint64_t) + sizeof(Arc) + 2 * sizeof(void*));
  bytes += rank_.capacity() * sizeof(std::size_t);
  bytes += level_.capacity() * sizeof(std::uint32_t);
  return bytes;
}

ChQuery::ChQuery(const ContractionHierarchy& ch)
    : ch_(ch),
      fwd_heap_(ch.n_),
      bwd_heap_(ch.n_),
      fwd_dist_(ch.n_, kInf),
      bwd_dist_(ch.n_, kInf),
      fwd_mark_(ch.n_, 0),
      bwd_mark_(ch.n_, 0),
      fwd_parent_(ch.n_, kNoNode),
      bwd_parent_(ch.n_, kNoNode) {}

double ChQuery::Run(NodeId src, NodeId dst, bool record_parents,
                    std::uint32_t* meet) {
  using Arc = ContractionHierarchy::Arc;
  ++generation_;
  fwd_heap_.Clear();
  bwd_heap_.Clear();
  last_settled_count_ = 0;
  *meet = kNoNode;

  auto fdist = [&](std::uint32_t v) {
    return fwd_mark_[v] == generation_ ? fwd_dist_[v] : kInf;
  };
  auto bdist = [&](std::uint32_t v) {
    return bwd_mark_[v] == generation_ ? bwd_dist_[v] : kInf;
  };

  fwd_dist_[src.value()] = 0;
  fwd_mark_[src.value()] = generation_;
  bwd_dist_[dst.value()] = 0;
  bwd_mark_[dst.value()] = generation_;
  if (record_parents) {
    fwd_parent_[src.value()] = kNoNode;
    bwd_parent_[dst.value()] = kNoNode;
  }
  fwd_heap_.Push(src.value(), 0);
  bwd_heap_.Push(dst.value(), 0);

  double best = kInf;
  // Upward searches from both ends; a settled node reached by both sides
  // closes a candidate path. Standard CH stopping: a side stops once its
  // queue minimum exceeds the best candidate.
  while (!fwd_heap_.empty() || !bwd_heap_.empty()) {
    bool fwd_turn;
    if (fwd_heap_.empty()) {
      fwd_turn = false;
    } else if (bwd_heap_.empty()) {
      fwd_turn = true;
    } else {
      fwd_turn = fwd_heap_.MinKey() <= bwd_heap_.MinKey();
    }
    IndexedMinHeap& heap = fwd_turn ? fwd_heap_ : bwd_heap_;
    if (heap.MinKey() >= best) {
      heap.Clear();
      continue;
    }
    std::uint32_t u = static_cast<std::uint32_t>(heap.PopMin());
    ++last_settled_count_;
    double du = fwd_turn ? fdist(u) : bdist(u);
    // Stall-on-demand: if a higher-ranked neighbor reaches u more cheaply
    // than u's own label, u cannot be the apex of a shortest up-down path
    // (the apex's upward label is exact, so it never stalls) — skip both
    // the candidate update and the relaxations.
    {
      const std::vector<Arc>& stall = fwd_turn ? ch_.down_[u] : ch_.up_[u];
      bool stalled = false;
      for (const Arc& a : stall) {
        double dp = fwd_turn ? fdist(a.to) : bdist(a.to);
        if (dp + a.weight < du) {
          stalled = true;
          break;
        }
      }
      if (stalled) continue;
    }
    double other = fwd_turn ? bdist(u) : fdist(u);
    if (other != kInf && du + other < best) {
      best = du + other;
      *meet = u;
    }
    const std::vector<Arc>& arcs = fwd_turn ? ch_.up_[u] : ch_.down_[u];
    for (const Arc& a : arcs) {
      double nd = du + a.weight;
      if (fwd_turn) {
        if (nd < fdist(a.to)) {
          fwd_dist_[a.to] = nd;
          fwd_mark_[a.to] = generation_;
          if (record_parents) fwd_parent_[a.to] = u;
          fwd_heap_.PushOrDecrease(a.to, nd);
        }
      } else {
        if (nd < bdist(a.to)) {
          bwd_dist_[a.to] = nd;
          bwd_mark_[a.to] = generation_;
          if (record_parents) bwd_parent_[a.to] = u;
          bwd_heap_.PushOrDecrease(a.to, nd);
        }
      }
    }
  }
  return best;
}

double ChQuery::Distance(NodeId src, NodeId dst) {
  if (src == dst) return 0.0;
  std::uint32_t meet;
  return Run(src, dst, /*record_parents=*/false, &meet);
}

void ChQuery::BuildBuckets(const std::vector<NodeId>& targets) {
  using Arc = ContractionHierarchy::Arc;
  if (buckets_.empty()) buckets_.resize(ch_.n_);
  for (std::uint32_t v : bucket_nodes_) buckets_[v].clear();
  bucket_nodes_.clear();

  auto bdist = [&](std::uint32_t v) {
    return bwd_mark_[v] == generation_ ? bwd_dist_[v] : kInf;
  };

  // One full backward upward search per target (no best-distance pruning —
  // every settled node serves every future source). A node stalled by a
  // higher-ranked neighbor cannot be the apex of a shortest up-down path,
  // so skipping its bucket entry never loses the minimum.
  for (std::size_t t = 0; t < targets.size(); ++t) {
    ++generation_;
    bwd_heap_.Clear();
    std::uint32_t dst = targets[t].value();
    bwd_dist_[dst] = 0;
    bwd_mark_[dst] = generation_;
    bwd_heap_.Push(dst, 0);
    while (!bwd_heap_.empty()) {
      std::uint32_t u = static_cast<std::uint32_t>(bwd_heap_.PopMin());
      ++last_settled_count_;
      double du = bdist(u);
      bool stalled = false;
      for (const Arc& a : ch_.up_[u]) {
        if (bdist(a.to) + a.weight < du) {
          stalled = true;
          break;
        }
      }
      if (stalled) continue;
      if (buckets_[u].empty()) bucket_nodes_.push_back(u);
      buckets_[u].push_back(
          BucketEntry{static_cast<std::uint32_t>(t), du});
      for (const Arc& a : ch_.down_[u]) {
        double nd = du + a.weight;
        if (nd < bdist(a.to)) {
          bwd_dist_[a.to] = nd;
          bwd_mark_[a.to] = generation_;
          bwd_heap_.PushOrDecrease(a.to, nd);
        }
      }
    }
  }
}

void ChQuery::ScanBuckets(NodeId src, double* row) {
  using Arc = ContractionHierarchy::Arc;
  ++generation_;
  fwd_heap_.Clear();

  auto fdist = [&](std::uint32_t v) {
    return fwd_mark_[v] == generation_ ? fwd_dist_[v] : kInf;
  };

  fwd_dist_[src.value()] = 0;
  fwd_mark_[src.value()] = generation_;
  fwd_heap_.Push(src.value(), 0);
  while (!fwd_heap_.empty()) {
    std::uint32_t u = static_cast<std::uint32_t>(fwd_heap_.PopMin());
    ++last_settled_count_;
    double du = fdist(u);
    bool stalled = false;
    for (const Arc& a : ch_.down_[u]) {
      if (fdist(a.to) + a.weight < du) {
        stalled = true;
        break;
      }
    }
    if (stalled) continue;
    for (const BucketEntry& e : buckets_[u]) {
      double d = du + e.dist;
      if (d < row[e.target]) row[e.target] = d;
    }
    for (const Arc& a : ch_.up_[u]) {
      double nd = du + a.weight;
      if (nd < fdist(a.to)) {
        fwd_dist_[a.to] = nd;
        fwd_mark_[a.to] = generation_;
        fwd_heap_.PushOrDecrease(a.to, nd);
      }
    }
  }
}

std::vector<double> ChQuery::DistancesToMany(
    NodeId src, const std::vector<NodeId>& targets) {
  last_settled_count_ = 0;
  BuildBuckets(targets);
  std::vector<double> out(targets.size(), kInf);
  ScanBuckets(src, out.data());
  return out;
}

std::vector<double> ChQuery::ManyToMany(const std::vector<NodeId>& sources,
                                        const std::vector<NodeId>& targets) {
  last_settled_count_ = 0;
  BuildBuckets(targets);
  std::vector<double> out(sources.size() * targets.size(), kInf);
  for (std::size_t s = 0; s < sources.size(); ++s) {
    ScanBuckets(sources[s], out.data() + s * targets.size());
  }
  return out;
}

void ChQuery::AppendUnpacked(std::uint32_t from, std::uint32_t to,
                             std::vector<NodeId>* out) const {
  // Explicit stack; pushing (a, via) after (via, b) keeps emission
  // left-to-right. Each expansion strictly lowers the middle rank, so this
  // terminates at original arcs.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> stack;
  stack.emplace_back(from, to);
  while (!stack.empty()) {
    auto [a, b] = stack.back();
    stack.pop_back();
    auto it = ch_.unpack_.find(ContractionHierarchy::PackPair(a, b));
    std::uint32_t via =
        it == ch_.unpack_.end() ? ContractionHierarchy::kNoVia : it->second.via;
    if (via == ContractionHierarchy::kNoVia) {
      out->push_back(NodeId(static_cast<NodeId::underlying_type>(b)));
      continue;
    }
    stack.emplace_back(via, b);
    stack.emplace_back(a, via);
  }
}

std::vector<NodeId> ChQuery::RouteNodes(NodeId src, NodeId dst) {
  if (src == dst) return {src};
  std::uint32_t meet;
  double d = Run(src, dst, /*record_parents=*/true, &meet);
  if (d == kInf || meet == kNoNode) return {};

  // Forward half: src -> meet along fwd_parent_, each hop an up_ arc.
  std::vector<std::uint32_t> chain;
  for (std::uint32_t v = meet; v != kNoNode; v = fwd_parent_[v]) {
    chain.push_back(v);
    if (v == src.value()) break;
  }
  std::vector<NodeId> nodes;
  nodes.push_back(src);
  for (std::size_t i = chain.size(); i-- > 1;) {
    AppendUnpacked(chain[i], chain[i - 1], &nodes);
  }
  // Backward half: an arc {p, w} relaxed from u in down_[u] stands for the
  // real arc p -> u, so bwd_parent_[p] = u is p's real successor.
  for (std::uint32_t v = meet; v != dst.value();) {
    std::uint32_t next = bwd_parent_[v];
    AppendUnpacked(v, next, &nodes);
    v = next;
  }
  return nodes;
}

std::size_t ChQuery::MemoryFootprint() const {
  std::size_t bytes =
      sizeof(*this) +
      (fwd_dist_.capacity() + bwd_dist_.capacity()) * sizeof(double) +
      (fwd_mark_.capacity() + bwd_mark_.capacity() +
       fwd_parent_.capacity() + bwd_parent_.capacity()) *
          sizeof(std::uint32_t) +
      ch_.NumNodes() * 4 * sizeof(std::size_t);  // both heaps, approx
  bytes += buckets_.capacity() * sizeof(std::vector<BucketEntry>);
  for (const std::vector<BucketEntry>& b : buckets_) {
    bytes += b.capacity() * sizeof(BucketEntry);
  }
  bytes += bucket_nodes_.capacity() * sizeof(std::uint32_t);
  return bytes;
}

}  // namespace xar
