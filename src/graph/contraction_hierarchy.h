#ifndef XAR_GRAPH_CONTRACTION_HIERARCHY_H_
#define XAR_GRAPH_CONTRACTION_HIERARCHY_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/heap.h"
#include "graph/road_graph.h"

namespace xar {

class ChQuery;

/// Options for the contraction-hierarchy preprocessing.
struct ChOptions {
  /// Cap on nodes settled by each witness search; smaller builds faster but
  /// inserts more (harmless) shortcuts.
  std::size_t witness_search_limit = 60;

  /// Worker threads for the contraction loop (0 = hardware concurrency).
  /// The hierarchy produced is byte-identical for every thread count: batch
  /// membership, shortcut decisions and ranks depend only on the graph.
  std::size_t preprocess_threads = 0;
};

/// Contraction Hierarchies (Geisberger et al. 2008) over one metric of a
/// RoadGraph: nodes are contracted in importance order, shortcut arcs
/// preserve shortest distances among the remaining nodes, and queries run
/// a bidirectional Dijkstra that only ever moves *upward* in the hierarchy
/// — typically settling orders of magnitude fewer nodes than plain
/// Dijkstra on large networks.
///
/// Exactness does not depend on the node order or the witness-search limit;
/// both only affect preprocessing time and shortcut count.
///
/// Every shortcut remembers the node it bypassed, so queries can *unpack*
/// their search-graph arcs back into original-graph node chains
/// (RouteNodes). The hierarchy keeps no reference to the graph it was built
/// from: it holds node ids and weights only, so a routing backend may serve
/// it for any graph with the same arcs and weights under its metric, and
/// profiles unpacked chains against that graph itself (ProfileNodePath).
/// After construction the hierarchy is immutable; any number of ChQuery
/// workspaces may read it concurrently. The Distance/RouteNodes methods on
/// this class delegate to one lazily created internal ChQuery and are
/// therefore convenience API for single-threaded use only.
///
/// Preprocessing contracts *batches* of independent nodes (pairwise
/// non-adjacent local priority minima) in parallel across
/// ChOptions::preprocess_threads workers, each with its own witness-search
/// workspace. Ties break on node id and witness searches during a batch
/// avoid every batch member, so the resulting hierarchy — ranks, shortcuts,
/// unpack map, and therefore every query answer — is identical for any
/// thread count (see DESIGN.md "Parallel preprocessing").
class ContractionHierarchy {
 public:
  explicit ContractionHierarchy(const RoadGraph& graph,
                                Metric metric = Metric::kDriveDistance,
                                ChOptions options = {});

  /// Re-contracts `graph` in `previous`'s node order, where `previous` is
  /// a hierarchy over the same arcs with other weights (a refresh's
  /// outgoing one). Its levels — the independent-set batch each node was
  /// contracted in — are contracted lowest first, each in batches of
  /// pairwise non-adjacent nodes (ties by node id), so the build skips the
  /// priority simulations and only runs the witness searches that decide
  /// shortcuts; the result is still byte-identical for any thread count,
  /// and over unchanged weights it rebuilds `previous` exactly. Exact for
  /// any weights, but an order tuned for weights far from the new ones can
  /// make shortcuts snowball on large graphs (DESIGN.md §9, "Hierarchies
  /// across epochs").
  ContractionHierarchy(const RoadGraph& graph, Metric metric,
                       const ContractionHierarchy& previous,
                       ChOptions options);
  ~ContractionHierarchy();

  // ChQuery instances keep a reference to this hierarchy.
  ContractionHierarchy(const ContractionHierarchy&) = delete;
  ContractionHierarchy& operator=(const ContractionHierarchy&) = delete;

  /// One-to-one distance under the construction metric; +inf if
  /// unreachable. Not thread-safe (see class comment).
  double Distance(NodeId src, NodeId dst);

  /// One-to-one shortest path as an original-graph node chain (shortcuts
  /// unpacked), `src` and `dst` included; empty if unreachable. Not
  /// thread-safe (see class comment).
  std::vector<NodeId> RouteNodes(NodeId src, NodeId dst);

  /// Shortcut arcs added during preprocessing.
  std::size_t NumShortcuts() const { return num_shortcuts_; }

  /// Nodes settled by the most recent convenience query (both directions).
  std::size_t last_settled_count() const;

  /// Contraction rank of a node (0 = contracted first / least important).
  std::size_t RankOf(NodeId n) const { return rank_[n.value()]; }


  Metric metric() const { return metric_; }
  std::size_t NumNodes() const { return n_; }

  /// Wall time the contraction loop took, and the worker-thread count it
  /// ran with (after resolving preprocess_threads == 0). For the stats
  /// surface and the preprocessing bench.
  double build_millis() const { return build_millis_; }
  std::size_t threads_used() const { return threads_used_; }
  /// Independent-set batches the contraction ran in (parallelism rounds).
  std::size_t num_batches() const { return num_batches_; }

  std::size_t MemoryFootprint() const;

 private:
  friend class ChQuery;

  static constexpr double kInf = std::numeric_limits<double>::infinity();
  /// `via` value marking an original (non-shortcut) arc.
  static constexpr std::uint32_t kNoVia = 0xFFFFFFFFu;

  struct Arc {
    std::uint32_t to;
    double weight;
    std::uint32_t via;  ///< contracted middle node, or kNoVia if original
  };

  static std::uint64_t PackPair(std::uint32_t from, std::uint32_t to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  /// Per-thread witness-search scratch: distance labels, generation marks
  /// and the search heap. One per preprocessing worker; reads the shared
  /// remaining graph, writes only itself.
  struct WitnessSpace {
    explicit WitnessSpace(std::size_t n)
        : dist(n, kInf), mark(n, 0), heap(n) {}
    std::vector<double> dist;
    std::vector<std::uint32_t> mark;
    std::uint32_t generation = 0;
    IndexedMinHeap heap;
  };

  /// One witness search in `space`: bounded Dijkstra from `from` through
  /// the remaining graph avoiding `excluded` and every current batch
  /// member, capped at the witness settle limit and `cutoff` distance.
  /// Labels stay in `space` afterwards (read with WitnessLabel) so a single
  /// search serves every outgoing target of the node being simulated.
  void WitnessSearch(WitnessSpace& space, std::uint32_t from,
                     std::uint32_t excluded, double cutoff) const;

  /// Distance label of `v` from the most recent WitnessSearch (kInf if
  /// unreached).
  static double WitnessLabel(const WitnessSpace& space, std::uint32_t v) {
    return space.mark[v] == space.generation ? space.dist[v] : kInf;
  }

  /// Shortcuts needed if `v` were contracted now (returned, not applied).
  /// Read-only on the shared graph state; safe to run concurrently for
  /// distinct batch members with distinct spaces.
  std::vector<std::pair<Arc, std::uint32_t>> SimulateContract(
      WitnessSpace& space, std::uint32_t v) const;

  /// Priority term: edge difference + contracted-neighbor count.
  double ContractPriority(WitnessSpace& space, std::uint32_t v) const;

  ContractionHierarchy(const RoadGraph& graph, Metric metric,
                       const ContractionHierarchy* previous,
                       ChOptions options);

  /// Runs the batched independent-set contraction loop (constructor body).
  /// With `previous`, priorities are its levels and stay fixed, and each
  /// batch is drawn from the lowest level left; otherwise priorities are
  /// simulated up front and refreshed around each batch.
  void Contract(const ContractionHierarchy* previous);

  ChQuery& DefaultQuery();

  Metric metric_;
  std::size_t n_;
  ChOptions options_;

  // Remaining-graph adjacency during construction (forward and backward).
  // Freed once the final search graphs are assembled.
  std::vector<std::vector<Arc>> fwd_;
  std::vector<std::vector<Arc>> bwd_;
  // uint8 rather than vector<bool> so parallel witness searches read plain
  // bytes (no proxy objects); both are written only between batches.
  std::vector<std::uint8_t> contracted_;
  std::vector<std::uint8_t> in_batch_;
  std::vector<std::uint32_t> contracted_neighbors_;
  std::vector<double> priority_;
  std::vector<std::size_t> rank_;
  /// Independent-set batch each node was contracted in (0 = first); ranks
  /// follow (level, node id). The node order a re-contraction reuses.
  std::vector<std::uint32_t> level_;

  // Final search graphs: upward arcs for the forward search, and upward
  // arcs of the reverse graph for the backward search (an arc {p, w} in
  // down_[u] stands for the real arc p -> u).
  std::vector<std::vector<Arc>> up_;
  std::vector<std::vector<Arc>> down_;

  // (from, to) -> lightest final arc between them, for shortcut unpacking.
  // Covers every arc ever added, including those below query rank cuts, so
  // recursive expansion always terminates at original edges.
  std::unordered_map<std::uint64_t, Arc> unpack_;

  std::size_t num_shortcuts_ = 0;
  double build_millis_ = 0.0;
  std::size_t threads_used_ = 1;
  std::size_t num_batches_ = 0;
  std::unique_ptr<ChQuery> default_query_;
};

/// Per-thread query workspace over an immutable ContractionHierarchy.
/// Holds the bidirectional heaps, distance labels, and parent arrays; the
/// hierarchy itself is only read, so one hierarchy can serve many ChQuery
/// instances concurrently (one per thread — a single ChQuery is not
/// thread-safe).
class ChQuery {
 public:
  explicit ChQuery(const ContractionHierarchy& ch);

  /// One-to-one distance under the hierarchy's metric; +inf if unreachable.
  double Distance(NodeId src, NodeId dst);

  /// One-to-one shortest path as an original-graph node chain (shortcuts
  /// unpacked), `src` and `dst` included; empty if unreachable.
  std::vector<NodeId> RouteNodes(NodeId src, NodeId dst);

  /// One-to-many distances via target buckets (Knopp et al.): one backward
  /// upward search per target deposits (target, dist) entries in per-node
  /// buckets, then one forward upward search from `src` scans the buckets
  /// of every node it settles. Answers match Distance() exactly — stalling
  /// a node only suppresses bucket entries that a cheaper up-down path
  /// already covers. Returns one distance per target (+inf if unreachable).
  std::vector<double> DistancesToMany(NodeId src,
                                      const std::vector<NodeId>& targets);

  /// Many-to-many distances, row-major |sources| x |targets|. The target
  /// buckets are built once and scanned by one forward search per source,
  /// so the per-source cost is independent of the target count.
  std::vector<double> ManyToMany(const std::vector<NodeId>& sources,
                                 const std::vector<NodeId>& targets);

  /// Nodes settled by the most recent query (both directions; for the batch
  /// queries, summed over every backward and forward search).
  std::size_t last_settled_count() const { return last_settled_count_; }

  std::size_t MemoryFootprint() const;

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();
  static constexpr std::uint32_t kNoNode = 0xFFFFFFFFu;

  /// Bidirectional upward search; returns the distance and, when finite,
  /// sets `*meet` to the node where the best forward/backward labels join.
  double Run(NodeId src, NodeId dst, bool record_parents,
             std::uint32_t* meet);

  /// Appends the original-graph expansion of search arc (from, to) to
  /// `out`, excluding `from` itself (assumed already present).
  void AppendUnpacked(std::uint32_t from, std::uint32_t to,
                      std::vector<NodeId>* out) const;

  /// One bucket entry: a target (by index into the batch's target list)
  /// reachable from the bucket's node by a downward path of length `dist`.
  struct BucketEntry {
    std::uint32_t target;
    double dist;
  };

  /// Clears the previous batch's buckets (O(touched)) and repopulates them
  /// with one backward upward search per target. Adds to
  /// last_settled_count_.
  void BuildBuckets(const std::vector<NodeId>& targets);

  /// Forward upward search from `src` scanning the current buckets; writes
  /// one distance per target of the batch into `row` (sized and pre-filled
  /// with kInf by the caller). Adds to last_settled_count_.
  void ScanBuckets(NodeId src, double* row);

  const ContractionHierarchy& ch_;

  IndexedMinHeap fwd_heap_;
  IndexedMinHeap bwd_heap_;
  std::vector<double> fwd_dist_;
  std::vector<double> bwd_dist_;
  std::vector<std::uint32_t> fwd_mark_;
  std::vector<std::uint32_t> bwd_mark_;
  std::vector<std::uint32_t> fwd_parent_;
  std::vector<std::uint32_t> bwd_parent_;
  std::uint32_t generation_ = 0;
  std::size_t last_settled_count_ = 0;

  // Bucket workspace for the batch queries, allocated on first use.
  // buckets_ is indexed by node; bucket_nodes_ lists the nodes with
  // non-empty buckets so the next batch clears in O(touched).
  std::vector<std::vector<BucketEntry>> buckets_;
  std::vector<std::uint32_t> bucket_nodes_;
};

}  // namespace xar

#endif  // XAR_GRAPH_CONTRACTION_HIERARCHY_H_
