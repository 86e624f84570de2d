#ifndef XAR_SERVE_SERVER_H_
#define XAR_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/stats_registry.h"
#include "common/status.h"
#include "serve/frame.h"
#include "serve/latency_histogram.h"
#include "serve/service.h"
#include "xar/concurrent_xar.h"

namespace xar {
namespace serve {

/// Knobs of the async serving layer.
struct ServeOptions {
  /// TCP port to bind on 127.0.0.1; 0 = ephemeral (read back via port()).
  std::uint16_t port = 0;
  /// Worker threads; 0 = one per shard of the served system, so write
  /// traffic to one shard serializes on one worker's queue.
  std::size_t num_workers = 0;
  /// Bounded per-worker queue depth. When a worker's queue is full, further
  /// requests routed to it are shed with a typed BUSY response instead of
  /// queueing unboundedly (explicit backpressure).
  std::size_t queue_capacity = 256;
  /// Largest accepted frame body; oversized length prefixes are answered
  /// with MALFORMED and the connection is closed (the stream has desynced).
  std::size_t max_frame_bytes = kDefaultMaxBodyBytes;
  /// Test seam: invoked by the worker at the start of every task, before
  /// the verb handler runs. Lets tests stall a worker deterministically
  /// (overload/shutdown suites). Set before Start() only.
  std::function<void(Verb)> worker_hook_for_test;
};

/// Point-in-time serving counters (all cumulative since Start).
struct ServeCounters {
  std::uint64_t accepted = 0;   ///< requests enqueued to a worker
  std::uint64_t shed = 0;       ///< requests answered BUSY (queue full)
  std::uint64_t completed = 0;  ///< responses written by workers
  std::uint64_t protocol_errors = 0;  ///< malformed frames or payloads
  std::uint64_t connections_opened = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t queue_highwater = 0;  ///< max depth any worker queue reached
  std::uint64_t pending_evicted = 0;  ///< searches evicted unbooked
};

/// The served verbs in wire-code order (codes 1..N) with their stats names:
/// the one table the per-verb histograms and the "serve" section read.
struct VerbInfo {
  Verb verb;
  const char* name;
};
inline constexpr VerbInfo kVerbTable[] = {
    {Verb::kSearch, "search"},
    {Verb::kBook, "book"},
    {Verb::kSearchAndBook, "search_and_book"},
    {Verb::kStats, "stats"},
    {Verb::kRefresh, "refresh"},
};

/// Long-lived async network front end over a ConcurrentXarSystem
/// (DESIGN.md "Serving layer"): the binary codec over an XarService, one
/// Session per connection.
///
///   - One epoll event-loop thread owns the listen socket and every
///     connection's read side: it accepts, reassembles length-prefixed
///     frames across partial reads, and dispatches complete requests.
///   - N worker threads (default: one per shard) each drain a bounded
///     queue. BOOK requests route by the target ride's shard
///     (ride_id % workers), so exclusive-lock contention on one shard
///     queues on one worker instead of head-of-line-blocking the rest;
///     everything else routes by request tag.
///   - Admission control: a full worker queue sheds the request with a
///     typed BUSY response written immediately from the event loop — the
///     server never queues unboundedly and stays responsive under
///     overload.
///   - The event loop never waits on one client: a BUSY or framing-error
///     response that the socket does not take whole at once closes that
///     connection. Workers write responses directly to the socket and wait
///     (up to 5 s) for a slow reader without holding its write mutex, so a
///     slow client throttles only the workers serving it.
///
/// All counters and per-verb latency histograms flow into the service's
/// StatsRegistry ("serve" section, next to the served system's) that the
/// STATS verb renders over the wire.
///
/// Shutdown contract (pinned by ServerLifecycleTest in command_server_test):
/// Stop() is idempotent and joins in-flight handlers — workers finish the
/// task they hold, queued but unstarted tasks are dropped — and the listen
/// socket binds with SO_REUSEADDR so back-to-back server instances can
/// reuse a port immediately.
class XarServeServer {
 public:
  explicit XarServeServer(ConcurrentXarSystem& system,
                          ServeOptions options = {});
  ~XarServeServer();

  XarServeServer(const XarServeServer&) = delete;
  XarServeServer& operator=(const XarServeServer&) = delete;

  /// Binds, listens and spawns the event loop + workers. Fails if already
  /// running or the port is unavailable. A stopped server can be started
  /// again (fresh counters are NOT zeroed; they are cumulative per object).
  Status Start();

  /// Stops accepting, wakes the event loop, joins the in-flight worker
  /// handlers and closes every connection. Idempotent: safe to call twice,
  /// before Start, or concurrently from several threads (one caller does
  /// the teardown, the rest return once it is underway).
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (after Start; with options.port == 0 this is the
  /// ephemeral port the kernel picked).
  std::uint16_t port() const { return port_; }

  std::size_t num_workers() const { return num_workers_; }

  ServeCounters counters() const;

  /// Latency histogram of one verb (enqueue -> response written).
  const LatencyHistogram& verb_histogram(Verb verb) const {
    return histograms_[VerbIndex(verb)];
  }

  /// The "serve" stats section (counters + one histogram row per verb).
  StatsSection ServeSection() const;

 private:
  struct Connection;
  struct Task;
  class BoundedTaskQueue;

  void EventLoop();
  void WorkerLoop(std::size_t worker_index);
  void HandleReadable(const std::shared_ptr<Connection>& conn);
  void DispatchFrame(const std::shared_ptr<Connection>& conn, Frame frame);
  void HandleTask(Task& task);
  /// Decodes one request, calls the service and encodes its answer (or a
  /// failure's text) into `payload`.
  RespStatus Handle(Connection& conn, const Frame& request,
                    std::vector<std::uint8_t>* payload);
  void AcceptNewConnections();
  void CloseConnection(int fd);

  /// A worker's complete write of one response frame: waits for a slow
  /// reader (without holding the write mutex) until 5 s pass or the server
  /// stops. Failures mark the connection closed; the event loop reaps it.
  void WriteResponse(Connection& conn, std::uint64_t tag, RespStatus status,
                     const std::vector<std::uint8_t>& payload);
  /// The event loop's write: the frame goes out whole now or the connection
  /// is marked closed. Never waits on the client.
  void WriteNow(Connection& conn, std::uint64_t tag, RespStatus status,
                const std::vector<std::uint8_t>& payload);

  static std::size_t VerbIndex(Verb verb) {
    std::size_t i = static_cast<std::size_t>(verb);
    return i >= 1 && i <= std::size(kVerbTable) ? i - 1 : 0;
  }

  XarService service_;
  ServeOptions options_;
  std::size_t num_workers_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::mutex lifecycle_mutex_;  ///< serializes Start/Stop transitions

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: Stop() wakes the event loop
  std::uint16_t port_ = 0;

  std::thread event_thread_;
  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<BoundedTaskQueue>> queues_;

  /// Connections, keyed by fd. Owned (inserted/erased) by the event-loop
  /// thread only; workers hold shared_ptrs to the connections of their
  /// in-flight tasks, so a Connection outlives its map entry until the last
  /// response write finishes.
  std::unordered_map<int, std::shared_ptr<Connection>> connections_;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> connections_opened_{0};
  std::atomic<std::uint64_t> connections_closed_{0};
  std::atomic<std::uint64_t> queue_highwater_{0};

  /// Per verb, indexed by VerbIndex.
  LatencyHistogram histograms_[std::size(kVerbTable)];
};

}  // namespace serve
}  // namespace xar

#endif  // XAR_SERVE_SERVER_H_
