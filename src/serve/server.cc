#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <utility>

#include "common/clock.h"

namespace xar {
namespace serve {
namespace {

std::vector<std::uint8_t> TextPayload(const std::string& text) {
  return std::vector<std::uint8_t>(text.begin(), text.end());
}

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

/// A fuzzer (or hostile client) can deliver any IEEE-754 bit pattern in a
/// well-formed frame; NaN/inf coordinates must die at the protocol boundary,
/// not inside the spatial index.
bool AllFinite(const SearchPayload& p) {
  return std::isfinite(p.source_lat) && std::isfinite(p.source_lng) &&
         std::isfinite(p.dest_lat) && std::isfinite(p.dest_lng) &&
         std::isfinite(p.earliest_departure_s) &&
         std::isfinite(p.latest_departure_s) && std::isfinite(p.walk_limit_m);
}

/// Sends what the socket takes of `unsent` without blocking and drops it
/// from the front; the caller holds the connection's write mutex. True once
/// nothing is left; a hard socket error sets `closed`.
bool Flush(int fd, std::vector<std::uint8_t>* unsent,
           std::atomic<bool>* closed) {
  std::size_t sent = 0;
  while (sent < unsent->size()) {
    ssize_t n = ::send(fd, unsent->data() + sent, unsent->size() - sent,
                       MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    closed->store(true, std::memory_order_release);
    break;
  }
  unsent->erase(unsent->begin(),
                unsent->begin() + static_cast<std::ptrdiff_t>(sent));
  return unsent->empty();
}

}  // namespace

/// Per-connection state. The event-loop thread owns the read side (the
/// decoder); workers share the write side (write_mutex, held only across
/// non-blocking sends) and the client's look-then-book session. The fd is
/// closed by the destructor, which only runs once the event loop has
/// dropped its map entry AND every in-flight worker task has released its
/// shared_ptr — so no thread ever writes to a recycled fd.
struct XarServeServer::Connection {
  Connection(int fd_in, std::size_t max_frame_bytes, XarService& service)
      : fd(fd_in), decoder(max_frame_bytes), session(service) {}
  ~Connection() { ::close(fd); }

  const int fd;
  FrameDecoder decoder;  ///< event-loop thread only
  std::atomic<bool> closed{false};

  std::mutex write_mutex;
  /// Whole frames queued for the socket; a frame's tail stays here while
  /// its writer waits for the client. Guarded by write_mutex.
  std::vector<std::uint8_t> unsent;

  Session session;
};

struct XarServeServer::Task {
  std::shared_ptr<Connection> conn;
  Frame frame;
  std::chrono::steady_clock::time_point enqueued;
};

/// Mutex+condvar MPSC queue with a hard capacity: TryPush never blocks and
/// fails when full (the caller sheds); Pop blocks until a task arrives or
/// the queue stops. Stop drops queued-but-unstarted tasks — the in-flight
/// task a worker already popped always completes (the shutdown contract).
class XarServeServer::BoundedTaskQueue {
 public:
  BoundedTaskQueue(std::size_t capacity,
                   std::atomic<std::uint64_t>* accepted,
                   std::atomic<std::uint64_t>* highwater)
      : capacity_(capacity), accepted_(accepted), highwater_(highwater) {}

  bool TryPush(Task task) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopped_ || tasks_.size() >= capacity_) return false;
      tasks_.push_back(std::move(task));
      // The accepted counter bumps under the queue mutex so it is ordered
      // before the Pop that hands the task to a worker: anyone who
      // observed a task's response has also observed it counted (the
      // exact-counter contract serve_overload_test pins).
      accepted_->fetch_add(1, std::memory_order_relaxed);
      std::uint64_t depth = tasks_.size();
      std::uint64_t prev = highwater_->load(std::memory_order_relaxed);
      while (depth > prev && !highwater_->compare_exchange_weak(
                                 prev, depth, std::memory_order_relaxed)) {
      }
    }
    cv_.notify_one();
    return true;
  }

  bool Pop(Task* out) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return stopped_ || !tasks_.empty(); });
    if (stopped_) return false;
    *out = std::move(tasks_.front());
    tasks_.pop_front();
    return true;
  }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopped_ = true;
      tasks_.clear();
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Task> tasks_;
  std::size_t capacity_;
  std::atomic<std::uint64_t>* accepted_;
  std::atomic<std::uint64_t>* highwater_;
  bool stopped_ = false;
};

XarServeServer::XarServeServer(ConcurrentXarSystem& system,
                               ServeOptions options)
    : service_(system),
      options_(std::move(options)),
      num_workers_(options_.num_workers > 0 ? options_.num_workers
                                            : system.num_shards()) {
  service_.stats_registry().Register("serve",
                                     [this] { return ServeSection(); });
}

XarServeServer::~XarServeServer() { Stop(); }

Status XarServeServer::Start() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already running");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return Errno("socket");
  auto fail = [this](Status status) {
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    listen_fd_ = epoll_fd_ = wake_fd_ = -1;
    return status;
  };

  // SO_REUSEADDR: a previous instance's TIME_WAIT must not block a
  // back-to-back restart on the same port (the shutdown contract
  // command_server_test pins).
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return fail(Errno("bind"));
  }
  if (::listen(listen_fd_, 128) < 0) return fail(Errno("listen"));
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) < 0) {
    return fail(Errno("getsockname"));
  }
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return fail(Errno("epoll_create1"));
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) return fail(Errno("eventfd"));
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
    return fail(Errno("epoll_ctl(listen)"));
  }
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    return fail(Errno("epoll_ctl(wake)"));
  }

  stopping_.store(false, std::memory_order_release);
  queues_.clear();
  for (std::size_t i = 0; i < num_workers_; ++i) {
    queues_.push_back(std::make_unique<BoundedTaskQueue>(
        options_.queue_capacity, &accepted_, &queue_highwater_));
  }
  workers_.clear();
  for (std::size_t i = 0; i < num_workers_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  event_thread_ = std::thread([this] { EventLoop(); });
  running_.store(true, std::memory_order_release);
  return Status::OK();
}

void XarServeServer::Stop() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  if (!running_.load(std::memory_order_acquire)) return;  // idempotent

  stopping_.store(true, std::memory_order_release);
  std::uint64_t one = 1;
  // Failure only means the loop wakes at its next poll timeout instead.
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  if (event_thread_.joinable()) event_thread_.join();

  // Join in-flight handlers: each worker finishes the task it holds (its
  // response goes out if the client is still reading); tasks still queued
  // are dropped with the queue.
  for (std::unique_ptr<BoundedTaskQueue>& queue : queues_) queue->Stop();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();

  ::close(listen_fd_);
  ::close(epoll_fd_);
  ::close(wake_fd_);
  listen_fd_ = epoll_fd_ = wake_fd_ = -1;
  running_.store(false, std::memory_order_release);
}

void XarServeServer::EventLoop() {
  std::vector<epoll_event> events(64);
  while (!stopping_.load(std::memory_order_acquire)) {
    int n = ::epoll_wait(epoll_fd_, events.data(),
                         static_cast<int>(events.size()), 500);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        AcceptNewConnections();
        continue;
      }
      if (fd == wake_fd_) {
        std::uint64_t drain;
        while (::read(wake_fd_, &drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConnection(fd);
        continue;
      }
      HandleReadable(it->second);
    }
  }
  // Teardown: drop every connection from the map. Destructors (and fd
  // closes) run once in-flight worker tasks release their shared_ptrs.
  for (auto& [fd, conn] : connections_) {
    conn->closed.store(true, std::memory_order_release);
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  }
  connections_.clear();
}

void XarServeServer::AcceptNewConnections() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      return;  // transient accept errors: retry on the next epoll event
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn =
        std::make_shared<Connection>(fd, options_.max_frame_bytes, service_);
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) continue;
    connections_.emplace(fd, std::move(conn));
    connections_opened_.fetch_add(1, std::memory_order_relaxed);
  }
}

void XarServeServer::CloseConnection(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  it->second->closed.store(true, std::memory_order_release);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  connections_.erase(it);
  connections_closed_.fetch_add(1, std::memory_order_relaxed);
}

void XarServeServer::HandleReadable(const std::shared_ptr<Connection>& conn) {
  // Frames are popped and dispatched after every read, so the decoder holds
  // at most one partial frame plus one read.
  std::uint8_t buf[4096];
  Frame frame;
  for (;;) {
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n <= 0) {  // EOF (a truncated frame dies silently) or a hard error
      CloseConnection(conn->fd);
      return;
    }
    conn->decoder.Feed(buf, static_cast<std::size_t>(n));
    for (;;) {
      FrameDecoder::Next next = conn->decoder.Pop(&frame);
      if (next == FrameDecoder::Next::kNeedMore) break;
      if (next == FrameDecoder::Next::kError) {
        // Framing is unrecoverable: answer one typed error, then close.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        WriteNow(*conn, 0, RespStatus::kMalformed,
                 TextPayload(conn->decoder.error()));
        CloseConnection(conn->fd);
        return;
      }
      DispatchFrame(conn, std::move(frame));
      if (conn->closed.load(std::memory_order_acquire)) {
        CloseConnection(conn->fd);
        return;
      }
    }
  }
}

void XarServeServer::DispatchFrame(const std::shared_ptr<Connection>& conn,
                                   Frame frame) {
  // Worker-per-shard dispatch: BOOK writes go to the worker aligned with
  // the target ride's shard (ride % workers == shard when workers ==
  // shards), so one hot shard's exclusive-lock contention queues on one
  // worker. Reads and compound ops spread by request tag.
  std::size_t worker = static_cast<std::size_t>(frame.tag) % num_workers_;
  if (frame.code == static_cast<std::uint8_t>(Verb::kBook) &&
      frame.payload.size() >= 8) {
    ByteReader peek(frame.payload.data(), frame.payload.size());
    std::uint32_t rider_id, ride_id;
    peek.GetU32(&rider_id);
    peek.GetU32(&ride_id);
    worker = ride_id % num_workers_;
  }
  const std::uint64_t tag = frame.tag;
  Task task{conn, std::move(frame), std::chrono::steady_clock::now()};
  if (!queues_[worker]->TryPush(std::move(task))) {
    // Load shedding: typed BUSY now beats an unbounded queue later.
    shed_.fetch_add(1, std::memory_order_relaxed);
    WriteNow(*conn, tag, RespStatus::kBusy, {});
  }
}

void XarServeServer::WorkerLoop(std::size_t worker_index) {
  Task task;
  while (queues_[worker_index]->Pop(&task)) {
    HandleTask(task);
    task = Task{};  // release the connection shared_ptr between tasks
  }
}

void XarServeServer::HandleTask(Task& task) {
  const Verb verb = static_cast<Verb>(task.frame.code);
  if (options_.worker_hook_for_test) options_.worker_hook_for_test(verb);

  std::vector<std::uint8_t> payload;
  const RespStatus status = Handle(*task.conn, task.frame, &payload);
  if (status == RespStatus::kMalformed) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  // Counted before the response hits the socket so a client that has read
  // the reply always observes the task as completed (the exact-counter
  // contract serve_overload_test pins).
  completed_.fetch_add(1, std::memory_order_relaxed);
  WriteResponse(*task.conn, task.frame.tag, status, payload);
  if (status != RespStatus::kUnknownVerb) {
    const double micros =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - task.enqueued)
            .count();
    histograms_[VerbIndex(verb)].Record(micros);
  }
}

RespStatus XarServeServer::Handle(Connection& conn, const Frame& request,
                                  std::vector<std::uint8_t>* payload) {
  auto fail = [payload](RespStatus status, const std::string& text) {
    *payload = TextPayload(text);
    return status;
  };
  const std::uint8_t* data = request.payload.data();
  const std::size_t size = request.payload.size();
  SearchPayload search;
  BookPayload book;
  Result<BookingResult> booked;
  switch (static_cast<Verb>(request.code)) {
    case Verb::kSearch:
      if (!DecodeSearch(data, size, &search) || !AllFinite(search)) {
        return fail(RespStatus::kMalformed, "bad SEARCH payload");
      }
      EncodeSearchResult(service_.Search(conn.session, search), payload);
      return RespStatus::kOk;
    case Verb::kBook:
      if (!DecodeBook(data, size, &book)) {
        return fail(RespStatus::kMalformed, "bad BOOK payload");
      }
      booked = service_.Book(conn.session, book);
      break;
    case Verb::kSearchAndBook:
      if (!DecodeSearch(data, size, &search) || !AllFinite(search)) {
        return fail(RespStatus::kMalformed, "bad SEARCH_AND_BOOK payload");
      }
      booked = service_.SearchAndBook(search);
      break;
    case Verb::kStats: {
      Result<std::string> text = service_.Stats(
          std::string(request.payload.begin(), request.payload.end()));
      if (!text.ok()) return fail(RespStatus::kFailed, text.status().message());
      *payload = TextPayload(*text);
      return RespStatus::kOk;
    }
    case Verb::kRefresh: {
      const RefreshStats stats = service_.Refresh();
      EncodeRefreshResult({stats.epoch, stats.last_rebuild_ms}, payload);
      return RespStatus::kOk;
    }
    default:
      return RespStatus::kUnknownVerb;
  }
  if (!booked.ok()) return fail(RespStatus::kFailed, booked.status().message());
  EncodeBookingResult(*booked, payload);
  return RespStatus::kOk;
}

void XarServeServer::WriteResponse(Connection& conn, std::uint64_t tag,
                                   RespStatus status,
                                   const std::vector<std::uint8_t>& payload) {
  std::unique_lock<std::mutex> lock(conn.write_mutex);
  if (conn.closed.load(std::memory_order_acquire)) return;
  AppendFrame(tag, static_cast<std::uint8_t>(status), payload, &conn.unsent);
  Stopwatch waited;
  while (!Flush(conn.fd, &conn.unsent, &conn.closed) &&
         !conn.closed.load(std::memory_order_acquire)) {
    // Socket buffer full: a slow client throttles this worker, not the
    // server. Give up on shutdown or after 5 s of no progress.
    if (stopping_.load(std::memory_order_acquire) ||
        waited.ElapsedSeconds() > 5.0) {
      conn.closed.store(true, std::memory_order_release);
      return;
    }
    lock.unlock();
    pollfd pfd{conn.fd, POLLOUT, 0};
    ::poll(&pfd, 1, 100);
    lock.lock();
  }
}

void XarServeServer::WriteNow(Connection& conn, std::uint64_t tag,
                              RespStatus status,
                              const std::vector<std::uint8_t>& payload) {
  std::lock_guard<std::mutex> lock(conn.write_mutex);
  if (conn.closed.load(std::memory_order_acquire)) return;
  AppendFrame(tag, static_cast<std::uint8_t>(status), payload, &conn.unsent);
  if (!Flush(conn.fd, &conn.unsent, &conn.closed)) {
    conn.closed.store(true, std::memory_order_release);
  }
}

ServeCounters XarServeServer::counters() const {
  ServeCounters c;
  c.accepted = accepted_.load(std::memory_order_relaxed);
  c.shed = shed_.load(std::memory_order_relaxed);
  c.completed = completed_.load(std::memory_order_relaxed);
  c.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  c.connections_opened = connections_opened_.load(std::memory_order_relaxed);
  c.connections_closed = connections_closed_.load(std::memory_order_relaxed);
  c.queue_highwater = queue_highwater_.load(std::memory_order_relaxed);
  c.pending_evicted = service_.pending_evicted();
  return c;
}

StatsSection XarServeServer::ServeSection() const {
  ServeCounters c = counters();
  StatsSection section;
  section.name = "serve";
  section.AddRow(
      {StatsMetric::Counter("accepted", c.accepted),
       StatsMetric::Counter("shed", c.shed),
       StatsMetric::Counter("completed", c.completed),
       StatsMetric::Counter("protocol_errors", c.protocol_errors),
       StatsMetric::Counter("conns_opened", c.connections_opened),
       StatsMetric::Counter("conns_closed", c.connections_closed),
       StatsMetric::Counter("queue_highwater", c.queue_highwater),
       StatsMetric::Counter("pending_evicted", c.pending_evicted),
       StatsMetric::Counter("workers", num_workers_),
       StatsMetric::Counter("queue_capacity", options_.queue_capacity)});
  for (const VerbInfo& verb : kVerbTable) {
    LatencyHistogram::Snapshot snap = histograms_[VerbIndex(verb.verb)].Take();
    if (snap.count == 0) continue;
    section.AddRow({StatsMetric::Text("verb", verb.name),
                    StatsMetric::Counter("count", snap.count),
                    StatsMetric::Gauge("p50_us", snap.PercentileUs(0.50), 1),
                    StatsMetric::Gauge("p99_us", snap.PercentileUs(0.99), 1),
                    StatsMetric::Gauge("p999_us", snap.PercentileUs(0.999), 1),
                    StatsMetric::Gauge("max_us",
                                       static_cast<double>(snap.max_us), 1)});
  }
  return section;
}

}  // namespace serve
}  // namespace xar
