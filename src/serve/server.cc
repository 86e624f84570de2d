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
#include <cstring>
#include <utility>

#include "common/clock.h"
#include "discretize/region_snapshot.h"

namespace xar {
namespace serve {
namespace {

std::vector<std::uint8_t> TextPayload(const std::string& text) {
  return std::vector<std::uint8_t>(text.begin(), text.end());
}

const char* VerbName(Verb verb) {
  switch (verb) {
    case Verb::kSearch: return "search";
    case Verb::kBook: return "book";
    case Verb::kSearchAndBook: return "search_and_book";
    case Verb::kStats: return "stats";
    case Verb::kRefresh: return "refresh";
  }
  return "unknown";
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

}  // namespace

/// Per-connection state. The event-loop thread owns the read side (the
/// decoder); workers share the write side (write_mutex) and the
/// look-then-book pending map (pending_mutex). The fd is closed by the
/// destructor, which only runs once the event loop has dropped its map
/// entry AND every in-flight worker task has released its shared_ptr — so
/// no thread ever writes to a recycled fd.
struct XarServeServer::Connection {
  Connection(int fd_in, std::size_t max_frame_bytes)
      : fd(fd_in), decoder(max_frame_bytes) {}
  ~Connection() { ::close(fd); }

  const int fd;
  FrameDecoder decoder;  ///< event-loop thread only
  std::atomic<bool> closed{false};

  std::mutex write_mutex;

  std::mutex pending_mutex;
  PendingSearches pending;  ///< guarded by pending_mutex
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
    : system_(system),
      options_(std::move(options)),
      num_workers_(options_.num_workers > 0 ? options_.num_workers
                                            : system.num_shards()) {
  stats_registry_.Register("serve", [this] { return ServeSection(); });
  stats_registry_.Register("system", [this] {
    StatsSection section;
    section.name = "system";
    section.AddRow({StatsMetric::Counter("rides", system_.NumRides()),
                    StatsMetric::Counter("active", system_.NumActiveRides()),
                    StatsMetric::Gauge("now", system_.Now(), 0),
                    StatsMetric::Counter("epoch", system_.epoch())});
    return section;
  });
  stats_registry_.Register(
      "match", [this] { return MatchStatsSection(system_.match_stats()); });
  stats_registry_.Register(
      "retry", [this] { return RetryStatsSection(system_.retry_stats()); });
  stats_registry_.Register("refresh", [this] {
    return RefreshStatsSection(system_.refresh_stats());
  });
  stats_registry_.Register("pooling", [this] {
    return PoolingStatsSection(system_.pooling_stats());
  });
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
    auto conn = std::make_shared<Connection>(fd, options_.max_frame_bytes);
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
  std::uint8_t buf[4096];
  for (;;) {
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->decoder.Feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {  // peer closed: a truncated in-flight frame dies silently
      CloseConnection(conn->fd);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(conn->fd);
    return;
  }
  Frame frame;
  for (;;) {
    FrameDecoder::Next next = conn->decoder.Pop(&frame);
    if (next == FrameDecoder::Next::kNeedMore) break;
    if (next == FrameDecoder::Next::kError) {
      // Framing is unrecoverable: answer one typed error, then close.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      WriteResponse(*conn, 0, RespStatus::kMalformed,
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
    WriteResponse(*conn, tag, RespStatus::kBusy, {});
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
  std::string message;
  RespStatus status;
  bool known_verb = true;
  switch (verb) {
    case Verb::kSearch:
      status = HandleSearch(*task.conn, task.frame, &payload, &message);
      break;
    case Verb::kBook:
      status = HandleBook(*task.conn, task.frame, &payload, &message);
      break;
    case Verb::kSearchAndBook:
      status = HandleSearchAndBook(task.frame, &payload, &message);
      break;
    case Verb::kStats:
      status = HandleStats(task.frame, &payload, &message);
      break;
    case Verb::kRefresh:
      status = HandleRefresh(&payload);
      break;
    default:
      status = RespStatus::kUnknownVerb;
      known_verb = false;
      break;
  }
  if (status == RespStatus::kFailed || status == RespStatus::kMalformed) {
    payload = TextPayload(message);
  }
  if (status == RespStatus::kMalformed) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  // Counted before the response hits the socket so a client that has read
  // the reply always observes the task as completed (the exact-counter
  // contract serve_overload_test pins).
  completed_.fetch_add(1, std::memory_order_relaxed);
  WriteResponse(*task.conn, task.frame.tag, status, payload);
  if (known_verb) {
    const double micros =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - task.enqueued)
            .count();
    histograms_[VerbIndex(verb)].Record(micros);
  }
}

RespStatus XarServeServer::HandleSearch(Connection& conn,
                                        const Frame& request,
                                        std::vector<std::uint8_t>* payload,
                                        std::string* message) {
  SearchPayload p;
  if (!DecodeSearch(request.payload.data(), request.payload.size(), &p) ||
      !AllFinite(p)) {
    *message = "bad SEARCH payload";
    return RespStatus::kMalformed;
  }
  RideRequest ride_request;
  ride_request.id = RequestId(p.rider_id);
  ride_request.source = {p.source_lat, p.source_lng};
  ride_request.destination = {p.dest_lat, p.dest_lng};
  ride_request.earliest_departure_s = p.earliest_departure_s;
  ride_request.latest_departure_s = p.latest_departure_s;
  ride_request.walk_limit_m = p.walk_limit_m;

  std::vector<RideMatch> matches = system_.SearchTopK(ride_request, p.top_k);
  SearchResult result;
  result.matches.reserve(matches.size());
  for (const RideMatch& m : matches) {
    result.matches.push_back(
        {m.ride.value(), m.TotalWalkM(), m.eta_source_s, m.detour_estimate_m});
  }
  {
    std::lock_guard<std::mutex> lock(conn.pending_mutex);
    if (conn.pending.Put(ride_request, std::move(matches))) {
      pending_evicted_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  EncodeSearchResult(result, payload);
  return RespStatus::kOk;
}

RespStatus XarServeServer::HandleBook(Connection& conn, const Frame& request,
                                      std::vector<std::uint8_t>* payload,
                                      std::string* message) {
  BookPayload p;
  if (!DecodeBook(request.payload.data(), request.payload.size(), &p)) {
    *message = "bad BOOK payload";
    return RespStatus::kMalformed;
  }
  PendingSearches::Entry pending;
  {
    std::lock_guard<std::mutex> lock(conn.pending_mutex);
    const PendingSearches::Entry* found =
        conn.pending.Find(RequestId(p.rider_id));
    if (found == nullptr) {
      *message =
          "no prior SEARCH for request " + std::to_string(p.rider_id);
      return RespStatus::kFailed;
    }
    pending = *found;
  }
  const RideMatch* match = nullptr;
  for (const RideMatch& m : pending.matches) {
    if (m.ride == RideId(p.ride_id)) {
      match = &m;
      break;
    }
  }
  if (match == nullptr) {
    *message = "ride " + std::to_string(p.ride_id) +
               " was not in the search results";
    return RespStatus::kFailed;
  }
  Result<BookingRecord> booked =
      system_.Book(RideId(p.ride_id), pending.request, *match);
  if (!booked.ok()) {
    *message = booked.status().ToString();
    return RespStatus::kFailed;
  }
  {
    // The booking consumed the pending search (same contract as the
    // line-oriented command server).
    std::lock_guard<std::mutex> lock(conn.pending_mutex);
    conn.pending.Erase(RequestId(p.rider_id));
  }
  EncodeBookingResult({p.ride_id, booked->pickup_eta_s, booked->dropoff_eta_s,
                       booked->actual_detour_m, booked->walk_m},
                      payload);
  return RespStatus::kOk;
}

RespStatus XarServeServer::HandleSearchAndBook(
    const Frame& request, std::vector<std::uint8_t>* payload,
    std::string* message) {
  SearchPayload p;
  if (!DecodeSearch(request.payload.data(), request.payload.size(), &p) ||
      !AllFinite(p)) {
    *message = "bad SEARCH_AND_BOOK payload";
    return RespStatus::kMalformed;
  }
  RideRequest ride_request;
  ride_request.id = RequestId(p.rider_id);
  ride_request.source = {p.source_lat, p.source_lng};
  ride_request.destination = {p.dest_lat, p.dest_lng};
  ride_request.earliest_departure_s = p.earliest_departure_s;
  ride_request.latest_departure_s = p.latest_departure_s;
  ride_request.walk_limit_m = p.walk_limit_m;

  Result<BookingRecord> booked = system_.SearchAndBook(ride_request);
  if (!booked.ok()) {
    *message = booked.status().ToString();
    return RespStatus::kFailed;
  }
  EncodeBookingResult({booked->ride.value(), booked->pickup_eta_s,
                       booked->dropoff_eta_s, booked->actual_detour_m,
                       booked->walk_m},
                      payload);
  return RespStatus::kOk;
}

RespStatus XarServeServer::HandleStats(const Frame& request,
                                       std::vector<std::uint8_t>* payload,
                                       std::string* message) {
  const std::string section_name(request.payload.begin(),
                                 request.payload.end());
  std::string out;
  auto render = [&out](const StatsSection& section) {
    for (const std::vector<StatsMetric>& row : section.rows) {
      out += section.name;
      for (const StatsMetric& m : row) out += " " + m.name + "=" + m.value;
      out += "\n";
    }
  };
  if (!section_name.empty()) {
    std::optional<StatsSection> section =
        stats_registry_.Snapshot(section_name);
    if (!section) {
      std::string names;
      for (const std::string& name : stats_registry_.SectionNames()) {
        names += (names.empty() ? "" : ", ") + name;
      }
      *message = "unknown stats section \"" + section_name +
                 "\" (sections: " + names + ")";
      return RespStatus::kFailed;
    }
    render(*section);
  } else {
    for (const StatsSection& section : stats_registry_.SnapshotAll()) {
      render(section);
    }
  }
  *payload = TextPayload(out);
  return RespStatus::kOk;
}

RespStatus XarServeServer::HandleRefresh(std::vector<std::uint8_t>* payload) {
  RefreshStats stats = system_.RefreshDiscretization();
  EncodeRefreshResult({stats.epoch, stats.last_rebuild_ms}, payload);
  return RespStatus::kOk;
}

void XarServeServer::WriteResponse(Connection& conn, std::uint64_t tag,
                                   RespStatus status,
                                   const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(kFrameHeaderBytes + kMinBodyBytes + payload.size());
  AppendFrame(tag, static_cast<std::uint8_t>(status), payload, &bytes);

  std::lock_guard<std::mutex> lock(conn.write_mutex);
  if (conn.closed.load(std::memory_order_acquire)) return;
  std::size_t sent = 0;
  Stopwatch waited;
  while (sent < bytes.size()) {
    ssize_t n = ::send(conn.fd, bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Socket buffer full: a slow client throttles this worker, not the
      // server. Give up on shutdown or after 5 s of no progress.
      if (stopping_.load(std::memory_order_acquire) ||
          waited.ElapsedSeconds() > 5.0) {
        conn.closed.store(true, std::memory_order_release);
        return;
      }
      pollfd pfd{conn.fd, POLLOUT, 0};
      ::poll(&pfd, 1, 100);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    conn.closed.store(true, std::memory_order_release);
    return;
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
  c.pending_evicted = pending_evicted_.load(std::memory_order_relaxed);
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
  for (Verb verb : {Verb::kSearch, Verb::kBook, Verb::kSearchAndBook,
                    Verb::kStats, Verb::kRefresh}) {
    LatencyHistogram::Snapshot snap = histograms_[VerbIndex(verb)].Take();
    if (snap.count == 0) continue;
    section.AddRow({StatsMetric::Text("verb", VerbName(verb)),
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
