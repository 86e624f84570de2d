// Overload / backpressure suite for the serving layer (ISSUE 7 satellite
// 2): with a queue capacity of 1 and a deliberately stalled worker, further
// requests must be shed with a typed BUSY response, the shed/accepted
// counters must match the offered load exactly, and the system must drain
// back to healthy once the stall clears. Also pins the shutdown half of the
// contract: Stop() joins the in-flight handler instead of abandoning it.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "serve/client.h"
#include "serve/frame.h"
#include "serve/server.h"
#include "tests/test_helpers.h"
#include "xar/concurrent_xar.h"

namespace xar {
namespace serve {
namespace {

/// A latch the worker hook parks on: the test knows exactly when the worker
/// entered a handler and controls exactly when it may leave.
class WorkerGate {
 public:
  /// Called from the worker hook. The first `stall_count` tasks block until
  /// Release(); later tasks pass through.
  void Enter() {
    std::unique_lock<std::mutex> lock(mutex_);
    ++entered_;
    entered_cv_.notify_all();
    release_cv_.wait(lock, [&] { return released_; });
  }

  void AwaitEntered(std::size_t n) {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_cv_.wait(lock, [&] { return entered_ >= n; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    release_cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable entered_cv_;
  std::condition_variable release_cv_;
  std::size_t entered_ = 0;
  bool released_ = false;
};

struct OverloadWorld {
  std::unique_ptr<ConcurrentXarSystem> system;
  std::unique_ptr<XarServeServer> server;
  WorkerGate gate;
  std::atomic<bool> stall{true};

  OverloadWorld() {
    testing::TestCity& city = testing::SharedCity();
    system = std::make_unique<ConcurrentXarSystem>(
        city.graph, *city.spatial, *city.region, *city.oracle, XarOptions{},
        /*num_shards=*/1);
    ServeOptions options;
    options.num_workers = 1;       // one queue: deterministic admission
    options.queue_capacity = 1;    // one slot behind the in-flight task
    options.worker_hook_for_test = [this](Verb) {
      if (stall.load(std::memory_order_acquire)) gate.Enter();
    };
    server = std::make_unique<XarServeServer>(*system, options);
  }
  ~OverloadWorld() {
    gate.Release();  // never leave the worker parked
    if (server) server->Stop();
  }
};

TEST(ServeOverload, ShedsWithBusyAndExactCounters) {
  OverloadWorld world;
  ASSERT_TRUE(world.server->Start().ok());

  ServeClient client;
  ASSERT_TRUE(client.Connect(world.server->port()).ok());

  // Tag 1 is popped by the worker immediately and parks in the hook.
  ASSERT_TRUE(client.SendFrame(1, Verb::kStats, {}).ok());
  world.gate.AwaitEntered(1);

  // With the worker parked, the queue holds 0 of 1. The event loop handles
  // all frames of one connection in arrival order, so: tag 2 occupies the
  // single slot, tags 3..5 find the queue full and are shed.
  for (std::uint64_t tag = 2; tag <= 5; ++tag) {
    ASSERT_TRUE(client.SendFrame(tag, Verb::kStats, {}).ok());
  }

  // The BUSY sheds are written from the event loop while the worker is
  // still parked — backpressure must not depend on workers making progress.
  for (std::uint64_t tag = 3; tag <= 5; ++tag) {
    Result<Frame> frame = client.ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->tag, tag);
    EXPECT_EQ(frame->code, static_cast<std::uint8_t>(RespStatus::kBusy));
  }
  ServeCounters during = world.server->counters();
  EXPECT_EQ(during.accepted, 2u);
  EXPECT_EQ(during.shed, 3u);
  EXPECT_EQ(during.completed, 0u);
  EXPECT_EQ(during.queue_highwater, 1u);

  // Drain: release the stall; both accepted requests complete.
  world.stall.store(false, std::memory_order_release);
  world.gate.Release();
  for (std::uint64_t tag = 1; tag <= 2; ++tag) {
    Result<Frame> frame = client.ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->tag, tag);
    EXPECT_EQ(frame->code, static_cast<std::uint8_t>(RespStatus::kOk));
  }

  // Healthy again: a fresh request is admitted and served.
  ASSERT_TRUE(
      client.SendFrame(6, Verb::kStats, {'s', 'e', 'r', 'v', 'e'}).ok());
  Result<Frame> frame = client.ReadFrame();
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->code, static_cast<std::uint8_t>(RespStatus::kOk));
  ServeCounters after = world.server->counters();
  EXPECT_EQ(after.accepted, 3u);
  EXPECT_EQ(after.shed, 3u);
  EXPECT_EQ(after.completed, 3u);
}

TEST(ServeOverload, ShedCountFlowsIntoStatsRegistry) {
  OverloadWorld world;
  world.stall.store(false);  // no stalling in this test
  ASSERT_TRUE(world.server->Start().ok());

  ServeClient client;
  ASSERT_TRUE(client.Connect(world.server->port()).ok());
  // First round trip completes a stats task, so the second snapshot has a
  // latency row for the verb.
  ASSERT_TRUE(client.Stats("serve").ok());
  Result<std::string> stats = client.Stats("serve");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("accepted=2"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("shed=0"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("queue_highwater="), std::string::npos) << *stats;
  // Per-verb latency histograms are registered alongside the counters.
  EXPECT_NE(stats->find("verb=stats"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("p99_us="), std::string::npos) << *stats;
}

TEST(ServeOverload, StopJoinsInFlightHandler) {
  OverloadWorld world;
  ASSERT_TRUE(world.server->Start().ok());

  ServeClient client;
  ASSERT_TRUE(client.Connect(world.server->port()).ok());
  ASSERT_TRUE(client.SendFrame(1, Verb::kStats, {}).ok());
  world.gate.AwaitEntered(1);

  // Stop from another thread: it must wait for the parked handler.
  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    world.server->Stop();
    stopped.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(stopped.load(std::memory_order_acquire))
      << "Stop() returned while a handler was still in flight";

  world.stall.store(false, std::memory_order_release);
  world.gate.Release();
  stopper.join();
  EXPECT_TRUE(stopped.load());
  EXPECT_FALSE(world.server->running());

  // The joined handler finished its work: its response was written before
  // the connection came down (the client may read it even now).
  Result<Frame> frame = client.ReadFrame(/*timeout_ms=*/1000);
  if (frame.ok()) {
    EXPECT_EQ(frame->tag, 1u);
    EXPECT_EQ(frame->code, static_cast<std::uint8_t>(RespStatus::kOk));
  }
  EXPECT_EQ(world.server->counters().completed, 1u);

  // Idempotent: a second Stop (and one from this thread) is a no-op.
  world.server->Stop();
  world.server->Stop();
  EXPECT_FALSE(world.server->running());
}

TEST(ServeOverload, QueuedButUnstartedTasksAreDroppedOnStop) {
  OverloadWorld world;
  ASSERT_TRUE(world.server->Start().ok());

  ServeClient client;
  ASSERT_TRUE(client.Connect(world.server->port()).ok());
  ASSERT_TRUE(client.SendFrame(1, Verb::kStats, {}).ok());
  world.gate.AwaitEntered(1);
  ASSERT_TRUE(client.SendFrame(2, Verb::kStats, {}).ok());

  // Wait until tag 2 is actually admitted (accepted counter hits 2);
  // otherwise Stop() could race ahead of the event loop's dispatch.
  while (world.server->counters().accepted < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::thread stopper([&] { world.server->Stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  world.stall.store(false, std::memory_order_release);
  world.gate.Release();
  stopper.join();

  // Exactly the in-flight task completed; the queued one was dropped.
  ServeCounters counters = world.server->counters();
  EXPECT_EQ(counters.accepted, 2u);
  EXPECT_EQ(counters.completed, 1u);
}


// The event loop never waits on one client. Client A pipelines SEARCHes for
// a parked worker and never reads its BUSY answers, with a shrunk receive
// buffer; once a BUSY cannot be written whole, A loses its connection. A
// second client's round trip on the other worker must not queue behind A:
// a loop that waited for A to read would hold it for seconds.
TEST(ServeOverload, SlowReaderCannotStallTheEventLoop) {
  testing::TestCity& city = testing::SharedCity();
  ConcurrentXarSystem system(city.graph, *city.spatial, *city.region,
                             *city.oracle, XarOptions{}, /*num_shards=*/2);
  WorkerGate gate;
  ServeOptions options;
  options.num_workers = 2;
  options.queue_capacity = 1;
  // Only SEARCHes park, and only A sends them, all to worker 0 (even tags).
  options.worker_hook_for_test = [&gate](Verb verb) {
    if (verb == Verb::kSearch) gate.Enter();
  };
  XarServeServer server(system, options);
  ASSERT_TRUE(server.Start().ok());
  struct Unpark {  // never leave worker 0 parked when Stop joins it
    WorkerGate& gate;
    XarServeServer& server;
    ~Unpark() {
      gate.Release();
      server.Stop();
    }
  } unpark{gate, server};

  const int a = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(a, 0);
  int rcvbuf = 1024;
  ::setsockopt(a, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(a, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  const BoundingBox& b = city.graph.bounds();
  SearchPayload search;
  search.source_lat = search.dest_lat = (b.min_lat + b.max_lat) / 2;
  search.source_lng = search.dest_lng = (b.min_lng + b.max_lng) / 2;
  std::vector<std::uint8_t> payload;
  EncodeSearch(search, &payload);
  std::vector<std::uint8_t> chunk;
  for (std::uint64_t tag = 2; chunk.size() < 64 * 1024; tag += 2) {
    AppendFrame(tag, static_cast<std::uint8_t>(Verb::kSearch), payload,
                &chunk);
  }
  // Non-blocking writer: stops when the server stops reading A (no progress
  // for 200 ms), drops A, or after 64 MiB.
  std::size_t written = 0;
  while (written < (std::size_t{64} << 20)) {
    const std::size_t at = written % chunk.size();  // whole frames only
    ssize_t n = ::send(a, chunk.data() + at, chunk.size() - at,
                       MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{a, POLLOUT, 0};
      if (::poll(&pfd, 1, 200) > 0) continue;
    }
    break;
  }
  gate.AwaitEntered(1);

  ServeClient b_client;
  ASSERT_TRUE(b_client.Connect(server.port()).ok());
  Stopwatch round_trip;
  Result<std::string> stats = b_client.Stats("serve", /*timeout_ms=*/1000);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_LT(round_trip.ElapsedSeconds(), 1.0);
  EXPECT_GT(server.counters().shed, 0u);
  EXPECT_EQ(server.counters().connections_closed, 1u) << *stats;
  ::close(a);
}

}  // namespace
}  // namespace serve
}  // namespace xar
