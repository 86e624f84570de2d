// Serving-layer soak (ISSUE 7 tentpole): a minutes-scale load generator
// driving XarServeServer over real loopback sockets, in two phases:
//
//   1. closed loop — K clients issue back-to-back SEARCHes; the sustained
//      completion rate measures the server's capacity on this host.
//   2. open loop — the same clients send at a fixed schedule of 1.5x the
//      measured capacity, regardless of responses. The server cannot keep
//      up by design, so the bounded worker queues overflow and the
//      admission controller must shed with BUSY while tail latency of the
//      admitted requests stays bounded by queue depth (instead of growing
//      without bound, which is what an unbounded queue would do).
//
// Latencies are recorded client-side (send -> matching response tag) into
// the same log-linear histogram the server uses, snapshotted into time
// buckets of a few seconds: the committed BENCH_soak.json carries
// p50/p99/p999 and shed-rate per bucket, so a regression in either steady
//-state latency or overload behavior shows up as a series, not one number.
//
//   XAR_SOAK_SECONDS=120 ./bench/soak   # total wall budget (default 60)
//   cp BENCH_soak.json ../bench/        # commit the refreshed series
//
// ctest runs this binary under the `soak` label with its default budget.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.h"
#include "common/clock.h"
#include "serve/client.h"
#include "serve/frame.h"
#include "serve/latency_histogram.h"
#include "serve/server.h"
#include "xar/concurrent_xar.h"

namespace xar {
namespace bench {
namespace {

using serve::Frame;
using serve::LatencyHistogram;
using serve::RespStatus;
using serve::SearchPayload;
using serve::ServeClient;
using serve::Verb;

constexpr std::size_t kClients = 4;
constexpr std::size_t kShards = 4;
constexpr double kBucketSeconds = 5.0;
constexpr double kOverloadFactor = 1.5;

double SoakSeconds() {
  const char* env = std::getenv("XAR_SOAK_SECONDS");
  if (env == nullptr) return 60.0;
  double v = std::atof(env);
  return v > 0 ? v : 60.0;
}

SearchPayload ToPayload(const TaxiTrip& trip, std::uint32_t rider_id) {
  SearchPayload p;
  p.rider_id = rider_id;
  p.source_lat = trip.pickup.lat;
  p.source_lng = trip.pickup.lng;
  p.dest_lat = trip.dropoff.lat;
  p.dest_lng = trip.dropoff.lng;
  p.earliest_departure_s = trip.pickup_time_s;
  p.latest_departure_s = trip.pickup_time_s + 1200;
  p.walk_limit_m = -1.0;
  p.top_k = 8;
  return p;
}

/// Shared tallies of one load phase. The histogram is the same lock-free
/// log-linear structure the server uses, so bucketed snapshot deltas work
/// identically on the client side.
struct PhaseStats {
  LatencyHistogram latency;
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> busy{0};
  std::atomic<std::uint64_t> errors{0};
};

/// One time bucket of the emitted series.
struct Bucket {
  std::string phase;
  double t_begin_s = 0.0, t_end_s = 0.0;
  std::uint64_t sent = 0, ok = 0, busy = 0;
  LatencyHistogram::Snapshot latency;  ///< delta over the bucket
};

/// One load thread. In closed-loop mode (`interval_s` == 0) it waits for
/// every response before the next send; in open-loop mode it sends on a
/// fixed schedule and drains responses opportunistically, which is what
/// lets offered load exceed service rate.
void LoadThread(std::uint16_t port, const std::vector<TaxiTrip>& requests,
                std::size_t thread_index, double interval_s,
                double deadline_s, const Stopwatch& clock, PhaseStats* stats) {
  ServeClient client;
  if (!client.Connect(port).ok()) {
    stats->errors.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::unordered_map<std::uint64_t, double> in_flight;  // tag -> send time
  std::uint64_t next_tag = 1;
  std::size_t cursor = thread_index;
  double next_send_s = clock.ElapsedSeconds();

  auto handle = [&](const Frame& frame) {
    auto it = in_flight.find(frame.tag);
    if (it == in_flight.end()) return;
    if (frame.code == static_cast<std::uint8_t>(RespStatus::kBusy)) {
      stats->busy.fetch_add(1, std::memory_order_relaxed);
    } else {
      stats->ok.fetch_add(1, std::memory_order_relaxed);
      stats->latency.Record((clock.ElapsedSeconds() - it->second) * 1e6);
    }
    in_flight.erase(it);
  };

  while (clock.ElapsedSeconds() < deadline_s) {
    const double now_s = clock.ElapsedSeconds();
    if (interval_s == 0.0 || now_s >= next_send_s) {
      const TaxiTrip& trip = requests[cursor % requests.size()];
      cursor += kClients;
      std::vector<std::uint8_t> payload;
      EncodeSearch(ToPayload(trip, static_cast<std::uint32_t>(
                                       0x10000u * (thread_index + 1) +
                                       next_tag % 0x10000u)),
                   &payload);
      const std::uint64_t tag = next_tag++;
      in_flight[tag] = now_s;
      if (!client.SendFrame(tag, Verb::kSearch, payload).ok()) {
        stats->errors.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      stats->sent.fetch_add(1, std::memory_order_relaxed);
      if (interval_s > 0.0) next_send_s += interval_s;
    }
    // Closed loop blocks for the response; open loop polls briefly so the
    // send schedule keeps priority over draining.
    const int timeout_ms = interval_s == 0.0 ? 2000 : 1;
    Result<Frame> frame = client.ReadFrame(timeout_ms);
    if (frame.ok()) {
      handle(*frame);
    } else if (frame.status().code() != StatusCode::kResourceExhausted) {
      stats->errors.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  // Drain stragglers so their latency lands in the final bucket.
  for (int i = 0; i < 50 && !in_flight.empty(); ++i) {
    Result<Frame> frame = client.ReadFrame(20);
    if (frame.ok()) handle(*frame);
  }
}

/// Runs one phase and appends its time-bucketed series to `buckets`.
void RunPhase(const char* phase, std::uint16_t port,
              const std::vector<TaxiTrip>& requests, double duration_s,
              double interval_per_client_s, const Stopwatch& clock,
              PhaseStats* stats, std::vector<Bucket>* buckets) {
  const double t0 = clock.ElapsedSeconds();
  const double deadline_s = t0 + duration_s;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back(LoadThread, port, std::cref(requests), c,
                         interval_per_client_s, deadline_s, std::cref(clock),
                         stats);
  }

  LatencyHistogram::Snapshot last_snap = stats->latency.Take();
  std::uint64_t last_sent = 0, last_ok = 0, last_busy = 0;
  double bucket_begin = t0;
  while (clock.ElapsedSeconds() < deadline_s) {
    const double target = std::min(bucket_begin + kBucketSeconds, deadline_s);
    while (clock.ElapsedSeconds() < target) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    Bucket b;
    b.phase = phase;
    b.t_begin_s = bucket_begin;
    b.t_end_s = clock.ElapsedSeconds();
    LatencyHistogram::Snapshot snap = stats->latency.Take();
    b.latency = LatencyHistogram::Delta(snap, last_snap);
    last_snap = snap;
    const std::uint64_t sent = stats->sent.load(std::memory_order_relaxed);
    const std::uint64_t ok = stats->ok.load(std::memory_order_relaxed);
    const std::uint64_t busy = stats->busy.load(std::memory_order_relaxed);
    b.sent = sent - last_sent;
    b.ok = ok - last_ok;
    b.busy = busy - last_busy;
    last_sent = sent;
    last_ok = ok;
    last_busy = busy;
    buckets->push_back(std::move(b));
    bucket_begin = b.t_end_s;
  }
  for (std::thread& t : threads) t.join();
}

int Main() {
  PrintHeader("soak", "serving layer under closed- and open-loop socket load");
  const double total_s = SoakSeconds();
  const double closed_s = total_s * 0.4;
  const double open_s = total_s - closed_s;

  BenchWorldOptions wopt;
  wopt.city_rows = 16;
  wopt.city_cols = 16;
  wopt.num_trips = 4000;
  BenchWorld world(wopt);
  std::vector<TaxiTrip> offer_trips, request_trips;
  SplitTrips(world.trips, /*stride=*/3, &offer_trips, &request_trips);

  ConcurrentXarSystem system(world.graph, *world.spatial, *world.region,
                             *world.oracle, XarOptions{}, kShards);
  for (const TaxiTrip& t : offer_trips) {
    RideOffer offer;
    offer.source = t.pickup;
    offer.destination = t.dropoff;
    offer.departure_time_s = t.pickup_time_s;
    if (!system.CreateRide(offer).ok()) {
      std::fprintf(stderr, "CreateRide failed\n");
      return 1;
    }
  }

  // A small queue makes the overload phase actually shed on any host: the
  // point of the soak is the backpressure path, not queue headroom.
  serve::ServeOptions sopt;
  sopt.queue_capacity = 64;
  serve::XarServeServer server(system, sopt);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("server on 127.0.0.1:%u — %zu workers, queue %zu, "
              "%zu rides, %zu request templates\n",
              server.port(), server.num_workers(), sopt.queue_capacity,
              system.NumRides(), request_trips.size());
  std::printf("budget %.0fs: %.0fs closed-loop + %.0fs open-loop @%.1fx\n",
              total_s, closed_s, open_s, kOverloadFactor);

  Stopwatch clock;
  std::vector<Bucket> buckets;

  PhaseStats closed;
  RunPhase("closed_loop", server.port(), request_trips, closed_s,
           /*interval_per_client_s=*/0.0, clock, &closed, &buckets);
  const double measured_rps =
      static_cast<double>(closed.ok.load()) / closed_s;
  std::printf("closed loop: %llu ok, %llu busy — capacity %.1f req/s\n",
              static_cast<unsigned long long>(closed.ok.load()),
              static_cast<unsigned long long>(closed.busy.load()),
              measured_rps);

  const double target_rps = measured_rps * kOverloadFactor;
  const double interval_s =
      target_rps > 0 ? kClients / target_rps : 0.050;
  PhaseStats open;
  RunPhase("open_loop", server.port(), request_trips, open_s, interval_s,
           clock, &open, &buckets);
  const std::uint64_t open_answered = open.ok.load() + open.busy.load();
  std::printf("open loop @%.1f req/s: %llu ok, %llu busy (%.1f%% shed)\n",
              target_rps, static_cast<unsigned long long>(open.ok.load()),
              static_cast<unsigned long long>(open.busy.load()),
              open_answered > 0
                  ? 100.0 * static_cast<double>(open.busy.load()) /
                        static_cast<double>(open_answered)
                  : 0.0);

  serve::ServeCounters counters = server.counters();
  server.Stop();

  std::printf("\n%-12s %7s %7s %6s %6s | %9s %9s %9s\n", "phase", "t", "sent",
              "ok", "busy", "p50_us", "p99_us", "p999_us");
  for (const Bucket& b : buckets) {
    std::printf("%-12s %3.0f-%3.0fs %7llu %6llu %6llu | %9.0f %9.0f %9.0f\n",
                b.phase.c_str(), b.t_begin_s, b.t_end_s,
                static_cast<unsigned long long>(b.sent),
                static_cast<unsigned long long>(b.ok),
                static_cast<unsigned long long>(b.busy),
                b.latency.PercentileUs(0.50), b.latency.PercentileUs(0.99),
                b.latency.PercentileUs(0.999));
  }

  const char* json_path = "BENCH_soak.json";
  std::FILE* f = std::fopen(json_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"soak\",\n");
  std::fprintf(f, "  \"host_cores\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"duration_s\": %.1f,\n", total_s);
  std::fprintf(f, "  \"clients\": %zu,\n", kClients);
  std::fprintf(f, "  \"workers\": %zu,\n", server.num_workers());
  std::fprintf(f, "  \"queue_capacity\": %zu,\n", sopt.queue_capacity);
  std::fprintf(f, "  \"closed_loop_rps\": %.2f,\n", measured_rps);
  std::fprintf(f, "  \"open_loop_target_rps\": %.2f,\n", target_rps);
  std::fprintf(f, "  \"server_accepted\": %llu,\n",
               static_cast<unsigned long long>(counters.accepted));
  std::fprintf(f, "  \"server_shed\": %llu,\n",
               static_cast<unsigned long long>(counters.shed));
  std::fprintf(f, "  \"server_queue_highwater\": %llu,\n",
               static_cast<unsigned long long>(counters.queue_highwater));
  std::fprintf(f, "  \"buckets\": [\n");
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const Bucket& b = buckets[i];
    const std::uint64_t answered = b.ok + b.busy;
    std::fprintf(
        f,
        "    {\"phase\": \"%s\", \"t_begin_s\": %.1f, \"t_end_s\": %.1f, "
        "\"sent\": %llu, \"ok\": %llu, \"busy\": %llu, "
        "\"shed_rate\": %.4f, "
        "\"p50_us\": %.0f, \"p99_us\": %.0f, \"p999_us\": %.0f}%s\n",
        b.phase.c_str(), b.t_begin_s, b.t_end_s,
        static_cast<unsigned long long>(b.sent),
        static_cast<unsigned long long>(b.ok),
        static_cast<unsigned long long>(b.busy),
        answered > 0
            ? static_cast<double>(b.busy) / static_cast<double>(answered)
            : 0.0,
        b.latency.PercentileUs(0.50), b.latency.PercentileUs(0.99),
        b.latency.PercentileUs(0.999), i + 1 < buckets.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s (%zu buckets)\n", json_path, buckets.size());

  // A soak that never shed proves nothing about the backpressure path.
  if (open.busy.load() == 0 && counters.shed == 0) {
    std::fprintf(stderr,
                 "warning: open-loop phase produced no shedding; "
                 "raise XAR_SOAK_SECONDS or lower queue_capacity\n");
  }
  return closed.errors.load() + open.errors.load() > 0 ? 1 : 0;
}

}  // namespace
}  // namespace bench
}  // namespace xar

int main() { return xar::bench::Main(); }
