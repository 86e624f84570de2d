// Protocol suite for the serving layer (ISSUE 7 satellite 1): framing
// round-trip units plus adversarial inputs — truncated frames, oversized
// length prefixes, interleaved partial reads across multiple connections —
// the server must answer a typed error or close cleanly, never crash or
// desync. The adversarial phase ends with a fuzz-style loop over a seeded
// byte mutator; every assertion carries the reproducing seed (same repro
// contract as differential_fuzz_test):
//   ./serve_protocol_test --gtest_filter='*/Seed<n>'
//
// The stress binary (XAR_SERVE_FUZZ_WIDE, ctest label `stress`, TSan job)
// sweeps a wider seed range with more mutations per seed.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "serve/client.h"
#include "serve/frame.h"
#include "serve/server.h"
#include "tests/test_helpers.h"
#include "workload/trip_generator.h"
#include "xar/concurrent_xar.h"

namespace xar {
namespace serve {
namespace {

using RawBytes = std::vector<std::uint8_t>;

RawBytes MakeFrame(std::uint64_t tag, std::uint8_t code,
                   const RawBytes& payload) {
  RawBytes bytes;
  AppendFrame(tag, code, payload, &bytes);
  return bytes;
}

// --- Codec round trips (pure units, no sockets) ---------------------------

TEST(FrameCodec, SearchPayloadRoundTrip) {
  SearchPayload p;
  p.rider_id = 0xdeadbeef;
  p.source_lat = 40.7128;
  p.source_lng = -74.0060;
  p.dest_lat = 40.7484;
  p.dest_lng = -73.9857;
  p.earliest_departure_s = 28800.5;
  p.latest_departure_s = 30000.25;
  p.walk_limit_m = 350.0;
  p.top_k = 7;

  RawBytes bytes;
  EncodeSearch(p, &bytes);
  SearchPayload q;
  ASSERT_TRUE(DecodeSearch(bytes.data(), bytes.size(), &q));
  EXPECT_EQ(p.rider_id, q.rider_id);
  EXPECT_EQ(p.source_lat, q.source_lat);
  EXPECT_EQ(p.source_lng, q.source_lng);
  EXPECT_EQ(p.dest_lat, q.dest_lat);
  EXPECT_EQ(p.dest_lng, q.dest_lng);
  EXPECT_EQ(p.earliest_departure_s, q.earliest_departure_s);
  EXPECT_EQ(p.latest_departure_s, q.latest_departure_s);
  EXPECT_EQ(p.walk_limit_m, q.walk_limit_m);
  EXPECT_EQ(p.top_k, q.top_k);

  // Exact-consumption contract: truncation and trailing garbage both fail.
  EXPECT_FALSE(DecodeSearch(bytes.data(), bytes.size() - 1, &q));
  bytes.push_back(0);
  EXPECT_FALSE(DecodeSearch(bytes.data(), bytes.size(), &q));
}

TEST(FrameCodec, BookAndResultRoundTrips) {
  RawBytes bytes;
  EncodeBook({41, 97}, &bytes);
  BookPayload b;
  ASSERT_TRUE(DecodeBook(bytes.data(), bytes.size(), &b));
  EXPECT_EQ(b.rider_id, 41u);
  EXPECT_EQ(b.ride_id, 97u);

  SearchResult sr;
  sr.matches = {{3, 120.5, 600.0, 90.25}, {8, 40.0, 300.0, 10.0}};
  bytes.clear();
  EncodeSearchResult(sr, &bytes);
  SearchResult sr2;
  ASSERT_TRUE(DecodeSearchResult(bytes.data(), bytes.size(), &sr2));
  ASSERT_EQ(sr2.matches.size(), 2u);
  EXPECT_EQ(sr2.matches[0].ride_id, 3u);
  EXPECT_EQ(sr2.matches[0].walk_m, 120.5);
  EXPECT_EQ(sr2.matches[1].detour_m, 10.0);

  BookingResult br{12, 100.0, 900.0, 55.5, 80.0};
  bytes.clear();
  EncodeBookingResult(br, &bytes);
  BookingResult br2;
  ASSERT_TRUE(DecodeBookingResult(bytes.data(), bytes.size(), &br2));
  EXPECT_EQ(br2.ride_id, 12u);
  EXPECT_EQ(br2.dropoff_eta_s, 900.0);

  RefreshResult rr{5, 12.5};
  bytes.clear();
  EncodeRefreshResult(rr, &bytes);
  RefreshResult rr2;
  ASSERT_TRUE(DecodeRefreshResult(bytes.data(), bytes.size(), &rr2));
  EXPECT_EQ(rr2.epoch, 5u);
  EXPECT_EQ(rr2.rebuild_ms, 12.5);
}

TEST(FrameCodec, SearchResultRejectsHostileCount) {
  // A count field claiming far more rows than the payload carries must be
  // rejected up front, not fed to a resize.
  RawBytes bytes;
  ByteWriter w(&bytes);
  w.PutU32(0x00ffffff);  // 16M rows, no row bytes
  SearchResult r;
  EXPECT_FALSE(DecodeSearchResult(bytes.data(), bytes.size(), &r));
}

// --- Incremental decoder ---------------------------------------------------

TEST(FrameDecoder, ReassemblesAcrossPartialFeeds) {
  // Three frames, fed one byte at a time: every frame must pop exactly at
  // its boundary with payload intact.
  RawBytes stream;
  std::vector<Frame> expected;
  for (std::uint64_t tag = 1; tag <= 3; ++tag) {
    RawBytes payload(static_cast<std::size_t>(tag * 7), 0);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::uint8_t>(tag * 31 + i);
    }
    RawBytes frame = MakeFrame(tag, static_cast<std::uint8_t>(tag), payload);
    stream.insert(stream.end(), frame.begin(), frame.end());
    expected.push_back(Frame{tag, static_cast<std::uint8_t>(tag), payload});
  }

  FrameDecoder decoder;
  std::vector<Frame> got;
  for (std::uint8_t byte : stream) {
    decoder.Feed(&byte, 1);
    Frame frame;
    while (decoder.Pop(&frame) == FrameDecoder::Next::kFrame) {
      got.push_back(frame);
    }
  }
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].tag, expected[i].tag);
    EXPECT_EQ(got[i].code, expected[i].code);
    EXPECT_EQ(got[i].payload, expected[i].payload);
  }
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FrameDecoder, CoalescedFramesPopIndividually) {
  RawBytes stream = MakeFrame(10, 1, {1, 2, 3});
  RawBytes second = MakeFrame(11, 2, {});
  stream.insert(stream.end(), second.begin(), second.end());

  FrameDecoder decoder;
  decoder.Feed(stream.data(), stream.size());
  Frame frame;
  ASSERT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kFrame);
  EXPECT_EQ(frame.tag, 10u);
  ASSERT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kFrame);
  EXPECT_EQ(frame.tag, 11u);
  EXPECT_TRUE(frame.payload.empty());
  EXPECT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kNeedMore);
}

TEST(FrameDecoder, UndersizedBodyLenIsStickyError) {
  FrameDecoder decoder;
  // body_len = 8 < kMinBodyBytes: no room for tag + code.
  RawBytes bad = {8, 0, 0, 0};
  decoder.Feed(bad.data(), bad.size());
  Frame frame;
  EXPECT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kError);
  EXPECT_FALSE(decoder.error().empty());

  // Sticky: even a well-formed follow-up frame must not resynchronize.
  RawBytes good = MakeFrame(1, 1, {});
  decoder.Feed(good.data(), good.size());
  EXPECT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kError);
}

TEST(FrameDecoder, OversizedBodyLenIsError) {
  FrameDecoder decoder(/*max_body_bytes=*/64);
  RawBytes bad = {65, 0, 0, 0};
  decoder.Feed(bad.data(), bad.size());
  Frame frame;
  EXPECT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kError);
}

// --- Live-server fixture ---------------------------------------------------

constexpr std::size_t kShards = 4;

struct ServedWorld {
  std::unique_ptr<ConcurrentXarSystem> system;
  std::unique_ptr<XarServeServer> server;
  std::vector<RideRequest> requests;

  explicit ServedWorld(ServeOptions options = {}, std::size_t num_trips = 120) {
    testing::TestCity& city = testing::SharedCity();
    system = std::make_unique<ConcurrentXarSystem>(
        city.graph, *city.spatial, *city.region, *city.oracle, XarOptions{},
        kShards);
    WorkloadOptions wopt;
    wopt.num_trips = num_trips;
    wopt.seed = 0x5e7fe77e;
    for (const TaxiTrip& t : GenerateTrips(city.graph.bounds(), wopt)) {
      if (t.id.value() % 3 == 0) {
        RideOffer offer;
        offer.source = t.pickup;
        offer.destination = t.dropoff;
        offer.departure_time_s = t.pickup_time_s;
        EXPECT_TRUE(system->CreateRide(offer).ok());
      } else {
        RideRequest req;
        req.id = t.id;
        req.source = t.pickup;
        req.destination = t.dropoff;
        req.earliest_departure_s = t.pickup_time_s;
        req.latest_departure_s = t.pickup_time_s + 1200;
        requests.push_back(req);
      }
    }
    server = std::make_unique<XarServeServer>(*system, options);
    EXPECT_TRUE(server->Start().ok());
  }
  ~ServedWorld() {
    if (server) server->Stop();
  }

  ServeClient Connect() {
    ServeClient client;
    EXPECT_TRUE(client.Connect(server->port()).ok());
    return client;
  }

  static SearchPayload ToPayload(const RideRequest& req) {
    SearchPayload p;
    p.rider_id = req.id.value();
    p.source_lat = req.source.lat;
    p.source_lng = req.source.lng;
    p.dest_lat = req.destination.lat;
    p.dest_lng = req.destination.lng;
    p.earliest_departure_s = req.earliest_departure_s;
    p.latest_departure_s = req.latest_departure_s;
    p.walk_limit_m = req.walk_limit_m;
    return p;
  }
};

TEST(ServeProtocol, SearchThenBookOverSocket) {
  ServedWorld world;
  ServeClient client = world.Connect();

  bool booked = false;
  for (const RideRequest& req : world.requests) {
    Result<SearchResult> found = client.Search(ServedWorld::ToPayload(req));
    ASSERT_TRUE(found.ok()) << found.status().ToString();
    if (found->matches.empty()) continue;
    const MatchRow& best = found->matches.front();
    Result<BookingResult> booking = client.Book(req.id.value(), best.ride_id);
    ASSERT_TRUE(booking.ok()) << booking.status().ToString();
    EXPECT_EQ(booking->ride_id, best.ride_id);
    EXPECT_LE(booking->pickup_eta_s, booking->dropoff_eta_s);
    EXPECT_GE(booking->walk_m, 0.0);
    booked = true;
    break;
  }
  EXPECT_TRUE(booked) << "workload produced no bookable request";

  // Booking a ride that was never searched on this connection is a typed
  // application failure, not a protocol error.
  Result<BookingResult> stale = client.Book(/*rider_id=*/999999, 0);
  EXPECT_EQ(stale.status().code(), StatusCode::kFailedPrecondition);
}

// The look-then-book map is bounded per connection: after
// kMaxPendingSearches + N SEARCHes with fresh rider ids, the first N are
// evicted (a BOOK of the first fails like one with no prior SEARCH) and the
// newest is still bookable. A rider re-SEARCHed midway keeps the new entry
// when its first SEARCH's queue slot expires.
TEST(ServeProtocol, PendingSearchesAreCappedPerConnection) {
  ServedWorld world;
  const RideRequest* bookable = nullptr;
  for (const RideRequest& req : world.requests) {
    if (!world.system->Search(req).empty()) {
      bookable = &req;
      break;
    }
  }
  ASSERT_NE(bookable, nullptr) << "workload produced no searchable request";

  constexpr std::uint32_t kExtra = 5;
  constexpr std::uint32_t kFirstRider = 500000;
  constexpr std::uint32_t kReSearchedRider = 400000;
  // Fresh riders plus the re-SEARCHed one (twice): kMaxPendingSearches +
  // kExtra + 1 SEARCHes, whose kExtra + 1 expired slots include one stale.
  std::vector<std::uint32_t> riders = {kFirstRider, kReSearchedRider};
  for (std::uint32_t i = 1; riders.size() < kMaxPendingSearches + kExtra + 1;
       ++i) {
    riders.push_back(riders.size() == kMaxPendingSearches / 2
                         ? kReSearchedRider
                         : kFirstRider + i);
  }
  ServeClient client = world.Connect();
  SearchPayload payload = ServedWorld::ToPayload(*bookable);
  std::uint32_t top_ride = 0;
  for (std::uint32_t rider : riders) {
    payload.rider_id = rider;
    Result<SearchResult> found = client.Search(payload);
    ASSERT_TRUE(found.ok()) << found.status().ToString();
    ASSERT_FALSE(found->matches.empty());
    top_ride = found->matches.front().ride_id;
  }
  EXPECT_EQ(world.server->counters().pending_evicted, kExtra);

  Result<BookingResult> evicted = client.Book(kFirstRider, top_ride);
  EXPECT_EQ(evicted.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(evicted.status().message().find("no prior SEARCH"),
            std::string::npos)
      << evicted.status().ToString();
  // Still pending: the BOOK gets past the lookup and fails on the ride id.
  Result<BookingResult> kept =
      client.Book(kReSearchedRider, /*ride_id=*/0xffffffff);
  EXPECT_NE(kept.status().message().find("not in the search results"),
            std::string::npos)
      << kept.status().ToString();
  Result<BookingResult> newest = client.Book(riders.back(), top_ride);
  ASSERT_TRUE(newest.ok()) << newest.status().ToString();
  EXPECT_EQ(newest->ride_id, top_ride);

  Result<std::string> stats = client.Stats("serve");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("pending_evicted=" + std::to_string(kExtra)),
            std::string::npos)
      << *stats;
}

// The `pending` gauge in the system section counts the look-then-book
// entries live across all connections: a SEARCH of a new rider adds one, a
// BOOK consumes one, and a closed connection takes its entries with it.
TEST(ServeProtocol, PendingGaugeFollowsSearchesBooksAndConnections) {
  ServedWorld world;
  const RideRequest* bookable = nullptr;
  for (const RideRequest& req : world.requests) {
    if (!world.system->Search(req).empty()) {
      bookable = &req;
      break;
    }
  }
  ASSERT_NE(bookable, nullptr) << "workload produced no searchable request";
  auto pending_reads = [](ServeClient& client, int n) {
    Result<std::string> stats = client.Stats("system");
    return stats.ok() && stats->find(" pending=" + std::to_string(n) + " ") !=
                             std::string::npos;
  };

  constexpr int kSearches = 5;
  constexpr std::uint32_t kFirstRider = 600000;
  ServeClient client = world.Connect();
  SearchPayload payload = ServedWorld::ToPayload(*bookable);
  std::uint32_t top_ride = 0;
  for (int i = 0; i < kSearches; ++i) {
    payload.rider_id = kFirstRider + static_cast<std::uint32_t>(i);
    Result<SearchResult> found = client.Search(payload);
    ASSERT_TRUE(found.ok()) << found.status().ToString();
    ASSERT_FALSE(found->matches.empty());
    top_ride = found->matches.front().ride_id;
  }
  EXPECT_TRUE(pending_reads(client, kSearches));
  ASSERT_TRUE(client.Book(kFirstRider, top_ride).ok());
  EXPECT_TRUE(pending_reads(client, kSearches - 1));

  // The server releases the connection (and its session) once it has seen
  // the close; poll briefly for that.
  client.Close();
  ServeClient other = world.Connect();
  bool drained = false;
  for (int i = 0; i < 200 && !drained; ++i) {
    drained = pending_reads(other, 0);
    if (!drained) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(drained) << *other.Stats("system");
}

TEST(ServeProtocol, StatsAndRefreshVerbs) {
  ServedWorld world;
  ServeClient client = world.Connect();

  Result<std::string> all = client.Stats();
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_NE(all->find("serve "), std::string::npos);
  EXPECT_NE(all->find("system "), std::string::npos);

  Result<std::string> serve_only = client.Stats("serve");
  ASSERT_TRUE(serve_only.ok());
  EXPECT_NE(serve_only->find("accepted="), std::string::npos);
  EXPECT_EQ(serve_only->find("system "), std::string::npos);

  Result<std::string> unknown = client.Stats("no_such_section");
  ASSERT_EQ(unknown.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(unknown.status().message().find("serve"), std::string::npos);

  const std::uint64_t before = world.system->epoch();
  Result<RefreshResult> refreshed = client.Refresh();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(refreshed->epoch, before + 1);
  EXPECT_EQ(world.system->epoch(), before + 1);
}

TEST(ServeProtocol, UnknownVerbIsTypedAndRecoverable) {
  ServedWorld world;
  ServeClient client = world.Connect();

  ASSERT_TRUE(client.SendFrame(77, static_cast<Verb>(99), {1, 2, 3}).ok());
  Result<Frame> frame = client.ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->tag, 77u);
  EXPECT_EQ(frame->code, static_cast<std::uint8_t>(RespStatus::kUnknownVerb));

  // The stream is still framed: the connection keeps working.
  EXPECT_TRUE(client.Stats("serve").ok());
}

TEST(ServeProtocol, MalformedPayloadKeepsConnectionOpen) {
  ServedWorld world;
  ServeClient client = world.Connect();

  ASSERT_TRUE(client.SendFrame(42, Verb::kSearch, {1, 2, 3}).ok());
  Result<Frame> frame = client.ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->tag, 42u);
  EXPECT_EQ(frame->code, static_cast<std::uint8_t>(RespStatus::kMalformed));

  EXPECT_TRUE(client.Stats("serve").ok());
  EXPECT_GE(world.server->counters().protocol_errors, 1u);
}

TEST(ServeProtocol, NonFiniteCoordinatesAreMalformed) {
  ServedWorld world;
  ServeClient client = world.Connect();

  SearchPayload p = ServedWorld::ToPayload(world.requests.front());
  p.source_lat = std::numeric_limits<double>::quiet_NaN();
  Result<SearchResult> found = client.Search(p);
  EXPECT_EQ(found.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(client.Stats("serve").ok());
}

TEST(ServeProtocol, OversizedLengthPrefixClosesConnection) {
  ServedWorld world;
  ServeClient client = world.Connect();

  const std::uint32_t body_len =
      static_cast<std::uint32_t>(kDefaultMaxBodyBytes + 1);
  std::uint8_t header[4];
  std::memcpy(header, &body_len, 4);
  ASSERT_TRUE(client.SendBytes(header, sizeof(header)).ok());

  // Typed MALFORMED (tag 0: the stream desynced, no frame to correlate)
  // followed by a clean close.
  Result<Frame> frame = client.ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->tag, 0u);
  EXPECT_EQ(frame->code, static_cast<std::uint8_t>(RespStatus::kMalformed));
  Result<Frame> eof = client.ReadFrame();
  EXPECT_EQ(eof.status().code(), StatusCode::kNotFound) << "expected EOF";

  // Server is still healthy for new connections.
  ServeClient fresh = world.Connect();
  EXPECT_TRUE(fresh.Stats("serve").ok());
  EXPECT_GE(world.server->counters().protocol_errors, 1u);
}

TEST(ServeProtocol, UndersizedLengthPrefixClosesConnection) {
  ServedWorld world;
  ServeClient client = world.Connect();

  RawBytes bad = {2, 0, 0, 0};  // body_len 2 < kMinBodyBytes
  ASSERT_TRUE(client.SendBytes(bad.data(), bad.size()).ok());
  Result<Frame> frame = client.ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->code, static_cast<std::uint8_t>(RespStatus::kMalformed));
  EXPECT_EQ(client.ReadFrame().status().code(), StatusCode::kNotFound);

  ServeClient fresh = world.Connect();
  EXPECT_TRUE(fresh.Stats("serve").ok());
}

TEST(ServeProtocol, TruncatedFrameThenCloseIsHarmless) {
  ServedWorld world;
  {
    ServeClient client = world.Connect();
    RawBytes frame = MakeFrame(9, static_cast<std::uint8_t>(Verb::kStats), {});
    // Send the header plus half the body, then disappear mid-frame.
    ASSERT_TRUE(client.SendBytes(frame.data(), frame.size() - 5).ok());
  }  // destructor closes the socket

  // The half-frame must be discarded with the connection; the server keeps
  // serving.
  ServeClient fresh = world.Connect();
  EXPECT_TRUE(fresh.Stats("serve").ok());
}

TEST(ServeProtocol, InterleavedPartialReadsAcrossConnections) {
  ServedWorld world;

  // Three clients, each with a pipelined pair of requests (STATS + SEARCH),
  // delivered byte-by-byte round-robin so the event loop sees interleaved
  // fragments of three different streams. Per-connection reassembly must
  // keep them apart.
  constexpr std::size_t kClients = 3;
  std::vector<ServeClient> clients;
  std::vector<RawBytes> streams(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.push_back(world.Connect());
    RawBytes stats_payload;  // section name "serve"
    const std::string section = "serve";
    stats_payload.assign(section.begin(), section.end());
    RawBytes frame = MakeFrame(100 + c, static_cast<std::uint8_t>(Verb::kStats),
                               stats_payload);
    RawBytes search_bytes;
    EncodeSearch(ServedWorld::ToPayload(world.requests[c]), &search_bytes);
    RawBytes second = MakeFrame(
        200 + c, static_cast<std::uint8_t>(Verb::kSearch), search_bytes);
    frame.insert(frame.end(), second.begin(), second.end());
    streams[c] = std::move(frame);
  }

  std::size_t offset = 0;
  bool any_left = true;
  while (any_left) {
    any_left = false;
    for (std::size_t c = 0; c < kClients; ++c) {
      if (offset >= streams[c].size()) continue;
      any_left = true;
      ASSERT_TRUE(clients[c].SendBytes(&streams[c][offset], 1).ok());
    }
    ++offset;
  }

  for (std::size_t c = 0; c < kClients; ++c) {
    SCOPED_TRACE(::testing::Message() << "client " << c);
    Result<Frame> first = clients[c].ReadFrame();
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    Result<Frame> second = clients[c].ReadFrame();
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    // Responses may arrive out of order (different workers); match by tag.
    const Frame& stats = first->tag == 100 + c ? *first : *second;
    const Frame& search = first->tag == 100 + c ? *second : *first;
    ASSERT_EQ(stats.tag, 100 + c);
    ASSERT_EQ(search.tag, 200 + c);
    EXPECT_EQ(stats.code, static_cast<std::uint8_t>(RespStatus::kOk));
    EXPECT_EQ(search.code, static_cast<std::uint8_t>(RespStatus::kOk));
    const std::string text(stats.payload.begin(), stats.payload.end());
    EXPECT_NE(text.find("accepted="), std::string::npos);
    SearchResult result;
    EXPECT_TRUE(DecodeSearchResult(search.payload.data(),
                                   search.payload.size(), &result));
  }
}

// --- Seeded fuzz loop ------------------------------------------------------

#ifdef XAR_SERVE_FUZZ_WIDE
constexpr std::uint64_t kFuzzSeedBegin = 1;
constexpr std::uint64_t kFuzzSeedEnd = 13;  // exclusive
constexpr std::size_t kMutationsPerSeed = 48;
#else
constexpr std::uint64_t kFuzzSeedBegin = 1;
constexpr std::uint64_t kFuzzSeedEnd = 4;  // exclusive
constexpr std::size_t kMutationsPerSeed = 12;
#endif

std::vector<std::uint64_t> FuzzSeeds() {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = kFuzzSeedBegin; s < kFuzzSeedEnd; ++s) {
    seeds.push_back(s);
  }
  return seeds;
}

/// A valid request stream to mutate: one of every verb, realistic payloads.
RawBytes ValidStream(const std::vector<RideRequest>& requests, Rng& rng) {
  RawBytes stream;
  const RideRequest& req =
      requests[rng.NextIndex(requests.size())];
  RawBytes search_bytes;
  EncodeSearch(ServedWorld::ToPayload(req), &search_bytes);
  RawBytes frame = MakeFrame(rng.NextU64(),
                             static_cast<std::uint8_t>(Verb::kSearch),
                             search_bytes);
  stream.insert(stream.end(), frame.begin(), frame.end());

  RawBytes book_bytes;
  EncodeBook({req.id.value(), static_cast<std::uint32_t>(rng.NextIndex(64))},
             &book_bytes);
  frame = MakeFrame(rng.NextU64(), static_cast<std::uint8_t>(Verb::kBook),
                    book_bytes);
  stream.insert(stream.end(), frame.begin(), frame.end());

  const std::string section = rng.Bernoulli(0.5) ? "" : "serve";
  RawBytes stats_payload(section.begin(), section.end());
  frame = MakeFrame(rng.NextU64(), static_cast<std::uint8_t>(Verb::kStats),
                    stats_payload);
  stream.insert(stream.end(), frame.begin(), frame.end());
  return stream;
}

/// Applies one random mutation: flip, insert, delete, or truncate.
void Mutate(RawBytes* bytes, Rng& rng) {
  if (bytes->empty()) return;
  switch (rng.NextIndex(4)) {
    case 0: {  // bit flip
      std::size_t i = rng.NextIndex(bytes->size());
      (*bytes)[i] ^= static_cast<std::uint8_t>(1u << rng.NextIndex(8));
      break;
    }
    case 1: {  // insert a random byte
      std::size_t i = rng.NextIndex(bytes->size() + 1);
      bytes->insert(bytes->begin() + static_cast<std::ptrdiff_t>(i),
                    static_cast<std::uint8_t>(rng.NextU64()));
      break;
    }
    case 2: {  // delete a byte
      std::size_t i = rng.NextIndex(bytes->size());
      bytes->erase(bytes->begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
    default:  // truncate
      bytes->resize(rng.NextIndex(bytes->size()) + 1);
      break;
  }
}

class ServeFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ServeFuzzTest, MutatedStreamsNeverKillTheServer) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE(::testing::Message() << "reproducing seed = " << seed);
  ServedWorld world;
  Rng mutator(seed * 0x2545f4914f6cdd1dULL + 1);

  for (std::size_t iter = 0; iter < kMutationsPerSeed; ++iter) {
    SCOPED_TRACE(::testing::Message() << "iteration " << iter);
    RawBytes stream = ValidStream(world.requests, mutator);
    const std::size_t mutations = 1 + mutator.NextIndex(5);
    for (std::size_t m = 0; m < mutations; ++m) Mutate(&stream, mutator);

    ServeClient client;
    ASSERT_TRUE(client.Connect(world.server->port()).ok());
    ASSERT_TRUE(client.SendBytes(stream.data(), stream.size()).ok());

    // Drain whatever comes back (typed responses, a MALFORMED, or nothing
    // at all if the mutation left a partial frame pending). Every response
    // must still be a well-formed frame — a framing error here means the
    // server desynced its write side.
    for (;;) {
      Result<Frame> frame = client.ReadFrame(/*timeout_ms=*/100);
      if (frame.ok()) continue;
      ASSERT_NE(frame.status().code(), StatusCode::kInternal)
          << frame.status().ToString();
      break;  // timeout or clean EOF
    }
    client.Close();

    // Liveness probe: a fresh, well-behaved connection still gets served.
    ServeClient probe;
    ASSERT_TRUE(probe.Connect(world.server->port()).ok());
    Result<std::string> stats = probe.Stats("serve");
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  }
  EXPECT_TRUE(world.server->running());
}

INSTANTIATE_TEST_SUITE_P(
#ifdef XAR_SERVE_FUZZ_WIDE
    WideSeeds,
#else
    Tier1Seeds,
#endif
    ServeFuzzTest, ::testing::ValuesIn(FuzzSeeds()),
    [](const ::testing::TestParamInfo<std::uint64_t>& info) {
      return "Seed" + std::to_string(info.param);
    });

}  // namespace
}  // namespace serve
}  // namespace xar
