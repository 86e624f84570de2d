#include "xar/command_server.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "serve/client.h"
#include "serve/server.h"
#include "tests/test_helpers.h"
#include "xar/concurrent_xar.h"

namespace xar {
namespace {

using testing::SharedCity;
using testing::TestCity;

class CommandServerTest : public ::testing::Test {
 protected:
  CommandServerTest()
      : city_(SharedCity()),
        xar_(city_.graph, *city_.spatial, *city_.region, *city_.oracle),
        server_(xar_) {}

  /// Formats a lat/lng pair at box fractions (fy, fx) as two tokens.
  std::string At(double fy, double fx) const {
    const BoundingBox& b = city_.graph.bounds();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f %.6f",
                  b.min_lat + fy * (b.max_lat - b.min_lat),
                  b.min_lng + fx * (b.max_lng - b.min_lng));
    return buf;
  }

  TestCity& city_;
  XarSystem xar_;
  CommandServer server_;
};

TEST_F(CommandServerTest, CreateSearchBookFlow) {
  std::string created =
      server_.Execute("CREATE " + At(0.1, 0.1) + " " + At(0.9, 0.9) + " 28800");
  ASSERT_EQ(created.rfind("OK RIDE ", 0), 0u) << created;

  std::string found = server_.Execute("SEARCH 7 " + At(0.35, 0.35) + " " +
                                      At(0.7, 0.7) + " 28800 30600");
  ASSERT_EQ(found.rfind("OK MATCHES ", 0), 0u) << found;
  ASSERT_NE(found.find("MATCH ride=0"), std::string::npos) << found;

  std::string booked = server_.Execute("BOOK 7 0");
  ASSERT_EQ(booked.rfind("OK BOOKED ride=0", 0), 0u) << booked;
  EXPECT_EQ(xar_.bookings().size(), 1u);

  std::string ride = server_.Execute("RIDE 0");
  EXPECT_NE(ride.find("seats=2/3"), std::string::npos) << ride;
  EXPECT_NE(ride.find("via_points=4"), std::string::npos) << ride;
}

TEST_F(CommandServerTest, BookWithoutSearchFails) {
  server_.Execute("CREATE " + At(0.1, 0.1) + " " + At(0.9, 0.9) + " 28800");
  std::string r = server_.Execute("BOOK 42 0");
  EXPECT_EQ(r.rfind("ERR", 0), 0u);
}

TEST_F(CommandServerTest, BookConsumesThePendingSearch) {
  server_.Execute("CREATE " + At(0.1, 0.1) + " " + At(0.9, 0.9) + " 28800");
  server_.Execute("SEARCH 7 " + At(0.35, 0.35) + " " + At(0.7, 0.7) +
                  " 28800 30600");
  ASSERT_EQ(server_.Execute("BOOK 7 0").rfind("OK", 0), 0u);
  // Second booking against the same stale search must be rejected.
  EXPECT_EQ(server_.Execute("BOOK 7 0").rfind("ERR", 0), 0u);
}

TEST_F(CommandServerTest, CancelCommands) {
  server_.Execute("CREATE " + At(0.1, 0.1) + " " + At(0.9, 0.9) + " 28800");
  server_.Execute("SEARCH 9 " + At(0.35, 0.35) + " " + At(0.7, 0.7) +
                  " 28800 30600");
  ASSERT_EQ(server_.Execute("BOOK 9 0").rfind("OK", 0), 0u);
  EXPECT_EQ(server_.Execute("CANCELBOOKING 0 9"), "OK CANCELLED");
  EXPECT_EQ(server_.Execute("CANCELBOOKING 0 9").rfind("ERR", 0), 0u);
  EXPECT_EQ(server_.Execute("CANCELRIDE 0"), "OK CANCELLED");
  std::string ride = server_.Execute("RIDE 0");
  EXPECT_NE(ride.find("active=0"), std::string::npos);
}

TEST_F(CommandServerTest, AdvanceAndStats) {
  EXPECT_EQ(server_.Execute("ADVANCE 30000"), "OK NOW 30000");
  std::string stats = server_.Execute("STATS");
  EXPECT_EQ(stats.rfind("OK STATS", 0), 0u);
  EXPECT_NE(stats.find("now=30000"), std::string::npos);
}

TEST_F(CommandServerTest, SearchRespectsOptionalWalkAndK) {
  server_.Execute("CREATE " + At(0.1, 0.1) + " " + At(0.9, 0.9) + " 28800");
  // A one-meter walk limit kills all matches.
  std::string strict = server_.Execute("SEARCH 1 " + At(0.35, 0.35) + " " +
                                       At(0.7, 0.7) + " 28800 30600 1");
  EXPECT_EQ(strict, "OK MATCHES 0");
  // k = 1 truncates.
  for (int i = 0; i < 3; ++i) {
    server_.Execute("CREATE " + At(0.1, 0.1) + " " + At(0.9, 0.9) + " 28860");
  }
  std::string topk = server_.Execute("SEARCH 2 " + At(0.35, 0.35) + " " +
                                     At(0.7, 0.7) + " 28800 30600 1000 1");
  EXPECT_EQ(topk.rfind("OK MATCHES 1", 0), 0u) << topk;
}

TEST_F(CommandServerTest, RefreshBumpsEpochAndShowsInStats) {
  server_.Execute("CREATE " + At(0.1, 0.1) + " " + At(0.9, 0.9) + " 28800");
  std::string before = server_.Execute("STATS");
  EXPECT_NE(before.find("refresh epoch=0 refreshes=0"), std::string::npos)
      << before;
  EXPECT_NE(before.find("total_rehomed=0"), std::string::npos) << before;

  std::string refreshed = server_.Execute("REFRESH");
  EXPECT_EQ(refreshed.rfind("OK REFRESH epoch=1 rehomed=1", 0), 0u)
      << refreshed;

  std::string after = server_.Execute("STATS");
  EXPECT_NE(after.find("refresh epoch=1 refreshes=1"), std::string::npos)
      << after;
  EXPECT_NE(after.find("total_rehomed=1"), std::string::npos) << after;
  EXPECT_EQ(xar_.epoch(), 1u);
}

TEST_F(CommandServerTest, StatsIteratesRegistrySections) {
  std::string stats = server_.Execute("STATS");
  EXPECT_EQ(stats.rfind("OK STATS", 0), 0u);
  // One line per section row, tagged with the section name.
  EXPECT_NE(stats.find("\nsystem rides="), std::string::npos) << stats;
  EXPECT_NE(stats.find("\nrefresh epoch="), std::string::npos) << stats;
  EXPECT_NE(stats.find("\noracle backend="), std::string::npos) << stats;
}

TEST_F(CommandServerTest, StatsSectionFilter) {
  std::string oracle_only = server_.Execute("STATS oracle");
  EXPECT_EQ(oracle_only.rfind("OK STATS", 0), 0u);
  EXPECT_NE(oracle_only.find("\noracle backend="), std::string::npos)
      << oracle_only;
  EXPECT_EQ(oracle_only.find("\nsystem "), std::string::npos) << oracle_only;
  EXPECT_EQ(oracle_only.find("\nrefresh "), std::string::npos) << oracle_only;

  std::string unknown = server_.Execute("STATS bogus");
  EXPECT_EQ(unknown.rfind("ERR", 0), 0u) << unknown;
  EXPECT_NE(unknown.find("system"), std::string::npos) << unknown;
}

TEST_F(CommandServerTest, StatsPreprocessSectionAppearsAfterQueries) {
  // The default CH backend builds lazily; a search forces distance queries,
  // after which the preprocess section reports the per-metric builds.
  server_.Execute("CREATE " + At(0.1, 0.1) + " " + At(0.9, 0.9) + " 28800");
  server_.Execute("SEARCH 3 " + At(0.35, 0.35) + " " + At(0.7, 0.7) +
                  " 28800 30600");
  std::string stats = server_.Execute("STATS preprocess");
  EXPECT_EQ(stats.rfind("OK STATS", 0), 0u);
  EXPECT_NE(stats.find("preprocess metric=drive_m build_ms="),
            std::string::npos)
      << stats;
  EXPECT_NE(stats.find("threads="), std::string::npos) << stats;
  // Each row says how its hierarchy was obtained; with no refresh yet,
  // every one was built here — and the oracle section names that too.
  EXPECT_NE(stats.find(" source=built"), std::string::npos) << stats;
  std::string oracle = server_.Execute("STATS oracle");
  EXPECT_NE(oracle.find(" drive_m=built"), std::string::npos) << oracle;
  EXPECT_EQ(oracle.find("inherited"), std::string::npos) << oracle;
}

TEST_F(CommandServerTest, BookAgainstPreRefreshSearchIsStale) {
  server_.Execute("CREATE " + At(0.1, 0.1) + " " + At(0.9, 0.9) + " 28800");
  std::string found = server_.Execute("SEARCH 7 " + At(0.35, 0.35) + " " +
                                      At(0.7, 0.7) + " 28800 30600");
  ASSERT_EQ(found.rfind("OK MATCHES ", 0), 0u) << found;

  ASSERT_EQ(server_.Execute("REFRESH").rfind("OK REFRESH", 0), 0u);

  // The pending search predates the refresh: its match ids belong to the
  // old epoch, so the book must fail as stale...
  std::string stale = server_.Execute("BOOK 7 0");
  EXPECT_EQ(stale.rfind("ERR", 0), 0u) << stale;
  EXPECT_NE(stale.find("stale"), std::string::npos) << stale;

  // ...and a re-search against the new epoch books fine.
  ASSERT_EQ(server_
                .Execute("SEARCH 7 " + At(0.35, 0.35) + " " + At(0.7, 0.7) +
                         " 28800 30600")
                .rfind("OK MATCHES ", 0),
            0u);
  EXPECT_EQ(server_.Execute("BOOK 7 0").rfind("OK BOOKED ride=0", 0), 0u);
}

TEST_F(CommandServerTest, MalformedInputsAreErrors) {
  EXPECT_EQ(server_.Execute("").rfind("ERR", 0), 0u);
  EXPECT_EQ(server_.Execute("NONSENSE 1 2").rfind("ERR", 0), 0u);
  EXPECT_EQ(server_.Execute("CREATE 1 2 3").rfind("ERR", 0), 0u);
  EXPECT_EQ(server_.Execute("CREATE a b c d e").rfind("ERR", 0), 0u);
  EXPECT_EQ(server_.Execute("SEARCH x 1 2 3 4 5 6").rfind("ERR", 0), 0u);
  EXPECT_EQ(server_.Execute("RIDE 12345").rfind("ERR", 0), 0u);
  EXPECT_EQ(server_.Execute("ADVANCE soon").rfind("ERR", 0), 0u);
  EXPECT_EQ(server_.Execute("HELP").rfind("OK COMMANDS", 0), 0u);
}

// --- Network server lifecycle (ISSUE 7 satellite 4) ------------------------
// The shutdown contract of the socket front end, pinned here next to the
// line-oriented server it wraps: SO_REUSEADDR + joined handlers + idempotent
// Stop mean back-to-back server instances can run on a reused port.

class ServerLifecycleTest : public ::testing::Test {
 protected:
  ServerLifecycleTest()
      : city_(SharedCity()),
        system_(city_.graph, *city_.spatial, *city_.region, *city_.oracle,
                XarOptions{}, /*num_shards=*/2) {}

  /// One full round trip against a running server: proves it is actually
  /// serving, not just bound.
  void ExpectServes(serve::XarServeServer& server) {
    serve::ServeClient client;
    ASSERT_TRUE(client.Connect(server.port()).ok());
    xar::Result<std::string> stats = client.Stats("serve");
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_NE(stats->find("accepted="), std::string::npos);
  }

  TestCity& city_;
  ConcurrentXarSystem system_;
};

TEST_F(ServerLifecycleTest, BackToBackInstancesReuseThePort) {
  std::uint16_t port = 0;
  {
    serve::XarServeServer first(system_);
    ASSERT_TRUE(first.Start().ok());
    port = first.port();
    ExpectServes(first);
    first.Stop();
    EXPECT_FALSE(first.running());
  }
  // A fresh instance binds the same port immediately: the previous
  // instance's sockets are in TIME_WAIT, which SO_REUSEADDR must bypass.
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    serve::ServeOptions options;
    options.port = port;
    serve::XarServeServer next(system_, options);
    ASSERT_TRUE(next.Start().ok());
    EXPECT_EQ(next.port(), port);
    ExpectServes(next);
    next.Stop();
  }
}

TEST_F(ServerLifecycleTest, StopIsIdempotentAndRestartable) {
  serve::XarServeServer server(system_);

  server.Stop();  // before Start: a no-op
  EXPECT_FALSE(server.running());

  ASSERT_TRUE(server.Start().ok());
  const std::uint16_t port = server.port();
  EXPECT_FALSE(server.Start().ok()) << "double Start must be refused";
  ExpectServes(server);

  server.Stop();
  server.Stop();  // twice: still a no-op
  EXPECT_FALSE(server.running());

  // The same object restarts on the same port.
  serve::ServeOptions again;
  again.port = port;
  serve::XarServeServer reuse(system_, again);
  ASSERT_TRUE(reuse.Start().ok());
  ExpectServes(reuse);
  reuse.Stop();
}

TEST_F(ServerLifecycleTest, StopWithConnectedClientsJoinsCleanly) {
  serve::XarServeServer server(system_);
  ASSERT_TRUE(server.Start().ok());

  // Clients left connected (one mid-frame) must not wedge or crash Stop.
  serve::ServeClient idle;
  ASSERT_TRUE(idle.Connect(server.port()).ok());
  serve::ServeClient mid_frame;
  ASSERT_TRUE(mid_frame.Connect(server.port()).ok());
  const std::uint8_t partial[6] = {40, 0, 0, 0, 1, 2};  // header + 2 of 40
  ASSERT_TRUE(mid_frame.SendBytes(partial, sizeof(partial)).ok());

  server.Stop();
  EXPECT_FALSE(server.running());
  // Both clients observe the close promptly — EOF or a TCP reset (the
  // kernel sends RST when a socket with unread data is closed), never a
  // timeout, which would mean the server left the connection dangling.
  for (serve::ServeClient* client : {&idle, &mid_frame}) {
    StatusCode code = client->ReadFrame(1000).status().code();
    EXPECT_TRUE(code == StatusCode::kNotFound || code == StatusCode::kInternal)
        << "code " << static_cast<int>(code);
    EXPECT_NE(code, StatusCode::kResourceExhausted) << "read timed out";
  }
}

}  // namespace
}  // namespace xar
