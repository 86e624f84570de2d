// Concurrent searches on a sharded ConcurrentXarSystem: test-side threads
// calling SearchTopK on a quiescent system get exactly what one thread's
// serial run gets, run after run, and a 4-shard system searches as a 1-shard
// one over the same rides.

#include <gtest/gtest.h>

#include <cstddef>
#include <thread>
#include <vector>

#include "tests/test_helpers.h"
#include "workload/trip_generator.h"
#include "xar/concurrent_xar.h"

namespace xar {
namespace {

using testing::SharedCity;
using testing::TestCity;

class ConcurrentSearchTest : public ::testing::Test {
 protected:
  ConcurrentSearchTest()
      : city_(SharedCity()),
        oracle_(city_.graph),
        xar_(city_.graph, *city_.spatial, *city_.region, oracle_, {},
             /*num_shards=*/4) {
    WorkloadOptions opt;
    opt.num_trips = 250;
    opt.seed = 41;
    for (const TaxiTrip& t : GenerateTrips(city_.graph.bounds(), opt)) {
      RideOffer offer;
      offer.source = t.pickup;
      offer.destination = t.dropoff;
      offer.departure_time_s = t.pickup_time_s;
      (void)xar_.CreateRide(offer);
    }
  }

  std::vector<RideRequest> Requests(std::size_t n, std::uint64_t seed) const {
    WorkloadOptions opt;
    opt.num_trips = n;
    opt.seed = seed;
    std::vector<RideRequest> requests;
    for (const TaxiTrip& t : GenerateTrips(city_.graph.bounds(), opt)) {
      RideRequest req;
      req.id = t.id;
      req.source = t.pickup;
      req.destination = t.dropoff;
      req.earliest_departure_s = t.pickup_time_s;
      req.latest_departure_s = t.pickup_time_s + 900;
      requests.push_back(req);
    }
    return requests;
  }

  /// SearchTopK(requests[i], k) for every i, fanned across kThreads test
  /// threads (thread t takes i = t, t + kThreads, ...); results in input
  /// order.
  std::vector<std::vector<RideMatch>> ThreadedSearches(
      const std::vector<RideRequest>& requests, std::size_t k) const {
    constexpr std::size_t kThreads = 4;
    std::vector<std::vector<RideMatch>> results(requests.size());
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t i = t; i < requests.size(); i += kThreads) {
          results[i] = xar_.SearchTopK(requests[i], k);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    return results;
  }

  TestCity& city_;
  GraphOracle oracle_;
  ConcurrentXarSystem xar_;
};

void ExpectSameMatches(const std::vector<RideMatch>& a,
                       const std::vector<RideMatch>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ride, b[i].ride);
    EXPECT_DOUBLE_EQ(a[i].walk_source_m, b[i].walk_source_m);
    EXPECT_DOUBLE_EQ(a[i].walk_dest_m, b[i].walk_dest_m);
    EXPECT_DOUBLE_EQ(a[i].eta_source_s, b[i].eta_source_s);
    EXPECT_DOUBLE_EQ(a[i].eta_dest_s, b[i].eta_dest_s);
    EXPECT_DOUBLE_EQ(a[i].detour_estimate_m, b[i].detour_estimate_m);
    EXPECT_EQ(a[i].source_cluster, b[i].source_cluster);
    EXPECT_EQ(a[i].dest_cluster, b[i].dest_cluster);
    EXPECT_EQ(a[i].pickup_landmark, b[i].pickup_landmark);
    EXPECT_EQ(a[i].dropoff_landmark, b[i].dropoff_landmark);
  }
}

TEST_F(ConcurrentSearchTest, ThreadedSearchesIdenticalToSerialSearches) {
  std::vector<RideRequest> requests = Requests(120, 50);

  std::vector<std::vector<RideMatch>> serial;
  serial.reserve(requests.size());
  for (const RideRequest& req : requests) serial.push_back(xar_.Search(req));

  std::vector<std::vector<RideMatch>> batch =
      ThreadedSearches(requests, xar_.options().max_results);
  ASSERT_EQ(batch.size(), serial.size());
  std::size_t nonempty = 0;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ExpectSameMatches(serial[i], batch[i]);
    nonempty += serial[i].empty() ? 0 : 1;
  }
  // The workload must actually exercise matching, or the test is vacuous.
  EXPECT_GT(nonempty, 0u);
}

TEST_F(ConcurrentSearchTest, RepeatedThreadedSearchesAreDeterministic) {
  std::vector<RideRequest> requests = Requests(80, 51);
  std::vector<std::vector<RideMatch>> first = ThreadedSearches(requests, 0);
  std::vector<std::vector<RideMatch>> second = ThreadedSearches(requests, 0);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    ExpectSameMatches(first[i], second[i]);
  }
}

TEST_F(ConcurrentSearchTest, TopKOverrideTruncatesEachResult) {
  std::vector<RideRequest> requests = Requests(80, 52);
  constexpr std::size_t kK = 2;
  std::vector<std::vector<RideMatch>> batch = ThreadedSearches(requests, kK);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_LE(batch[i].size(), kK);
    ExpectSameMatches(xar_.SearchTopK(requests[i], kK), batch[i]);
  }
}

TEST_F(ConcurrentSearchTest, ShardedSearchMatchesSingleShardSystem) {
  // The same supply loaded into a 1-shard system (id sequence identical to
  // the round-robin 4-shard one) must yield identical search results.
  GraphOracle oracle(city_.graph);
  ConcurrentXarSystem single(city_.graph, *city_.spatial, *city_.region,
                             oracle, {}, /*num_shards=*/1);
  WorkloadOptions opt;
  opt.num_trips = 250;
  opt.seed = 41;
  for (const TaxiTrip& t : GenerateTrips(city_.graph.bounds(), opt)) {
    RideOffer offer;
    offer.source = t.pickup;
    offer.destination = t.dropoff;
    offer.departure_time_s = t.pickup_time_s;
    (void)single.CreateRide(offer);
  }
  for (const RideRequest& req : Requests(100, 53)) {
    ExpectSameMatches(single.Search(req), xar_.Search(req));
  }
}

}  // namespace
}  // namespace xar
