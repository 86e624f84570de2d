#include "schedule/kinetic_tree.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "tests/test_helpers.h"

namespace xar {
namespace {

using testing::SharedCity;
using testing::TestCity;

constexpr double kInf = std::numeric_limits<double>::infinity();

class KineticTreeTest : public ::testing::Test {
 protected:
  KineticTreeTest() : city_(SharedCity()) {}

  NodeId RandomNode(Rng& rng) const {
    return NodeId(static_cast<NodeId::underlying_type>(
        rng.NextIndex(city_.graph.NumNodes())));
  }

  /// A rider with generous deadlines (pickup within `slack_s` of the
  /// vehicle's start, drop-off within twice that).
  std::pair<ScheduleStop, ScheduleStop> MakeRider(RequestId id, NodeId a,
                                                  NodeId b, double t0,
                                                  double slack_s = 3600) {
    ScheduleStop pickup{a, id, true, t0 + slack_s};
    ScheduleStop dropoff{b, id, false, t0 + 2 * slack_s};
    return {pickup, dropoff};
  }

  TestCity& city_;
};

TEST_F(KineticTreeTest, SingleRiderSchedule) {
  Rng rng(1);
  NodeId origin = RandomNode(rng);
  KineticTree tree(origin, 1000, 3, *city_.oracle);
  EXPECT_TRUE(tree.empty());

  auto [pickup, dropoff] =
      MakeRider(RequestId(1), RandomNode(rng), RandomNode(rng), 1000);
  ASSERT_TRUE(tree.Insert(pickup, dropoff));
  EXPECT_EQ(tree.NumPendingStops(), 2u);

  Schedule s = tree.BestSchedule();
  ASSERT_EQ(s.stops.size(), 2u);
  EXPECT_TRUE(s.stops[0].is_pickup);
  EXPECT_FALSE(s.stops[1].is_pickup);
  double expect = 1000 +
                  city_.oracle->DriveTime(origin, pickup.node) +
                  city_.oracle->DriveTime(pickup.node, dropoff.node);
  EXPECT_NEAR(s.completion_time_s, expect, 1e-6);
}

TEST_F(KineticTreeTest, ImpossibleDeadlineRejected) {
  Rng rng(2);
  NodeId origin = RandomNode(rng);
  KineticTree tree(origin, 1000, 3, *city_.oracle);
  ScheduleStop pickup{RandomNode(rng), RequestId(1), true, 1000.5};  // 0.5 s
  ScheduleStop dropoff{RandomNode(rng), RequestId(1), false, 5000};
  EXPECT_EQ(tree.TryInsert(pickup, dropoff), kInf);
  EXPECT_FALSE(tree.Insert(pickup, dropoff));
  EXPECT_TRUE(tree.empty());  // unchanged
}

TEST_F(KineticTreeTest, CapacityOneForcesSequentialService) {
  Rng rng(3);
  NodeId origin = RandomNode(rng);
  KineticTree tree(origin, 0, /*capacity=*/1, *city_.oracle);
  auto r1 = MakeRider(RequestId(1), RandomNode(rng), RandomNode(rng), 0,
                      36000);
  auto r2 = MakeRider(RequestId(2), RandomNode(rng), RandomNode(rng), 0,
                      36000);
  ASSERT_TRUE(tree.Insert(r1.first, r1.second));
  ASSERT_TRUE(tree.Insert(r2.first, r2.second));
  // Every retained ordering must drop a rider before picking the other.
  Schedule s = tree.BestSchedule();
  ASSERT_EQ(s.stops.size(), 4u);
  int onboard = 0;
  for (const ScheduleStop& stop : s.stops) {
    onboard += stop.is_pickup ? 1 : -1;
    EXPECT_GE(onboard, 0);
    EXPECT_LE(onboard, 1);
  }
}

TEST_F(KineticTreeTest, PickupAlwaysPrecedesDropoff) {
  Rng rng(4);
  KineticTree tree(RandomNode(rng), 0, 3, *city_.oracle);
  for (std::uint32_t r = 1; r <= 3; ++r) {
    auto rider = MakeRider(RequestId(r), RandomNode(rng), RandomNode(rng), 0,
                           36000);
    ASSERT_TRUE(tree.Insert(rider.first, rider.second));
  }
  Schedule s = tree.BestSchedule();
  ASSERT_EQ(s.stops.size(), 6u);
  std::vector<bool> picked(4, false);
  for (const ScheduleStop& stop : s.stops) {
    if (stop.is_pickup) {
      picked[stop.request.value()] = true;
    } else {
      EXPECT_TRUE(picked[stop.request.value()]);
    }
  }
}

TEST_F(KineticTreeTest, TryInsertMatchesInsert) {
  Rng rng(5);
  KineticTree tree(RandomNode(rng), 0, 3, *city_.oracle);
  auto r1 = MakeRider(RequestId(1), RandomNode(rng), RandomNode(rng), 0);
  ASSERT_TRUE(tree.Insert(r1.first, r1.second));
  auto r2 = MakeRider(RequestId(2), RandomNode(rng), RandomNode(rng), 0);
  double promised = tree.TryInsert(r2.first, r2.second);
  ASSERT_LT(promised, kInf);
  ASSERT_TRUE(tree.Insert(r2.first, r2.second));
  EXPECT_NEAR(tree.BestSchedule().completion_time_s, promised, 1e-9);
}

TEST_F(KineticTreeTest, AdvanceConsumesStopsInOrder) {
  Rng rng(6);
  NodeId origin = RandomNode(rng);
  KineticTree tree(origin, 0, 3, *city_.oracle);
  auto r1 = MakeRider(RequestId(1), RandomNode(rng), RandomNode(rng), 0);
  auto r2 = MakeRider(RequestId(2), RandomNode(rng), RandomNode(rng), 0);
  ASSERT_TRUE(tree.Insert(r1.first, r1.second));
  ASSERT_TRUE(tree.Insert(r2.first, r2.second));

  Schedule planned = tree.BestSchedule();
  std::vector<ScheduleStop> served;
  double prev_time = 0;
  while (!tree.empty()) {
    ScheduleStop stop = tree.AdvanceToNextStop();
    served.push_back(stop);
    EXPECT_GE(tree.time(), prev_time);
    prev_time = tree.time();
    EXPECT_EQ(tree.position(), stop.node);
  }
  ASSERT_EQ(served.size(), 4u);
  // Advancing greedily follows the planned best schedule.
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i], planned.stops[i]);
  }
  EXPECT_NEAR(prev_time, planned.completion_time_s, 1e-9);
}

/// Property: the kinetic tree's best schedule equals the brute-force
/// optimum over all valid permutations, across random instances.
class KineticTreeOptimalityTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KineticTreeOptimalityTest, MatchesBruteForce) {
  TestCity& city = SharedCity();
  Rng rng(GetParam());
  auto random_node = [&] {
    return NodeId(static_cast<NodeId::underlying_type>(
        rng.NextIndex(city.graph.NumNodes())));
  };

  NodeId origin = random_node();
  double t0 = 8 * 3600;
  int capacity = 2 + static_cast<int>(rng.NextIndex(2));
  std::vector<std::pair<ScheduleStop, ScheduleStop>> riders;
  KineticTree tree(origin, t0, capacity, *city.oracle);
  for (std::uint32_t r = 0; r < 3; ++r) {
    // Mixed deadlines: some tight (may prune orderings), some loose.
    double pickup_slack = rng.Uniform(600, 2400);
    double dropoff_slack = pickup_slack + rng.Uniform(600, 2400);
    ScheduleStop pickup{random_node(), RequestId(r), true, t0 + pickup_slack};
    ScheduleStop dropoff{random_node(), RequestId(r), false,
                         t0 + dropoff_slack};
    riders.emplace_back(pickup, dropoff);
    bool inserted = tree.Insert(pickup, dropoff);
    if (!inserted) {
      // Tree insertion is exact: brute force over the inserted set plus
      // this rider must also be infeasible.
      std::vector<std::pair<ScheduleStop, ScheduleStop>> attempt = riders;
      Schedule brute = BruteForceBestSchedule(origin, t0, capacity,
                                              *city.oracle, attempt);
      EXPECT_EQ(brute.completion_time_s, kInf);
      riders.pop_back();
    }
  }
  ASSERT_FALSE(riders.empty()) << "all riders infeasible for this seed";

  Schedule tree_best = tree.BestSchedule();
  Schedule brute = BruteForceBestSchedule(origin, t0, capacity, *city.oracle,
                                          riders);
  ASSERT_LT(brute.completion_time_s, kInf);
  EXPECT_NEAR(tree_best.completion_time_s, brute.completion_time_s, 1e-6);
  EXPECT_EQ(tree_best.stops.size(), riders.size() * 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KineticTreeOptimalityTest,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18));

TEST_F(KineticTreeTest, NumSchedulesGrowsWithRiders) {
  Rng rng(7);
  KineticTree tree(RandomNode(rng), 0, 4, *city_.oracle);
  auto r1 = MakeRider(RequestId(1), RandomNode(rng), RandomNode(rng), 0,
                      72000);
  ASSERT_TRUE(tree.Insert(r1.first, r1.second));
  std::size_t one = tree.NumSchedules();
  auto r2 = MakeRider(RequestId(2), RandomNode(rng), RandomNode(rng), 0,
                      72000);
  ASSERT_TRUE(tree.Insert(r2.first, r2.second));
  EXPECT_GT(tree.NumSchedules(), one);
  // With fully loose deadlines and capacity 4, all valid interleavings of
  // two pickup/drop-off pairs survive: 6 orderings.
  EXPECT_EQ(tree.NumSchedules(), 6u);
}

}  // namespace
}  // namespace xar
