#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "common/rng.h"
#include "match/cluster_ride_list.h"

namespace xar {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ClusterRideListTest, InsertListsTheEntryAtItsKey) {
  ClusterRideList list;
  list.Insert(RideId(5), 100.0, 50.0);
  EXPECT_EQ(list.size(), 1u);
  std::span<const PotentialRide> at_key = list.EtaRange(100.0, 100.0);
  ASSERT_EQ(at_key.size(), 1u);
  EXPECT_EQ(at_key[0].ride, RideId(5));
  EXPECT_DOUBLE_EQ(at_key[0].eta_s, 100.0);
  EXPECT_DOUBLE_EQ(at_key[0].detour_m, 50.0);
}

TEST(ClusterRideListTest, EraseThenInsertReKeysAnEntry) {
  ClusterRideList list;
  list.Insert(RideId(5), 100.0, 0.0);
  ASSERT_TRUE(list.Erase(RideId(5), 100.0));
  list.Insert(RideId(5), 300.0, 70.0);
  EXPECT_EQ(list.size(), 1u);
  // The old key is gone; the entry sits at the new one.
  EXPECT_TRUE(list.EtaRange(50, 150).empty());
  ASSERT_EQ(list.EtaRange(250, 350).size(), 1u);
  EXPECT_DOUBLE_EQ(list.EtaRange(250, 350)[0].detour_m, 70.0);
}

TEST(ClusterRideListTest, EraseReportsPresenceAtTheKey) {
  ClusterRideList list;
  list.Insert(RideId(1), 10.0, 0.0);
  list.Insert(RideId(2), 10.0, 0.0);
  // The right ride at the wrong ETA, and the right ETA for a ride not
  // listed, both miss.
  EXPECT_FALSE(list.Erase(RideId(1), 11.0));
  EXPECT_FALSE(list.Erase(RideId(3), 10.0));
  EXPECT_EQ(list.size(), 2u);
  EXPECT_TRUE(list.Erase(RideId(1), 10.0));
  EXPECT_FALSE(list.Erase(RideId(1), 10.0));
  EXPECT_TRUE(list.Erase(RideId(2), 10.0));
  EXPECT_TRUE(list.empty());
}

TEST(ClusterRideListTest, EtaRangeBoundsInclusive) {
  ClusterRideList list;
  list.Insert(RideId(1), 10.0, 0.0);
  list.Insert(RideId(2), 20.0, 0.0);
  list.Insert(RideId(3), 30.0, 0.0);
  EXPECT_EQ(list.EtaRange(10.0, 30.0).size(), 3u);
  EXPECT_EQ(list.EtaRange(10.1, 29.9).size(), 1u);
  EXPECT_EQ(list.EtaRange(31.0, 99.0).size(), 0u);
  EXPECT_EQ(list.EtaRange(0.0, 9.0).size(), 0u);
}

TEST(ClusterRideListTest, EtaRangeOnEmptyList) {
  ClusterRideList list;
  EXPECT_TRUE(list.EtaRange(0, 100).empty());
}

TEST(ClusterRideListTest, DuplicateEtasAllReturned) {
  ClusterRideList list;
  for (std::uint32_t i = 0; i < 5; ++i) list.Insert(RideId(i), 42.0, 0.0);
  EXPECT_EQ(list.EtaRange(42.0, 42.0).size(), 5u);
}

bool KeyLess(const PotentialRide& a, const PotentialRide& b) {
  return a.eta_s != b.eta_s ? a.eta_s < b.eta_s : a.ride < b.ride;
}

bool SameEntry(const PotentialRide& a, const PotentialRide& b) {
  return a.ride == b.ride && a.eta_s == b.eta_s && a.detour_m == b.detour_m;
}

/// Property: after a random interleaving of inserts and key erases — some
/// with the right ride at a wrong ETA — the list equals an (eta, ride)
/// sorted reference model entry by entry, and every ETA probe matches a
/// brute force scan.
class ClusterRideListPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClusterRideListPropertyTest, MatchesReferenceModel) {
  Rng rng(GetParam());
  ClusterRideList list;
  std::vector<PotentialRide> model;  // sorted by (eta, ride)

  auto same_as_model = [&] {
    std::span<const PotentialRide> got = list.EtaRange(-kInf, kInf);
    return got.size() == model.size() &&
           std::equal(got.begin(), got.end(), model.begin(), SameEntry);
  };

  for (int op = 0; op < 2000; ++op) {
    RideId ride(static_cast<RideId::underlying_type>(rng.NextIndex(200)));
    // ETAs on a coarse grid so that distinct rides often share one.
    const double eta = static_cast<double>(rng.NextIndex(400)) * 60.0;
    auto listed = std::find_if(model.begin(), model.end(),
                               [&](const PotentialRide& pr) {
                                 return pr.ride == ride;
                               });
    if (listed == model.end()) {
      if (rng.Bernoulli(0.7)) {
        PotentialRide entry{ride, eta, rng.Uniform(0, 4000)};
        list.Insert(ride, entry.eta_s, entry.detour_m);
        model.insert(
            std::upper_bound(model.begin(), model.end(), entry, KeyLess),
            entry);
      } else {
        EXPECT_FALSE(list.Erase(ride, eta));
      }
    } else if (rng.Bernoulli(0.5)) {
      EXPECT_TRUE(list.Erase(ride, listed->eta_s));
      model.erase(listed);
    } else if (eta != listed->eta_s) {
      // The right ride at the wrong ETA: no entry is touched.
      EXPECT_FALSE(list.Erase(ride, eta));
      EXPECT_TRUE(same_as_model());
    }
  }

  EXPECT_EQ(list.size(), model.size());
  EXPECT_TRUE(same_as_model());
  // Random ETA probes match brute force ranges of the model.
  for (int probe = 0; probe < 50; ++probe) {
    double lo = rng.Uniform(0, 24000);
    double hi = lo + rng.Uniform(0, 7200);
    auto first = std::find_if(model.begin(), model.end(),
                              [&](const PotentialRide& pr) {
                                return pr.eta_s >= lo;
                              });
    auto last = std::find_if(first, model.end(), [&](const PotentialRide& pr) {
      return pr.eta_s > hi;
    });
    std::span<const PotentialRide> got = list.EtaRange(lo, hi);
    ASSERT_EQ(got.size(), static_cast<std::size_t>(last - first));
    EXPECT_TRUE(std::equal(got.begin(), got.end(), first, SameEntry));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterRideListPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(ClusterRideListTest, MemoryFootprintGrows) {
  ClusterRideList list;
  std::size_t empty = list.MemoryFootprint();
  for (std::uint32_t i = 0; i < 100; ++i) list.Insert(RideId(i), i, 0.0);
  EXPECT_GT(list.MemoryFootprint(), empty);
}

}  // namespace
}  // namespace xar
