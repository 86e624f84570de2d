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
  list.Insert(RideId(5), 100.0);
  EXPECT_EQ(list.size(), 1u);
  std::span<const PotentialRide> at_key = list.EtaRange(100.0, 100.0);
  ASSERT_EQ(at_key.size(), 1u);
  EXPECT_EQ(at_key[0].ride, RideId(5));
  EXPECT_DOUBLE_EQ(at_key[0].eta_s, 100.0);
}

TEST(ClusterRideListTest, MoveReKeysAnEntry) {
  ClusterRideList list;
  list.Insert(RideId(4), 200.0);
  list.Insert(RideId(5), 100.0);
  list.Insert(RideId(6), 400.0);
  // The right ride at the wrong ETA, or a ride not listed, is not moved.
  EXPECT_FALSE(list.Move(RideId(5), 101.0, 300.0));
  EXPECT_FALSE(list.Move(RideId(7), 100.0, 300.0));
  ASSERT_TRUE(list.Move(RideId(5), 100.0, 300.0));
  EXPECT_EQ(list.size(), 3u);
  // The old key is gone; the entry sits at the new one, between the others.
  EXPECT_TRUE(list.EtaRange(50, 150).empty());
  std::span<const PotentialRide> all = list.EtaRange(0, 1000);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].ride, RideId(4));
  EXPECT_EQ(all[1].ride, RideId(5));
  EXPECT_DOUBLE_EQ(all[1].eta_s, 300.0);
  EXPECT_EQ(all[2].ride, RideId(6));
  EXPECT_FALSE(list.Move(RideId(5), 100.0, 300.0));
}

TEST(ClusterRideListTest, EraseReportsPresenceAtTheKey) {
  ClusterRideList list;
  list.Insert(RideId(1), 10.0);
  list.Insert(RideId(2), 10.0);
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
  list.Insert(RideId(1), 10.0);
  list.Insert(RideId(2), 20.0);
  list.Insert(RideId(3), 30.0);
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
  for (std::uint32_t i = 0; i < 5; ++i) list.Insert(RideId(i), 42.0);
  EXPECT_EQ(list.EtaRange(42.0, 42.0).size(), 5u);
}

bool KeyLess(const PotentialRide& a, const PotentialRide& b) {
  return a.eta_s != b.eta_s ? a.eta_s < b.eta_s : a.ride < b.ride;
}

bool SameEntry(const PotentialRide& a, const PotentialRide& b) {
  return a.ride == b.ride && a.eta_s == b.eta_s;
}

/// An ETA for `ride`'s move in a list sorted like `model`: to the left or
/// the right of its entry, onto a neighbour's ETA (where the ride ids break
/// the tie), to either end of the list, or onto its own key.
double MoveTarget(Rng& rng, const std::vector<PotentialRide>& model,
                  std::size_t at) {
  const double eta = model[at].eta_s;
  switch (rng.NextIndex(6)) {
    case 0:
      return eta - static_cast<double>(1 + rng.NextIndex(5)) * 60.0;
    case 1:
      return eta + static_cast<double>(1 + rng.NextIndex(5)) * 60.0;
    case 2:
      return model[at > 0 ? at - 1 : at].eta_s;
    case 3:
      return model[at + 1 < model.size() ? at + 1 : at].eta_s;
    case 4:
      return rng.Bernoulli(0.5) ? model.front().eta_s - 60.0
                                : model.back().eta_s + 60.0;
    default:
      return eta;
  }
}

/// Property: after a random interleaving of inserts, key erases and moves —
/// some with the right ride at a wrong ETA — the list equals an (eta, ride)
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
        PotentialRide entry{ride, eta};
        list.Insert(ride, entry.eta_s);
        model.insert(
            std::upper_bound(model.begin(), model.end(), entry, KeyLess),
            entry);
      } else if (rng.Bernoulli(0.5)) {
        EXPECT_FALSE(list.Erase(ride, eta));
      } else {
        EXPECT_FALSE(list.Move(ride, eta, eta + 60.0));
      }
    } else if (rng.Bernoulli(0.3)) {
      EXPECT_TRUE(list.Erase(ride, listed->eta_s));
      model.erase(listed);
    } else if (rng.Bernoulli(0.7)) {
      // Move, checked after every one against erase-then-insert in the
      // model.
      PotentialRide entry{
          ride, MoveTarget(rng, model,
                           static_cast<std::size_t>(listed - model.begin()))};
      EXPECT_TRUE(list.Move(ride, listed->eta_s, entry.eta_s));
      model.erase(listed);
      model.insert(
          std::upper_bound(model.begin(), model.end(), entry, KeyLess), entry);
      EXPECT_TRUE(same_as_model());
    } else if (eta != listed->eta_s) {
      // The right ride at the wrong ETA: no entry is touched.
      if (rng.Bernoulli(0.5)) {
        EXPECT_FALSE(list.Erase(ride, eta));
      } else {
        EXPECT_FALSE(list.Move(ride, eta, listed->eta_s + 60.0));
      }
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
  for (std::uint32_t i = 0; i < 100; ++i) list.Insert(RideId(i), i);
  EXPECT_GT(list.MemoryFootprint(), empty);
}

}  // namespace
}  // namespace xar
