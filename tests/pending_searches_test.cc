// The bounded look-then-book ledger shared by the text and binary servers.
// The server tests drive it end to end with fresh rider ids; these pin the
// FIFO bookkeeping that fresh ids never exercise: a re-SEARCHed or booked
// rider leaves a stale slot behind, and that slot must evict nothing when
// it expires.

#include "serve/pending_searches.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace xar {
namespace {

RideRequest Request(std::uint32_t rider) {
  RideRequest request;
  request.id = RequestId(rider);
  return request;
}

std::vector<RideMatch> OneMatch(std::uint32_t ride) {
  RideMatch match;
  match.ride = RideId(ride);
  return {match};
}

TEST(PendingSearchesTest, EvictsOldestUnbookedSearchPastTheCap) {
  PendingSearches pending;
  for (std::uint32_t rider = 0; rider < kMaxPendingSearches; ++rider) {
    EXPECT_FALSE(pending.Put(Request(rider), OneMatch(rider)));
  }
  EXPECT_EQ(pending.size(), kMaxPendingSearches);
  EXPECT_TRUE(pending.Put(Request(kMaxPendingSearches), {}));
  EXPECT_EQ(pending.size(), kMaxPendingSearches);
  EXPECT_EQ(pending.evicted(), 1u);
  EXPECT_EQ(pending.Find(RequestId(0)), nullptr);
  const PendingSearches::Entry* second = pending.Find(RequestId(1));
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->request.id, RequestId(1));
  ASSERT_EQ(second->matches.size(), 1u);
  EXPECT_EQ(second->matches[0].ride, RideId(1));
}

TEST(PendingSearchesTest, ReSearchedRiderOutlivesItsStaleSlot) {
  PendingSearches pending;
  pending.Put(Request(0), OneMatch(7));
  pending.Put(Request(0), OneMatch(9));
  EXPECT_EQ(pending.size(), 1u);
  ASSERT_NE(pending.Find(RequestId(0)), nullptr);
  EXPECT_EQ(pending.Find(RequestId(0))->matches[0].ride, RideId(9));
  // Rider 0's first slot expires here; its second SEARCH is still within
  // the last kMaxPendingSearches and must stay bookable.
  for (std::uint32_t rider = 1; rider < kMaxPendingSearches; ++rider) {
    EXPECT_FALSE(pending.Put(Request(rider), {}));
  }
  EXPECT_EQ(pending.evicted(), 0u);
  ASSERT_NE(pending.Find(RequestId(0)), nullptr);
  EXPECT_EQ(pending.Find(RequestId(0))->matches[0].ride, RideId(9));
  // One more SEARCH expires the second slot, which does evict.
  EXPECT_TRUE(pending.Put(Request(kMaxPendingSearches), {}));
  EXPECT_EQ(pending.Find(RequestId(0)), nullptr);
  EXPECT_EQ(pending.evicted(), 1u);
}

TEST(PendingSearchesTest, BookedSearchEvictsNothingWhenItsSlotExpires) {
  PendingSearches pending;
  pending.Put(Request(0), OneMatch(3));
  pending.Erase(RequestId(0));
  EXPECT_EQ(pending.Find(RequestId(0)), nullptr);
  EXPECT_EQ(pending.size(), 0u);
  for (std::uint32_t rider = 1; rider <= kMaxPendingSearches; ++rider) {
    EXPECT_FALSE(pending.Put(Request(rider), {}));
  }
  EXPECT_EQ(pending.evicted(), 0u);
  EXPECT_EQ(pending.size(), kMaxPendingSearches);
  ASSERT_NE(pending.Find(RequestId(1)), nullptr);
}

}  // namespace
}  // namespace xar
