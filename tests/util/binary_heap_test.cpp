#include "util/binary_heap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "util/rng.h"

namespace pfair {
namespace {

using IntHeap = BinaryHeap<int, std::less<int>>;

TEST(BinaryHeap, PopsInSortedOrder) {
  IntHeap h;
  for (const int x : {5, 3, 8, 1, 9, 2, 7}) h.push(x);
  std::vector<int> out;
  while (!h.empty()) out.push_back(h.pop());
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  EXPECT_EQ(out.size(), 7u);
}

TEST(BinaryHeap, HandlesAreStableAcrossOtherOperations) {
  IntHeap h;
  const HeapHandle h5 = h.push(5);
  h.push(1);
  h.push(9);
  EXPECT_EQ(h.get(h5), 5);
  EXPECT_EQ(h.pop(), 1);  // removes a different element
  EXPECT_TRUE(h.contains(h5));
  EXPECT_EQ(h.get(h5), 5);
}

TEST(BinaryHeap, EraseRemovesExactlyThatElement) {
  IntHeap h;
  h.push(4);
  const HeapHandle mid = h.push(6);
  h.push(8);
  h.erase(mid);
  EXPECT_EQ(h.size(), 2u);
  EXPECT_EQ(h.pop(), 4);
  EXPECT_EQ(h.pop(), 8);
}

TEST(BinaryHeap, UpdateAfterKeyChangeRestoresOrder) {
  IntHeap h;
  const HeapHandle a = h.push(10);
  h.push(5);
  h.push(7);
  h.get_mutable(a) = 1;  // decrease key
  h.update(a);
  EXPECT_EQ(h.top(), 1);
  h.get_mutable(a) = 100;  // increase key
  h.update(a);
  EXPECT_EQ(h.pop(), 5);
  EXPECT_EQ(h.pop(), 7);
  EXPECT_EQ(h.pop(), 100);
}

TEST(BinaryHeap, HandleReuseAfterPop) {
  IntHeap h;
  const HeapHandle a = h.push(1);
  EXPECT_EQ(h.pop(), 1);
  EXPECT_FALSE(h.contains(a));
  const HeapHandle b = h.push(2);
  EXPECT_TRUE(h.contains(b));
  EXPECT_EQ(h.get(b), 2);
}

TEST(BinaryHeap, RandomisedAgainstMultiset) {
  Rng rng(71);
  IntHeap h;
  std::vector<std::pair<HeapHandle, int>> live;
  std::size_t pops = 0;
  for (int step = 0; step < 20000; ++step) {
    const std::int64_t action = rng.uniform_int(0, 99);
    if (action < 50 || live.empty()) {
      const int v = static_cast<int>(rng.uniform_int(0, 1000));
      live.emplace_back(h.push(v), v);
    } else if (action < 75) {
      // pop: must return the minimum of the live multiset
      int expect = live.front().second;
      for (const auto& [hd, v] : live) expect = std::min(expect, v);
      const int got = h.pop();
      EXPECT_EQ(got, expect);
      // remove one matching entry from the mirror
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (live[i].second == got && !h.contains(live[i].first)) {
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
      ++pops;
    } else if (action < 90) {
      const std::size_t i =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      h.erase(live[i].first);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      const std::size_t i =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const int nv = static_cast<int>(rng.uniform_int(0, 1000));
      h.get_mutable(live[i].first) = nv;
      h.update(live[i].first);
      live[i].second = nv;
    }
    if (step % 500 == 0) {
      ASSERT_TRUE(h.validate());
    }
  }
  EXPECT_EQ(h.size(), live.size());
  EXPECT_GT(pops, 100u);
}

TEST(BinaryHeap, ClearEmptiesEverything) {
  IntHeap h;
  for (int i = 0; i < 10; ++i) h.push(i);
  h.clear();
  EXPECT_TRUE(h.empty());
  const HeapHandle a = h.push(42);
  EXPECT_EQ(h.get(a), 42);
}

}  // namespace
}  // namespace pfair
