// core/simd.h: edge cases of the loops the slot kernel runs every
// quantum — the branch-free gather (appending without clearing, none and
// all matching, a nonzero base, reuse without regrowth), empty and
// all-parked lanes (the kNeverEligible sentinel), the int64 extremes,
// and the rank selection against a comparator partial_sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "core/simd.h"
#include "sim/subtask_soa.h"
#include "util/rng.h"

namespace pfair {
namespace {

std::vector<std::uint32_t> as_vector(const simd::IndexVec& v) {
  return {v.begin(), v.end()};
}

TEST(Simd, CollectLeAppendsWithoutClearing) {
  const std::vector<Time> vals = {1, 5, 2};
  simd::IndexVec out = {99};
  simd::collect_le(vals.data(), vals.size(), 2, 0, out);
  const std::vector<std::uint32_t> expect = {99, 0, 2};
  EXPECT_EQ(as_vector(out), expect);
}

TEST(Simd, CollectLeNoneAndAllMatch) {
  const std::vector<Time> vals = {7, 3, 9, 3, 5};
  simd::IndexVec out = {42, 43};
  simd::collect_le(vals.data(), vals.size(), 2, 0, out);
  EXPECT_EQ(as_vector(out), (std::vector<std::uint32_t>{42, 43}));
  simd::collect_le(vals.data(), vals.size(), 9, 0, out);
  EXPECT_EQ(as_vector(out), (std::vector<std::uint32_t>{42, 43, 0, 1, 2, 3, 4}));
}

TEST(Simd, CollectLeAddsTheBaseToEveryIndex) {
  // A shard's gather starts at its first task id: base + i, not i.
  const std::vector<Time> vals = {0, 11, 10, kNeverEligible, -4};
  simd::IndexVec out = {1};
  simd::collect_le(vals.data(), vals.size(), 10, 1000, out);
  EXPECT_EQ(as_vector(out), (std::vector<std::uint32_t>{1, 1000, 1002, 1004}));
  // The last lane matches too: the count advances past it.
  out.clear();
  simd::collect_le(vals.data() + 4, 1, 10, 7, out);
  EXPECT_EQ(as_vector(out), (std::vector<std::uint32_t>{7}));
}

TEST(Simd, CollectLeReusesItsBufferWithoutRegrowing) {
  Rng rng(0x5eed);
  std::vector<Time> vals(200);
  for (Time& v : vals) v = rng.uniform_int(0, 100);
  simd::IndexVec out;
  out.reserve(vals.size());
  const std::uint32_t* data = out.data();
  for (Time bound = -1; bound <= 101; ++bound) {
    out.clear();
    simd::collect_le(vals.data(), vals.size(), bound, 3, out);
    std::vector<std::uint32_t> expect;
    for (std::size_t i = 0; i < vals.size(); ++i) {
      if (vals[i] <= bound) expect.push_back(3 + static_cast<std::uint32_t>(i));
    }
    ASSERT_EQ(as_vector(out), expect) << "bound " << bound;
  }
  EXPECT_EQ(out.data(), data);
}

TEST(Simd, MinValueOfEmptyAndAllParkedIsNeverEligible) {
  EXPECT_EQ(simd::min_value(nullptr, 0), std::numeric_limits<Time>::max());
  const std::vector<Time> parked(13, kNeverEligible);
  EXPECT_EQ(simd::min_value(parked.data(), parked.size()), kNeverEligible);
  simd::IndexVec out;
  simd::collect_le(parked.data(), parked.size(), 1000, 0, out);
  EXPECT_TRUE(out.empty());
}

TEST(Simd, MinValueHandlesExtremes) {
  const std::vector<Time> vals = {std::numeric_limits<Time>::max(),
                                  std::numeric_limits<Time>::min(), 0, 42,
                                  std::numeric_limits<Time>::max()};
  EXPECT_EQ(simd::min_value(vals.data(), vals.size()), std::numeric_limits<Time>::min());
}

// rank_select against std::partial_sort on random distinct keys.  The
// high words come from a tiny range, so most comparisons are decided by
// the low word; a quarter of the keys sit at the top of the uint64
// range, where a signed compare would invert the order.
TEST(Simd, RankSelectMatchesPartialSortOnRandomKeys) {
  Rng rng(0x7a4c);
  for (std::size_t c = 0; c <= simd::kRankBlock + 8; ++c) {
    for (int round = 0; round < 4; ++round) {
      std::vector<std::uint64_t> hi(c);
      std::vector<std::uint64_t> lo(c);
      std::vector<std::uint32_t> ids(c);
      for (std::size_t i = 0; i < c; ++i) {
        const bool top = rng.uniform_int(0, 3) == 0;
        const auto h = static_cast<std::uint64_t>(rng.uniform_int(0, 2));
        hi[i] = top ? std::numeric_limits<std::uint64_t>::max() - h : h;
        // Distinct keys: the low word ends in the candidate's id, as a
        // packed key ends in the task id.
        lo[i] = (static_cast<std::uint64_t>(rng.uniform_int(0, 1)) << 63) |
                (static_cast<std::uint64_t>(rng.uniform_int(0, 5)) << 32) | i;
        ids[i] = static_cast<std::uint32_t>(1000 + 7 * i);
      }
      std::vector<std::size_t> order(c);
      std::iota(order.begin(), order.end(), std::size_t{0});
      for (std::size_t k = 0; k <= c + 1; ++k) {
        const std::size_t kk = std::min(k, c);
        std::vector<std::size_t> ref = order;
        std::partial_sort(ref.begin(), ref.begin() + static_cast<std::ptrdiff_t>(kk), ref.end(),
                          [&](std::size_t a, std::size_t b) {
                            return hi[a] != hi[b] ? hi[a] < hi[b] : lo[a] < lo[b];
                          });
        std::vector<std::uint32_t> expect;
        for (std::size_t i = 0; i < kk; ++i) expect.push_back(ids[ref[i]]);
        simd::IndexVec out = {5, 6, 7};  // replaced, not appended to
        simd::rank_select(hi.data(), lo.data(), ids.data(), c, k, out);
        ASSERT_EQ(as_vector(out), expect) << "c=" << c << " k=" << k << " round " << round;
      }
    }
  }
}

}  // namespace
}  // namespace pfair
