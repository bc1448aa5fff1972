// core/simd.h lane sweeps: edge cases of the two loops the slot kernel
// runs every quantum — appending without clearing, empty and all-parked
// lanes (the kNeverEligible sentinel), and the int64 extremes.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "core/simd.h"
#include "sim/subtask_soa.h"

namespace pfair {
namespace {

TEST(Simd, CollectLeAppendsWithoutClearing) {
  const std::vector<Time> vals = {1, 5, 2};
  std::vector<std::uint32_t> out = {99};
  simd::collect_le(vals.data(), vals.size(), 2, 0, out);
  const std::vector<std::uint32_t> expect = {99, 0, 2};
  EXPECT_EQ(out, expect);
}

TEST(Simd, MinValueOfEmptyAndAllParkedIsNeverEligible) {
  EXPECT_EQ(simd::min_value(nullptr, 0), std::numeric_limits<Time>::max());
  const std::vector<Time> parked(13, kNeverEligible);
  EXPECT_EQ(simd::min_value(parked.data(), parked.size()), kNeverEligible);
  std::vector<std::uint32_t> out;
  simd::collect_le(parked.data(), parked.size(), 1000, 0, out);
  EXPECT_TRUE(out.empty());
}

TEST(Simd, MinValueHandlesExtremes) {
  const std::vector<Time> vals = {std::numeric_limits<Time>::max(),
                                  std::numeric_limits<Time>::min(), 0, 42,
                                  std::numeric_limits<Time>::max()};
  EXPECT_EQ(simd::min_value(vals.data(), vals.size()), std::numeric_limits<Time>::min());
}

}  // namespace
}  // namespace pfair
