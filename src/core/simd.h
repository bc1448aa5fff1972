// Lane sweeps over the SubtaskSoA time lanes.
//
// The SoA slot kernel (sim/subtask_soa.h) reduces the per-quantum work
// to two primitives over contiguous int64 lanes:
//
//   collect_le  - gather the indices whose value is <= a bound (the
//                 eligibility scan: "which pending subtasks are ready
//                 in slot t"), in ascending index order;
//   min_value   - horizontal minimum of a lane (the idle fast-forward:
//                 "when does the next subtask become eligible").
//
// Both are plain loops: hand-written AVX2 forms did not change the slot
// kernel's end-to-end cost (EXPERIMENTS.md "SIMD A/B").
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/types.h"

namespace pfair::simd {

/// Eligibility gather: appends base + i for every i < n with
/// vals[i] <= bound, in ascending index order (the order is part of the
/// kernel's determinism contract).
inline void collect_le(const Time* vals, std::size_t n, Time bound, std::uint32_t base,
                       std::vector<std::uint32_t>& out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (vals[i] <= bound) out.push_back(base + static_cast<std::uint32_t>(i));
  }
}

/// Lane minimum (INT64_MAX for n == 0).
[[nodiscard]] inline Time min_value(const Time* vals, std::size_t n) noexcept {
  Time best = std::numeric_limits<Time>::max();
  for (std::size_t i = 0; i < n; ++i) {
    if (vals[i] < best) best = vals[i];
  }
  return best;
}

}  // namespace pfair::simd
