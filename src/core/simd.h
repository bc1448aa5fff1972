// Lane sweeps over the SubtaskSoA time lanes, and the slot kernel's
// small-set priority selection.
//
// The SoA slot kernel (sim/subtask_soa.h) reduces the per-quantum work
// to three primitives over contiguous lanes:
//
//   collect_le   - gather the indices whose value is <= a bound (the
//                  eligibility scan: "which pending subtasks are ready
//                  in slot t"), in ascending index order;
//   rank_select  - exact top-k of a small candidate set by packed
//                  priority key (Phase A's local top-M), by counting
//                  rather than sorting;
//   min_value    - horizontal minimum of a lane (the idle fast-forward:
//                  "when does the next subtask become eligible").
//
// The gather and the ranking have no data-dependent branch: the gather
// writes every index and advances its count by the predicate, and the
// ranking sums comparison results.  Hand-written AVX2 forms of
// the sweeps did not change the slot kernel's end-to-end cost
// (EXPERIMENTS.md "SIMD A/B"); what did was replacing the comparator
// sort of a ~10-entry candidate set (EXPERIMENTS.md "Sort-free top-M").
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/types.h"

namespace pfair::simd {

/// std::allocator whose value-less construct() default-initialises, so
/// resize() leaves new trivial elements unwritten instead of zeroing
/// them.  Lets the gather size its output to the worst case every slot
/// without a memset: once capacity is reached the vector neither
/// regrows nor touches memory it is about to overwrite.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  template <class U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() noexcept = default;
  template <class U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// Task-id list written by collect_le / rank_select.
using IndexVec = std::vector<std::uint32_t, DefaultInitAllocator<std::uint32_t>>;

/// Eligibility gather: appends base + i for every i < n with
/// vals[i] <= bound, in ascending index order (the order is part of the
/// kernel's determinism contract).
inline void collect_le(const Time* vals, std::size_t n, Time bound, std::uint32_t base,
                       IndexVec& out) {
  const std::size_t start = out.size();
  out.resize(start + n);
  std::uint32_t* dst = out.data() + start;
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    dst[count] = base + static_cast<std::uint32_t>(i);
    count += static_cast<std::size_t>(vals[i] <= bound);
  }
  out.resize(start + count);
}

/// Largest candidate set the slot kernel ranks with rank_select.
inline constexpr std::size_t kRankBlock = 32;

/// Whether ranking c candidates for the top k beats a comparator
/// partial_sort.  Ranking costs c² branch-free key compares whatever k
/// is; the sort costs about c·log k compares that each branch on key
/// data.  bench/micro_soa.cpp's BM_TopM_{Rank,Sort} put the crossover
/// near c = 2k, and past c = 32 ranking loses even at k = 16: at k = 16
/// it is 1.6–2× faster for c = 16..32 and 1.3× slower at c = 64; at
/// k = 1 it is 5× slower already at c = 16 (EXPERIMENTS.md "Sort-free
/// top-M").  A loaded PD² slot has about M eligible subtasks.
[[nodiscard]] constexpr bool rank_pays(std::size_t c, std::size_t k) noexcept {
  return c <= kRankBlock && c <= 2 * k;
}

/// Exact top-k by packed key (hi[i], lo[i]), compared as one 128-bit
/// unsigned value, smallest first.  Replaces `out` with the ids[i] of
/// the min(k, c) smallest keys in ascending key order.  Each candidate's
/// rank is the count of candidates with a smaller key, and ids[i] is
/// written to out[rank].  Keys must be pairwise distinct — packed
/// priority keys end in the task id — so the ranks are a permutation of
/// 0..c-1.  `ids` must not alias `out`.
inline void rank_select(const std::uint64_t* hi, const std::uint64_t* lo,
                        const std::uint32_t* ids, std::size_t c, std::size_t k,
                        IndexVec& out) {
  // A native 128-bit compare is one cmp + sbb pair, and the count adds
  // its carry: about two cycles per pair with no branch.  The two-word
  // boolean form compiles to twice that on GCC 12 x86-64.
  __extension__ using Key = unsigned __int128;
  out.resize(c);
  for (std::size_t i = 0; i < c; ++i) {
    const Key key = (static_cast<Key>(hi[i]) << 64) | lo[i];
    std::size_t rank = 0;
    for (std::size_t j = 0; j < c; ++j) {
      rank += static_cast<std::size_t>(((static_cast<Key>(hi[j]) << 64) | lo[j]) < key);
    }
    out[rank] = ids[i];
  }
  out.resize(std::min(k, c));
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
