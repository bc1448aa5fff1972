// Structure-of-arrays runtime state for the pending subtask of every
// task in a PfairSimulator.
//
// The simulator keeps exactly one pending subtask per task (the next
// one to schedule).  The AoS layout stored that subtask's hot state
// inside TaskRuntime — a ~200-byte struct — so the per-slot questions
// ("which subtasks are eligible at t?", "which of those missed?",
// "when does the next one become eligible?") each walked a strided
// pointer chase touching one cache line per task.  This SoA pulls the
// per-slot-scanned fields into contiguous lanes:
//
//   lane          type       scanned by
//   -----------   --------   -------------------------------------------
//   eligible_at   Time       eligibility sweep (simd::collect_le),
//                            idle fast-forward (simd::min_value)
//   deadline      Time       miss sweep over the eligible candidates
//   key_hi/lo     uint64     top-M selection (packed-key compares)
//   key_alg       uint8      packed-compare applicability check
//   miss_counted  uint8      at-most-once miss accounting
//
// plus cold lanes (ref, cursor) that are touched once per
// enqueue/advance rather than once per slot.  The lanes are the only
// pending-subtask state: there is no ready queue or release calendar,
// and the slot kernel (sim/slot_kernel.cpp) finds the eligible subtasks
// of slot t by sweeping eligible_at.
//
// Parked convention: a task with no pending subtask (inactive, or
// departing) has eligible_at = deadline = kNeverEligible, so the
// eligibility and miss sweeps skip it without a separate "active" lane
// and the fast-forward minimum naturally ignores it.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/priority.h"
#include "core/simd.h"
#include "core/windows.h"
#include "util/types.h"

namespace pfair {

/// Lane value meaning "no pending subtask": larger than every reachable
/// slot, so parked lanes never pass a <= t sweep and never win a min.
inline constexpr Time kNeverEligible = std::numeric_limits<Time>::max();

struct SubtaskSoA {
  // Hot lanes (swept every slot by the SoA kernel).
  std::vector<Time> eligible_at;
  std::vector<Time> deadline;
  std::vector<std::uint64_t> key_hi;
  std::vector<std::uint64_t> key_lo;
  std::vector<std::uint8_t> key_alg;
  std::vector<std::uint8_t> miss_counted;

  // Cold lanes (touched per enqueue/advance, not per slot).
  std::vector<SubtaskRef> ref;        ///< prebuilt ref of the pending subtask
  std::vector<WindowCursor> cursor;   ///< windows of that subtask, O(1) advance

  [[nodiscard]] std::size_t size() const noexcept { return eligible_at.size(); }

  /// Appends one parked entry per new task id up to `n`.
  void grow(std::size_t n) {
    while (size() < n) {
      eligible_at.push_back(kNeverEligible);
      deadline.push_back(kNeverEligible);
      key_hi.push_back(0);
      key_lo.push_back(0);
      key_alg.push_back(kKeyNone);
      miss_counted.push_back(0);
      ref.emplace_back();
      cursor.emplace_back();
    }
  }

  /// Marks `id` as having no pending subtask (see the parked convention).
  void park(TaskId id) noexcept {
    eligible_at[id] = kNeverEligible;
    deadline[id] = kNeverEligible;
  }

  /// Publishes the pending subtask already written to ref[id]/cursor[id]
  /// into the swept lanes.
  void publish(TaskId id, Time eligible) noexcept {
    eligible_at[id] = eligible;
    deadline[id] = ref[id].deadline;
    key_hi[id] = ref[id].key.hi;
    key_lo[id] = ref[id].key.lo;
    key_alg[id] = ref[id].key_alg;
    miss_counted[id] = 0;
  }
};

/// Per-shard scratch of the sharded SoA kernel.  Phase A (parallel, one
/// job per shard) fills these from the shard's contiguous task-id range
/// without touching any shared state; phase B (the sequential
/// coordinator) merges them in deterministic priority order.  See
/// DESIGN.md "Memory layout & sharding".
struct ShardScratch {
  std::uint32_t begin = 0;  ///< first task id owned this slot
  std::uint32_t end = 0;    ///< one past the last task id owned this slot
  simd::IndexVec candidates;       ///< eligible at t, ascending id
  std::vector<SubtaskRef> missed;  ///< newly counted misses, priority order
  simd::IndexVec top;              ///< local top-M picks, priority order
  std::vector<std::uint32_t> work;  ///< newly missed ids, sorted in place
  /// Compact copy of the candidates' packed keys for simd::rank_select.
  std::array<std::uint64_t, simd::kRankBlock> key_hi{};
  std::array<std::uint64_t, simd::kRankBlock> key_lo{};
};

}  // namespace pfair
