// The slot kernel's top-M selection against a from-scratch reference.
//
// Phase A picks by ranking packed keys when every candidate is keyed for
// the configured algorithm and the keys decide, and by a comparator sort
// otherwise.  These cases replay a run's schedule trace, rebuild each
// slot's eligible subtasks, and check that the kernel picked exactly the
// top M under SubtaskPriority::compare_legacy, the comparator chain the
// keys encode.  The PD2 flip flag (which the keys do not encode) and
// kKeyNone refs (fields too wide to pack) must reach the comparator: if
// either were ranked by key, the picks would follow the unflipped order
// or the unkeyed ref's stale key instead.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/priority.h"
#include "core/windows.h"
#include "sim/pfair_sim.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace pfair {
namespace {

constexpr Time kHorizon = 400;

// Runs `set` (synchronous periodic tasks, kScheduleLate) with a recorded
// trace and returns the trace's per-slot task lists.
std::vector<std::vector<TaskId>> run_picks(const TaskSet& set, int m, Algorithm alg) {
  PfairConfig cfg;
  cfg.processors = m;
  cfg.algorithm = alg;
  cfg.record_trace = true;
  PfairSimulator sim(cfg);
  for (const Task& t : set.tasks()) sim.add_task(t);
  sim.run_until(kHorizon);
  std::vector<std::vector<TaskId>> picks;
  for (std::size_t t = 0; t < sim.trace().size(); ++t) {
    std::vector<TaskId> slot;
    for (const TaskId id : sim.trace()[t].proc_to_task) {
      if (id != kNoTask) slot.push_back(id);
    }
    std::sort(slot.begin(), slot.end());
    picks.push_back(slot);
  }
  return picks;
}

// Checks every slot's picks against the comparator's top M among the
// subtasks eligible in that slot.  A synchronous periodic task's pending
// subtask is the one after its last pick, eligible at
// max(release, last pick + 1) whether or not it missed.  Returns how
// many slots had more eligible subtasks than processors.
std::size_t expect_comparator_top_m(const TaskSet& set, int m, Algorithm alg,
                                    const std::vector<std::vector<TaskId>>& picks) {
  const SubtaskPriority prio(alg);
  std::vector<SubtaskIndex> next(set.size(), 1);
  std::vector<Time> last(set.size(), -1);
  std::size_t contested = 0;
  EXPECT_EQ(picks.size(), static_cast<std::size_t>(kHorizon));
  for (Time t = 0; t < static_cast<Time>(picks.size()); ++t) {
    std::vector<SubtaskRef> eligible;
    for (TaskId id = 0; id < set.size(); ++id) {
      const Task& task = set[id];
      const Time release = subtask_release(task.execution, task.period, next[id]);
      if (std::max(release, last[id] + 1) > t) continue;
      eligible.push_back(make_subtask_ref(id, task.execution, task.period, next[id], 0, alg));
    }
    const auto k = std::min(eligible.size(), static_cast<std::size_t>(m));
    if (eligible.size() > k) ++contested;
    std::partial_sort(eligible.begin(), eligible.begin() + static_cast<std::ptrdiff_t>(k),
                      eligible.end(), [&prio](const SubtaskRef& a, const SubtaskRef& b) {
                        return prio.compare_legacy(a, b);
                      });
    std::vector<TaskId> expect;
    for (std::size_t i = 0; i < k; ++i) expect.push_back(eligible[i].task);
    std::sort(expect.begin(), expect.end());
    const auto slot = static_cast<std::size_t>(t);
    EXPECT_EQ(picks[slot], expect) << algorithm_name(alg) << " slot " << t;
    if (picks[slot] != expect) return contested;
    for (const TaskId id : picks[slot]) {
      ++next[id];
      last[id] = t;
    }
  }
  return contested;
}

TaskSet loaded_set(std::uint64_t seed, int m) {
  Rng rng(seed);
  return generate_feasible_taskset(rng, m, 6 * static_cast<std::size_t>(m), 16, /*fill=*/true);
}

TEST(SlotKernel, PicksTheComparatorTopMInEverySlot) {
  for (const Algorithm alg :
       {Algorithm::kPD2, Algorithm::kPD, Algorithm::kEPDF, Algorithm::kPF}) {
    for (const int m : {1, 4, 16}) {
      const TaskSet set = loaded_set(0x51a7 + static_cast<std::uint64_t>(m), m);
      const std::size_t contested =
          expect_comparator_top_m(set, m, alg, run_picks(set, m, alg));
      EXPECT_GT(contested, 0u) << algorithm_name(alg) << " m=" << m;
    }
  }
}

TEST(SlotKernel, FlipFlagTakesTheComparatorPath) {
  // A full load with short periods: many deadline ties decided by the
  // b-bit, which is exactly what the flag reverses.
  const int m = 4;
  const TaskSet set = loaded_set(0xf11b, m);
  const auto straight = run_picks(set, m, Algorithm::kPD2);
  expect_comparator_top_m(set, m, Algorithm::kPD2, straight);
  const ScopedPd2BBitFlip flip;
  const auto flipped = run_picks(set, m, Algorithm::kPD2);
  expect_comparator_top_m(set, m, Algorithm::kPD2, flipped);
  EXPECT_NE(flipped, straight) << "the flag never changed a pick; the case has no teeth";
}

TEST(SlotKernel, UnkeyedRefsTakeTheComparatorPath) {
  // PD packs only periods up to 2^16; a 70000-quantum period leaves task
  // 0's refs at kKeyNone, so every slot it is eligible in mixes keyed and
  // unkeyed candidates.
  const int m = 4;
  const TaskSet base = loaded_set(0x0ce7, m);
  TaskSet set;
  set.add(make_task(7000, 70000));
  for (const Task& t : base.tasks()) set.add(t);
  ASSERT_EQ(make_subtask_ref(0, 7000, 70000, 1, 0, Algorithm::kPD).key_alg, kKeyNone);
  ASSERT_EQ(make_subtask_ref(1, set[1].execution, set[1].period, 1, 0, Algorithm::kPD).key_alg,
            static_cast<std::uint8_t>(Algorithm::kPD));
  EXPECT_GT(expect_comparator_top_m(set, m, Algorithm::kPD, run_picks(set, m, Algorithm::kPD)),
            0u);
}

}  // namespace
}  // namespace pfair
