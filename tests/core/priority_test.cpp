#include "core/priority.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace pfair {
namespace {

SubtaskRef ref(TaskId id, std::int64_t e, std::int64_t p, SubtaskIndex i, Time offset = 0) {
  return make_subtask_ref(id, e, p, i, offset);
}

TEST(MakeSubtaskRef, FillsDerivedFields) {
  const SubtaskRef s = ref(3, 8, 11, 3);
  EXPECT_EQ(s.task, 3u);
  EXPECT_EQ(s.release, 2);
  EXPECT_EQ(s.deadline, 5);
  EXPECT_EQ(s.b, 1);
  EXPECT_EQ(s.group_dl, 8);
}

TEST(MakeSubtaskRef, OffsetShiftsAllAbsoluteTimes) {
  const SubtaskRef base = ref(0, 8, 11, 3, 0);
  const SubtaskRef moved = ref(0, 8, 11, 3, 100);
  EXPECT_EQ(moved.release, base.release + 100);
  EXPECT_EQ(moved.deadline, base.deadline + 100);
  EXPECT_EQ(moved.group_dl, base.group_dl + 100);
  EXPECT_EQ(moved.b, base.b);
}

TEST(Pd2Priority, EarlierDeadlineWins) {
  const SubtaskRef a = ref(0, 1, 2, 1);  // d = 2
  const SubtaskRef b = ref(1, 1, 5, 1);  // d = 5
  EXPECT_TRUE(pd2_higher_priority(a, b));
  EXPECT_FALSE(pd2_higher_priority(b, a));
}

TEST(Pd2Priority, BBitBreaksDeadlineTies) {
  // weight 2/3 subtask 1: d = 2, b = 1.  weight 1/2 subtask 1: d = 2,
  // b = 0.  The b = 1 subtask must win regardless of id order.
  const SubtaskRef b1 = ref(5, 2, 3, 1);
  const SubtaskRef b0 = ref(0, 1, 2, 1);
  ASSERT_EQ(b1.deadline, b0.deadline);
  ASSERT_EQ(b1.b, 1);
  ASSERT_EQ(b0.b, 0);
  EXPECT_TRUE(pd2_higher_priority(b1, b0));
  EXPECT_FALSE(pd2_higher_priority(b0, b1));
}

TEST(Pd2Priority, LaterGroupDeadlineWinsAmongBOne) {
  // Both heavy, equal deadline and b = 1, different group deadlines.
  // weight 8/11 T3: d=5, b=1, D=8.   weight 4/5 T3: d=ceil(15/4)=4 no...
  // pick weight 6/7 T4: d = ceil(28/6) = 5, b = 1 (28 % 6 != 0),
  // D = ceil(ceil(5*1/7)*7/1) = 7.
  const SubtaskRef later = ref(9, 8, 11, 3);  // D = 8
  const SubtaskRef earlier = ref(0, 6, 7, 4);  // D = 7
  ASSERT_EQ(later.deadline, earlier.deadline);
  ASSERT_EQ(later.b, 1);
  ASSERT_EQ(earlier.b, 1);
  ASSERT_GT(later.group_dl, earlier.group_dl);
  EXPECT_TRUE(pd2_higher_priority(later, earlier));
  EXPECT_FALSE(pd2_higher_priority(earlier, later));
}

TEST(Pd2Priority, FullTieBrokenByTaskId) {
  const SubtaskRef a = ref(0, 8, 11, 3);
  const SubtaskRef b = ref(1, 8, 11, 3);
  EXPECT_TRUE(pd2_higher_priority(a, b));
  EXPECT_FALSE(pd2_higher_priority(b, a));
}

TEST(PfPriority, AgreesWithPd2OnDeadlineAndBBit) {
  const SubtaskRef a = ref(0, 1, 2, 1);
  const SubtaskRef b = ref(1, 1, 5, 1);
  EXPECT_TRUE(pf_higher_priority(a, b));
  const SubtaskRef b1 = ref(5, 2, 3, 1);
  const SubtaskRef b0 = ref(0, 1, 2, 1);
  EXPECT_TRUE(pf_higher_priority(b1, b0));
}

TEST(PfPriority, SuccessorChainBreaksTies) {
  // Two heavy tasks with equal (d, b) at the compared subtask but
  // diverging successor chains: PF compares the chains.  8/11 T3 and
  // 6/7 T4 share d = 5, b = 1.  Successors: 8/11 T4 d = 6 vs 6/7 T5
  // d = 6; 8/11 T5 d = 7 vs 6/7 T6 d = 7; 8/11 T6 d = 9 vs 6/7 T7
  // d = ceil(49/6) = 9; 8/11 T7 d = 10 vs 6/7 T8 d = ceil(56/6) = 10;
  // 8/11 T8 d = 11 b = 0 vs 6/7 T9 d = ceil(63/6) = 11 ... chains track
  // closely; whatever the outcome, it must be antisymmetric and match
  // PD2's group-deadline ordering here (PF refines PD2's information).
  const SubtaskRef a = ref(0, 8, 11, 3);
  const SubtaskRef b = ref(1, 6, 7, 4);
  EXPECT_NE(pf_higher_priority(a, b), pf_higher_priority(b, a));
  EXPECT_EQ(pf_higher_priority(a, b), pd2_higher_priority(a, b));
}

TEST(AllRules, StrictWeakOrderingOnRandomInputs) {
  Rng rng(11);
  std::vector<SubtaskRef> refs;
  for (TaskId id = 0; id < 60; ++id) {
    const std::int64_t p = rng.uniform_int(1, 16);
    const std::int64_t e = rng.uniform_int(1, p);
    const SubtaskIndex i = rng.uniform_int(1, 2 * e);
    refs.push_back(ref(id, e, p, i));
  }
  const auto check = [&](auto higher, const char* name) {
    for (const SubtaskRef& a : refs) {
      EXPECT_FALSE(higher(a, a)) << name << ": irreflexivity";
      for (const SubtaskRef& b : refs) {
        if (a.task == b.task) continue;
        EXPECT_NE(higher(a, b), higher(b, a)) << name << ": totality/antisymmetry";
        for (const SubtaskRef& c : refs) {
          if (higher(a, b) && higher(b, c)) {
            EXPECT_TRUE(higher(a, c)) << name << ": transitivity";
          }
        }
      }
    }
  };
  check(pd2_higher_priority, "PD2");
  check(pd_higher_priority, "PD");
  check(epdf_higher_priority, "EPDF");
  check(pf_higher_priority, "PF");
}

TEST(SubtaskPriorityFunctor, DispatchesToSelectedRule) {
  const SubtaskRef gd_later = ref(9, 8, 11, 3);
  const SubtaskRef gd_earlier = ref(0, 6, 7, 4);
  // Under EPDF the group deadline is ignored, so the id decides.
  EXPECT_TRUE(SubtaskPriority(Algorithm::kEPDF)(gd_earlier, gd_later));
  // Under PD2 the later group deadline wins.
  EXPECT_TRUE(SubtaskPriority(Algorithm::kPD2)(gd_later, gd_earlier));
}

// A synthetic ref for the packed-key test: ordering fields drawn from
// narrow ranges starting at `d_base` / `g_base` so deadline, b-bit,
// group-deadline and weight ties are common, packed for `pack_alg`
// (which may differ from the comparator's algorithm, leaving the ref
// keyless for it).  Heavy refs with b = 0 keep a group deadline, which
// the comparators must ignore.
struct RefDraw {
  Time d_base = 1;
  Time g_base = 1;
  std::int64_t p_lo = 1;
  std::int64_t p_hi = 12;
  TaskId id_base = 0;
};

SubtaskRef draw_ref(Rng& rng, const RefDraw& r, Algorithm pack_alg) {
  SubtaskRef s;
  s.task = r.id_base + static_cast<TaskId>(rng.uniform_int(0, 40));
  s.p = rng.uniform_int(r.p_lo, r.p_hi);
  // Mostly heavy, and equal weights recur.
  s.e = std::max<std::int64_t>(1, s.p - rng.uniform_int(0, 3));
  s.deadline = r.d_base + rng.uniform_int(0, 3);
  s.release = s.deadline - 1;
  s.b = static_cast<int>(rng.uniform_int(0, 1));
  s.group_dl = rng.uniform_int(0, 2) == 0 ? 0 : r.g_base + rng.uniform_int(0, 3);
  pack_subtask_ref(s, pack_alg);
  return s;
}

// The packed-key fast path of SubtaskPriority must decide every pair
// exactly as the comparator chain, for keyed, keyless (fields beyond the
// key layout, or a key packed for another algorithm) and mixed pairs.
TEST(SubtaskPriorityFunctor, PackedKeysDecideExactlyAsTheComparatorChain) {
  constexpr Time kPd2DeadlineLimit = Time{1} << 48;
  constexpr Time kPdDeadlineLimit = Time{1} << 38;
  struct Regime {
    Algorithm alg;
    RefDraw draw;
  };
  const Regime regimes[] = {
      {Algorithm::kPD2, {}},
      // Deadlines straddle 2^48 and group deadlines 2^47: both sides of
      // the packing limit in one population.
      {Algorithm::kPD2, {kPd2DeadlineLimit - 2, (Time{1} << 47) - 2, 1, 12, 0}},
      {Algorithm::kPD, {}},
      {Algorithm::kPD, {kPdDeadlineLimit - 2, (Time{1} << 37) - 2, 1, 12, 0}},
      // Periods straddle 2^16 (the exact weight-rank limit).
      {Algorithm::kPD, {5, 5, (std::int64_t{1} << 16) - 2, (std::int64_t{1} << 16) + 2, 0}},
      // Task ids straddle 2^19.
      {Algorithm::kPD, {5, 5, 1, 12, (TaskId{1} << 19) - 20}},
      {Algorithm::kEPDF, {}},
      {Algorithm::kEPDF, {Time{1} << 62, 1, 1, 12, 0}},
  };
  const Algorithm others[] = {Algorithm::kPD2, Algorithm::kPD, Algorithm::kEPDF};
  Rng rng(0x9acc);
  for (const Regime& regime : regimes) {
    const SubtaskPriority pri(regime.alg);
    const auto alg8 = static_cast<std::uint8_t>(regime.alg);
    std::vector<SubtaskRef> refs;
    for (int k = 0; k < 120; ++k) {
      // One in four refs is packed for another algorithm (keyless here).
      const Algorithm pack_alg =
          rng.uniform_int(0, 3) == 0 ? others[rng.uniform_int(0, 2)] : regime.alg;
      refs.push_back(draw_ref(rng, regime.draw, pack_alg));
    }
    std::size_t keyed_pairs = 0;
    std::size_t mixed_pairs = 0;
    std::size_t keyless_pairs = 0;
    std::size_t deadline_ties = 0;
    for (const SubtaskRef& a : refs) {
      for (const SubtaskRef& b : refs) {
        const int keyed = (a.key_alg == alg8 ? 1 : 0) + (b.key_alg == alg8 ? 1 : 0);
        keyed_pairs += keyed == 2 ? 1 : 0;
        mixed_pairs += keyed == 1 ? 1 : 0;
        keyless_pairs += keyed == 0 ? 1 : 0;
        deadline_ties += a.deadline == b.deadline && a.b == b.b ? 1 : 0;
        ASSERT_EQ(pri(a, b), pri.compare_legacy(a, b))
            << algorithm_name(regime.alg) << " d_base " << regime.draw.d_base << ": task "
            << a.task << " (d " << a.deadline << ", b " << a.b << ", D " << a.group_dl
            << ", " << a.e << "/" << a.p << ") vs task " << b.task << " (d " << b.deadline
            << ", b " << b.b << ", D " << b.group_dl << ", " << b.e << "/" << b.p << ")";
      }
    }
    EXPECT_GT(keyed_pairs, 0u) << algorithm_name(regime.alg);
    EXPECT_GT(mixed_pairs, 0u) << algorithm_name(regime.alg);
    EXPECT_GT(keyless_pairs, 0u) << algorithm_name(regime.alg);
    EXPECT_GT(deadline_ties, refs.size()) << algorithm_name(regime.alg);
  }
}

// The limits themselves: the last value that packs and the first that
// falls back to kKeyNone.
TEST(MakeSubtaskRef, PackingLimitsFallBackToKeyNone) {
  const auto packed_for = [](SubtaskRef s, Algorithm alg) {
    pack_subtask_ref(s, alg);
    return s.key_alg;
  };
  SubtaskRef s = ref(3, 1, 2, 1);
  s.deadline = (Time{1} << 48) - 1;
  EXPECT_EQ(packed_for(s, Algorithm::kPD2), static_cast<std::uint8_t>(Algorithm::kPD2));
  s.deadline = Time{1} << 48;
  EXPECT_EQ(packed_for(s, Algorithm::kPD2), kKeyNone);

  s = ref(3, 1, 2, 1);
  s.p = std::int64_t{1} << 16;
  EXPECT_EQ(packed_for(s, Algorithm::kPD), static_cast<std::uint8_t>(Algorithm::kPD));
  s.p = (std::int64_t{1} << 16) + 1;
  EXPECT_EQ(packed_for(s, Algorithm::kPD), kKeyNone);

  s = ref((TaskId{1} << 19) - 1, 1, 2, 1);
  EXPECT_EQ(packed_for(s, Algorithm::kPD), static_cast<std::uint8_t>(Algorithm::kPD));
  s.task = TaskId{1} << 19;
  EXPECT_EQ(packed_for(s, Algorithm::kPD), kKeyNone);

  EXPECT_EQ(packed_for(ref(0, 3, 4, 1), Algorithm::kPF), kKeyNone);
}

TEST(AlgorithmName, AllNamed) {
  EXPECT_STREQ(algorithm_name(Algorithm::kPD2), "PD2");
  EXPECT_STREQ(algorithm_name(Algorithm::kPF), "PF");
  EXPECT_STREQ(algorithm_name(Algorithm::kPD), "PD");
  EXPECT_STREQ(algorithm_name(Algorithm::kEPDF), "EPDF");
}

TEST(PdPriority, RefinesPd2) {
  // Wherever PD2 expresses a strict preference not caused by the id
  // tie-break, PD must agree.
  Rng rng(13);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::int64_t pa = rng.uniform_int(1, 12);
    const std::int64_t ea = rng.uniform_int(1, pa);
    const std::int64_t pb = rng.uniform_int(1, 12);
    const std::int64_t eb = rng.uniform_int(1, pb);
    const SubtaskRef a = ref(0, ea, pa, rng.uniform_int(1, 2 * ea));
    const SubtaskRef b = ref(1, eb, pb, rng.uniform_int(1, 2 * eb));
    const bool tie = a.deadline == b.deadline && a.b == b.b &&
                     (a.b == 0 || a.group_dl == b.group_dl);
    if (!tie) {
      EXPECT_EQ(pd_higher_priority(a, b), pd2_higher_priority(a, b));
    }
  }
}

}  // namespace
}  // namespace pfair
