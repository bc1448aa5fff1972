// The Tier-2 exact global-EDF/RM test, held to first principles and to
// the job-level simulator it makes statements about.
#include "serve/exact_gedf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/global_job_sim.h"
#include "util/math.h"
#include "util/rng.h"

namespace pfair::serve {
namespace {

TEST(ExactGedf, EmptySetIsSchedulable) {
  const GedfResult r = exact_global_schedulable({}, 2);
  EXPECT_EQ(r.verdict, GedfVerdict::kSchedulable);
}

TEST(ExactGedf, InvalidTaskIsUnschedulable) {
  const GedfResult r = exact_global_schedulable({UniTask{0, 5}}, 2);
  EXPECT_EQ(r.verdict, GedfVerdict::kUnschedulable);
  EXPECT_EQ(r.first_miss, 0);
}

TEST(ExactGedf, FullUtilizationSingleTaskFits) {
  const GedfResult r = exact_global_schedulable({UniTask{4, 4}}, 1);
  EXPECT_EQ(r.verdict, GedfVerdict::kSchedulable);
  EXPECT_EQ(r.hyperperiod, 4);
}

TEST(ExactGedf, DhallStyleOverloadMissesDespiteSpareUtilization) {
  // Two light tasks monopolise both processors first, so the heavy task
  // cannot finish by 11 even though U = 1.909 < m = 2: the effect the
  // GFB density bound exists to exclude and Tier 2 must find exactly.
  const std::vector<UniTask> dhall = {{5, 10}, {5, 10}, {10, 11}};
  const GedfResult r = exact_global_schedulable(dhall, 2);
  EXPECT_EQ(r.verdict, GedfVerdict::kUnschedulable);
  EXPECT_EQ(r.first_miss, 11);
}

TEST(ExactGedf, BudgetExhaustionIsReportedNotGuessed) {
  const std::vector<UniTask> dhall = {{5, 10}, {5, 10}, {10, 11}};
  const GedfResult r =
      exact_global_schedulable(dhall, 2, UniAlgorithm::kEDF, /*max_events=*/1);
  EXPECT_EQ(r.verdict, GedfVerdict::kBudgetExceeded);
  EXPECT_LE(r.events, 1u);
}

TEST(ExactGedf, VerdictNamesAreStable) {
  EXPECT_STREQ(to_string(GedfVerdict::kSchedulable), "schedulable");
  EXPECT_STREQ(to_string(GedfVerdict::kUnschedulable), "unschedulable");
  EXPECT_STREQ(to_string(GedfVerdict::kBudgetExceeded), "budget-exceeded");
}

/// The exact test claims to be a statement about the served
/// GlobalJobSimulator: schedulable iff the simulator stays miss-free
/// through H.  The gate judges a set in canonical (period, execution)
/// order, but the daemon serves it in admission order, so the simulator
/// gets each set canonical, shuffled and reversed, and every run must
/// agree with the one exact verdict.  Seeded random sets; periods come
/// from a divisor-friendly pool so hyperperiods stay small enough to
/// simulate, and so equal deadlines (the tie-break's cases) are common.
void differential_sweep(UniAlgorithm algorithm) {
  const std::int64_t periods[] = {2, 3, 4, 6, 8, 12};
  Rng rng(algorithm == UniAlgorithm::kEDF ? 101 : 202);
  for (int trial = 0; trial < 200; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(1, 3));
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 5));
    std::vector<UniTask> tasks;
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t p = periods[rng.uniform_int(0, 5)];
      tasks.push_back(UniTask{rng.uniform_int(1, p), p});
    }
    std::sort(tasks.begin(), tasks.end(), [](const UniTask& a, const UniTask& b) {
      return a.period != b.period ? a.period < b.period : a.execution < b.execution;
    });
    Time h = 1;
    for (const UniTask& t : tasks) h = saturating_lcm(h, t.period);

    const GedfResult exact = exact_global_schedulable(tasks, m, algorithm);
    ASSERT_NE(exact.verdict, GedfVerdict::kBudgetExceeded);

    std::vector<UniTask> shuffled = tasks;
    rng.shuffle(shuffled);
    const std::vector<UniTask> reversed(tasks.rbegin(), tasks.rend());
    const std::pair<const char*, const std::vector<UniTask>*> orders[] = {
        {"canonical", &tasks}, {"shuffled", &shuffled}, {"reversed", &reversed}};
    for (const auto& [order, served] : orders) {
      GlobalJobSimulator sim(*served, GlobalJobConfig{m, algorithm});
      sim.run_until(h + 1);
      const bool sim_clean = sim.metrics().deadline_misses == 0;
      EXPECT_EQ(exact.verdict == GedfVerdict::kSchedulable, sim_clean)
          << "trial " << trial << " (" << order << "): m=" << m << " n=" << n
          << " exact=" << to_string(exact.verdict)
          << " sim_misses=" << sim.metrics().deadline_misses;
    }
  }
}

TEST(ExactGedf, AgreesWithGlobalJobSimulatorUnderEdf) {
  differential_sweep(UniAlgorithm::kEDF);
}

TEST(ExactGedf, AgreesWithGlobalJobSimulatorUnderRm) {
  differential_sweep(UniAlgorithm::kRM);
}

}  // namespace
}  // namespace pfair::serve
