#include "sim/global_job_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "sim/pfair_sim.h"
#include "workload/generator.h"

namespace pfair {
namespace {

TEST(GlobalJob, MatchesUniprocessorEdfOnOneProcessor) {
  const std::vector<UniTask> ts = {{2, 4}, {3, 6}};  // U = 1, EDF-feasible
  GlobalJobSimulator sim(ts, GlobalJobConfig{1, UniAlgorithm::kEDF});
  sim.run_until(1200);
  EXPECT_EQ(sim.metrics().deadline_misses, 0u);
  EXPECT_EQ(sim.metrics().jobs_completed, sim.metrics().jobs_released);
  EXPECT_EQ(sim.metrics().migrations, 0u);
}

TEST(GlobalJob, DhallEffectGlobalEdfMissesAtLowUtilization) {
  // The classic construction (Sec. 1 / Dhall & Liu): m light tasks
  // (2, 10) and one heavy task (10, 11).  At t = 0 the light jobs have
  // earlier deadlines and occupy all m processors for 2 time units; the
  // heavy job then needs 10 more and misses its deadline at 11.  Total
  // utilization = 0.2 m + 10/11 — a vanishing fraction of m.
  for (const int m : {2, 4, 8}) {
    std::vector<UniTask> ts(static_cast<std::size_t>(m), UniTask{2, 10});
    ts.push_back({10, 11});
    GlobalJobSimulator sim(ts, GlobalJobConfig{m, UniAlgorithm::kEDF});
    sim.run_until(200);
    EXPECT_GT(sim.metrics().deadline_misses, 0u) << "m=" << m;
    EXPECT_LE(sim.metrics().first_miss_time, 22) << "m=" << m;
  }
}

TEST(GlobalJob, DhallEffectHitsGlobalRmToo) {
  for (const int m : {2, 4}) {
    std::vector<UniTask> ts(static_cast<std::size_t>(m), UniTask{2, 10});
    ts.push_back({10, 11});
    GlobalJobSimulator sim(ts, GlobalJobConfig{m, UniAlgorithm::kRM});
    sim.run_until(200);
    EXPECT_GT(sim.metrics().deadline_misses, 0u) << "m=" << m;
  }
}

TEST(GlobalJob, Pd2SchedulesTheDhallSetWithoutMisses) {
  // The same task set, quantum-level PD2: no misses (the paper's
  // argument for Pfair over naive global scheduling).
  for (const int m : {2, 4, 8}) {
    PfairConfig sc;
    sc.processors = m;
    PfairSimulator sim(sc);
    for (int k = 0; k < m; ++k) sim.add_task(make_task(2, 10));
    sim.add_task(make_task(10, 11));
    sim.run_until(2200);
    EXPECT_EQ(sim.metrics().deadline_misses, 0u) << "m=" << m;
  }
}

TEST(GlobalJob, LightLoadsScheduleFine) {
  // Global EDF is not *always* bad: comfortable loads run clean.
  Rng rng(0x6e4a);
  for (int trial = 0; trial < 8; ++trial) {
    Rng trial_rng = rng.fork(static_cast<std::uint64_t>(trial));
    const int m = 2 + trial % 3;
    const std::vector<UniTask> ts =
        generate_uni_tasks(trial_rng, static_cast<std::size_t>(3 * m),
                           0.45 * static_cast<double>(m), 60);
    GlobalJobSimulator sim(ts, GlobalJobConfig{m, UniAlgorithm::kEDF});
    sim.run_until(5000);
    EXPECT_EQ(sim.metrics().deadline_misses, 0u) << "trial " << trial;
  }
}

TEST(GlobalJob, AffinityAvoidsSpuriousMigrations) {
  // Two long-running jobs on two processors never migrate.
  const std::vector<UniTask> ts = {{50, 100}, {50, 100}};
  GlobalJobSimulator sim(ts, GlobalJobConfig{2, UniAlgorithm::kEDF});
  sim.run_until(1000);
  EXPECT_EQ(sim.metrics().migrations, 0u);
  EXPECT_EQ(sim.metrics().preemptions, 0u);
}

/// One pinned run: `tasks` from time 0 (plus `late`, admitted at
/// `admit_at` when that is not -1) on m processors to `horizon`.
struct PinnedRun {
  std::string name;
  int m = 1;
  UniAlgorithm algorithm = UniAlgorithm::kEDF;
  std::vector<UniTask> tasks;
  Time horizon = 0;
  Time admit_at = -1;
  UniTask late{};
};

struct PinnedMetrics {
  const char* name;
  std::uint64_t misses;
  Time first_miss;
  std::uint64_t released;
  std::uint64_t completed;
  std::uint64_t preemptions;
  std::uint64_t migrations;
};

std::vector<UniTask> canonical(std::vector<UniTask> ts) {
  std::stable_sort(ts.begin(), ts.end(), [](const UniTask& a, const UniTask& b) {
    return a.period != b.period ? a.period < b.period : a.execution < b.execution;
  });
  return ts;
}

std::vector<PinnedRun> pinned_runs() {
  std::vector<PinnedRun> runs;
  for (const int m : {2, 4, 8}) {
    std::vector<UniTask> ts(static_cast<std::size_t>(m), UniTask{2, 10});
    ts.push_back({10, 11});
    runs.push_back({"dhall-edf-m" + std::to_string(m), m, UniAlgorithm::kEDF, ts, 200});
    runs.push_back({"dhall-rm-m" + std::to_string(m), m, UniAlgorithm::kRM, ts, 200});
  }
  const std::vector<UniTask> dhall2 = {{5, 10}, {5, 10}, {10, 11}};
  runs.push_back({"dhall2-edf", 2, UniAlgorithm::kEDF, dhall2, 200});
  runs.push_back({"dhall2-rm", 2, UniAlgorithm::kRM, dhall2, 200});
  // The LightLoads trials, in canonical order.
  Rng rng(0x6e4a);
  for (int trial = 0; trial < 8; ++trial) {
    Rng trial_rng = rng.fork(static_cast<std::uint64_t>(trial));
    const int m = 2 + trial % 3;
    const std::vector<UniTask> ts = canonical(generate_uni_tasks(
        trial_rng, static_cast<std::size_t>(3 * m), 0.45 * static_cast<double>(m), 60));
    runs.push_back({"light-" + std::to_string(trial), m, UniAlgorithm::kEDF, ts, 5000});
    runs.push_back({"light-rm-" + std::to_string(trial), m, UniAlgorithm::kRM, ts, 5000});
  }
  // Overloaded: late jobs pile up and keep running next to their
  // successors.  The RM run stops while at most 16 jobs are live.
  const std::vector<UniTask> over = {{3, 4}, {3, 4}, {3, 4}, {5, 6}};
  runs.push_back({"overload-edf", 2, UniAlgorithm::kEDF, over, 240});
  runs.push_back({"overload-rm", 2, UniAlgorithm::kRM, over, 48});
  const std::vector<UniTask> mid = {{3, 6}, {4, 8}};
  runs.push_back({"admit-edf", 2, UniAlgorithm::kEDF, mid, 480, 5, UniTask{7, 12}});
  runs.push_back({"admit-rm", 2, UniAlgorithm::kRM, mid, 480, 5, UniTask{7, 12}});
  return runs;
}

/// Metrics of the earlier implementation, which sorted every ready job
/// at every event and broke ties by task index.  On canonical
/// (period, execution) order that tie-break and GlobalJobCore's agree,
/// and with at most 16 live jobs its RM sort kept one task's jobs in
/// release order, as the core does.  Columns: misses, first miss, jobs
/// released, jobs completed, preemptions, migrations.
const PinnedMetrics kPinned[] = {
    {"dhall-edf-m2", 3, 11, 59, 58, 1, 0},
    {"dhall-rm-m2", 18, 11, 59, 58, 19, 0},
    {"dhall-edf-m4", 3, 11, 99, 98, 1, 0},
    {"dhall-rm-m4", 18, 11, 99, 98, 19, 0},
    {"dhall-edf-m8", 3, 11, 179, 178, 1, 0},
    {"dhall-rm-m8", 18, 11, 179, 178, 19, 0},
    {"dhall2-edf", 9, 11, 59, 58, 1, 0},
    {"dhall2-rm", 18, 11, 59, 57, 23, 0},
    {"light-0", 0, -1, 786, 786, 45, 13},
    {"light-rm-0", 0, -1, 786, 786, 46, 15},
    {"light-1", 0, -1, 1313, 1311, 90, 52},
    {"light-rm-1", 0, -1, 1313, 1311, 102, 56},
    {"light-2", 0, -1, 2528, 2524, 125, 88},
    {"light-rm-2", 0, -1, 2528, 2524, 130, 93},
    {"light-3", 0, -1, 997, 995, 95, 23},
    {"light-rm-3", 0, -1, 997, 995, 95, 23},
    {"light-4", 0, -1, 1670, 1668, 146, 61},
    {"light-rm-4", 0, -1, 1670, 1668, 149, 64},
    {"light-5", 0, -1, 1766, 1763, 90, 65},
    {"light-rm-5", 0, -1, 1766, 1762, 99, 70},
    {"light-6", 0, -1, 1398, 1396, 191, 90},
    {"light-rm-6", 0, -1, 1398, 1396, 193, 90},
    {"light-7", 0, -1, 1507, 1503, 78, 49},
    {"light-rm-7", 0, -1, 1507, 1503, 81, 54},
    {"overload-edf", 214, 4, 220, 142, 0, 0},
    {"overload-rm", 18, 4, 44, 31, 16, 0},
    {"admit-edf", 0, -1, 180, 179, 40, 40},
    {"admit-rm", 0, -1, 180, 179, 59, 40},
};

TEST(GlobalJob, ReproducesPinnedMetricsOnCanonicalInputs) {
  const std::vector<PinnedRun> runs = pinned_runs();
  ASSERT_EQ(runs.size(), std::size(kPinned));
  for (std::size_t k = 0; k < runs.size(); ++k) {
    const PinnedRun& r = runs[k];
    const PinnedMetrics& want = kPinned[k];
    ASSERT_EQ(r.name, want.name);
    GlobalJobSimulator sim(r.tasks, GlobalJobConfig{r.m, r.algorithm});
    if (r.admit_at >= 0) {
      sim.run_until(r.admit_at);
      ASSERT_TRUE(sim.admit(engine::task_spec(r.late.execution, r.late.period)));
    }
    sim.run_until(r.horizon);
    const engine::Metrics& got = sim.metrics();
    EXPECT_EQ(got.deadline_misses, want.misses) << r.name;
    EXPECT_EQ(got.first_miss_time, want.first_miss) << r.name;
    EXPECT_EQ(got.jobs_released, want.released) << r.name;
    EXPECT_EQ(got.jobs_completed, want.completed) << r.name;
    EXPECT_EQ(got.preemptions, want.preemptions) << r.name;
    EXPECT_EQ(got.migrations, want.migrations) << r.name;
  }
}

TEST(GlobalJob, LateJobsOfOneTaskRunEarliestReleaseFirst) {
  // On one processor under RM, (1, 2) takes every other time unit, so
  // (3, 3) gets 1 unit in 2 and its jobs pile up late.  Run oldest
  // first, its k-th job completes at 6k: 10 by t = 60, next to (1, 2)'s
  // 30.  Run newest first, each job would get at most 2 units before a
  // newer one displaced it, and none would ever complete.
  const std::vector<UniTask> ts = {{1, 2}, {3, 3}};
  GlobalJobSimulator sim(ts, GlobalJobConfig{1, UniAlgorithm::kRM});
  sim.run_until(60);
  EXPECT_GT(sim.metrics().deadline_misses, 0u);
  EXPECT_EQ(sim.metrics().jobs_completed, 30u + 10u);
}

}  // namespace
}  // namespace pfair
