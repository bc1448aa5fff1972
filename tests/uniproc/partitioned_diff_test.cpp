// Differential test: online placement (UniBins, PartitionedSimulator's
// per-admit path) against a from-scratch reference that re-partitions
// the whole set on every admit with member-list-copying acceptance
// tests.  Every decision, the final assignment and the simulated
// metrics must agree exactly — including where a bin's exact Rational
// load wraps (a known int64 limitation that both sides must reproduce
// identically until it is fixed).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/bus.h"
#include "obs/event.h"
#include "obs/sink.h"
#include "uniproc/analysis.h"
#include "uniproc/partitioned_sim.h"
#include "util/rng.h"

namespace pfair {
namespace {

// ---------------------------------------------------------------------------
// Reference: the whole-set partitioner with copying acceptance tests.

bool ref_accepts(const std::vector<UniTask>& members, const UniTask& candidate,
                 Acceptance acc) {
  std::vector<UniTask> with = members;
  with.push_back(candidate);
  switch (acc) {
    case Acceptance::kEdfUtilization:
      return edf_schedulable(with);
    case Acceptance::kRmLiuLayland:
      return rm_schedulable_ll(with);
    case Acceptance::kRmExact:
      return rm_schedulable_exact(with);
  }
  return false;
}

struct RefPartition {
  std::vector<int> assignment;
  std::vector<std::vector<UniTask>> bins;
};

RefPartition ref_partition(const std::vector<UniTask>& tasks, int max_processors, Heuristic h,
                           Acceptance acc) {
  RefPartition res;
  res.assignment.assign(tasks.size(), -1);
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const bool decreasing =
      h == Heuristic::kFirstFitDecreasing || h == Heuristic::kBestFitDecreasing;
  if (decreasing) {
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return tasks[a].utilization() > tasks[b].utilization();
    });
  }
  const Heuristic rule = decreasing
                             ? (h == Heuristic::kFirstFitDecreasing ? Heuristic::kFirstFit
                                                                    : Heuristic::kBestFit)
                             : h;
  auto& procs = res.bins;
  for (const std::size_t i : order) {
    int chosen = -1;
    for (int p = 0; p < static_cast<int>(procs.size()); ++p) {
      if (!ref_accepts(procs[static_cast<std::size_t>(p)], tasks[i], acc)) continue;
      if (rule == Heuristic::kFirstFit) {
        chosen = p;
        break;
      }
      if (chosen == -1) {
        chosen = p;
        continue;
      }
      const double cur = total_utilization(procs[static_cast<std::size_t>(chosen)]);
      const double cand = total_utilization(procs[static_cast<std::size_t>(p)]);
      if (rule == Heuristic::kBestFit ? cand > cur : cand < cur) chosen = p;
    }
    if (chosen == -1) {
      if (static_cast<int>(procs.size()) < max_processors && ref_accepts({}, tasks[i], acc)) {
        procs.emplace_back();
        chosen = static_cast<int>(procs.size()) - 1;
      } else {
        continue;
      }
    }
    procs[static_cast<std::size_t>(chosen)].push_back(tasks[i]);
    res.assignment[i] = chosen;
  }
  return res;
}

/// The ensemble as it behaved when every admit re-partitioned the whole
/// set (twice on a reject) and rebuilt every member simulator.
class RefEnsemble {
 public:
  RefEnsemble(std::vector<UniTask> tasks, PartitionConfig cfg)
      : tasks_(std::move(tasks)), cfg_(cfg) {
    rebuild();
  }

  bool admit(const UniTask& t) {
    tasks_.push_back(t);
    rebuild();
    if (part_.assignment.back() < 0) {
      tasks_.pop_back();
      rebuild();
      ++rejected_;
      return false;
    }
    ++admitted_;
    return true;
  }

  void run_until(Time until) {
    for (UniprocSimulator& s : sims_) s.run_until(until);
  }

  [[nodiscard]] engine::Metrics metrics() const {
    engine::Metrics m;
    for (const UniprocSimulator& s : sims_) m.merge(s.metrics());
    m.tasks_admitted = admitted_;
    m.tasks_rejected = rejected_;
    return m;
  }

  [[nodiscard]] const std::vector<int>& assignment() const { return part_.assignment; }
  [[nodiscard]] int processors() const { return static_cast<int>(part_.bins.size()); }
  [[nodiscard]] std::vector<std::size_t> unplaced() const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < part_.assignment.size(); ++i)
      if (part_.assignment[i] < 0) out.push_back(i);
    return out;
  }
  [[nodiscard]] const std::vector<std::vector<UniTask>>& bins() const { return part_.bins; }

 private:
  void rebuild() {
    part_ = ref_partition(tasks_, cfg_.max_processors, cfg_.heuristic, cfg_.acceptance);
    UniSimConfig uc;
    uc.algorithm = cfg_.algorithm;
    sims_.clear();
    for (const std::vector<UniTask>& g : part_.bins) sims_.emplace_back(g, uc);
  }

  std::vector<UniTask> tasks_;
  PartitionConfig cfg_;
  RefPartition part_;
  std::vector<UniprocSimulator> sims_;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
};

// ---------------------------------------------------------------------------
// Inputs.

/// Periods 10..64.  When `light`, utilizations average ~1/30, so an EDF
/// bin fills up with ~30 tasks and its exact load's denominator (up to
/// the lcm of the members' periods) often outgrows int64.
std::vector<UniTask> random_set(Rng& rng, std::size_t n, bool light) {
  std::vector<UniTask> out;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t p = rng.uniform_int(10, 64);
    const std::int64_t e = rng.uniform_int(1, light ? std::max<std::int64_t>(1, p / 20) : p / 2);
    out.push_back(UniTask{e, p});
  }
  return out;
}

/// True when a bin's int64 Rational load disagrees with its double load,
/// i.e. the exact sum wrapped.
bool load_wrapped(const std::vector<UniTask>& bin) {
  Rational u(0);
  for (const UniTask& t : bin) u += Rational(t.execution, t.period);
  return std::fabs(u.to_double() - total_utilization(bin)) > 1e-6;
}

void expect_same_metrics(const engine::Metrics& a, const engine::Metrics& b,
                         const std::string& where) {
  EXPECT_EQ(a.tasks_admitted, b.tasks_admitted) << where;
  EXPECT_EQ(a.tasks_rejected, b.tasks_rejected) << where;
  EXPECT_EQ(a.jobs_released, b.jobs_released) << where;
  EXPECT_EQ(a.jobs_completed, b.jobs_completed) << where;
  EXPECT_EQ(a.deadline_misses, b.deadline_misses) << where;
  EXPECT_EQ(a.first_miss_time, b.first_miss_time) << where;
  EXPECT_EQ(a.preemptions, b.preemptions) << where;
  EXPECT_EQ(a.migrations, b.migrations) << where;
  EXPECT_EQ(a.context_switches, b.context_switches) << where;
  EXPECT_EQ(a.scheduler_invocations, b.scheduler_invocations) << where;
  EXPECT_EQ(a.scheduling_points, b.scheduling_points) << where;
}

constexpr Heuristic kHeuristics[] = {Heuristic::kFirstFit, Heuristic::kBestFit,
                                     Heuristic::kWorstFit, Heuristic::kFirstFitDecreasing,
                                     Heuristic::kBestFitDecreasing};
constexpr Acceptance kAcceptances[] = {Acceptance::kEdfUtilization, Acceptance::kRmLiuLayland,
                                       Acceptance::kRmExact};

/// Runs one configuration: `initial` through the constructor, then
/// `arrivals` one admit at a time, comparing after every step.  Returns
/// how many of the final bins hold a wrapped exact load.
int run_case(const std::vector<UniTask>& initial, const std::vector<UniTask>& arrivals,
              const PartitionConfig& cfg, const std::string& where) {
  PartitionedSimulator sim(initial, cfg);
  RefEnsemble ref(initial, cfg);
  EXPECT_EQ(sim.assignment(), ref.assignment()) << where << " (constructor)";
  for (std::size_t k = 0; k < arrivals.size(); ++k) {
    const UniTask& t = arrivals[k];
    const std::string step = where + " admit " + std::to_string(k);
    EXPECT_EQ(sim.admit(engine::task_spec(t.execution, t.period)), ref.admit(t)) << step;
    EXPECT_EQ(sim.assignment(), ref.assignment()) << step;
    EXPECT_EQ(sim.processors(), ref.processors()) << step;
    EXPECT_EQ(sim.unplaced(), ref.unplaced()) << step;
  }
  sim.run_until(600);
  ref.run_until(600);
  expect_same_metrics(sim.metrics(), ref.metrics(), where);
  return static_cast<int>(std::count_if(ref.bins().begin(), ref.bins().end(), load_wrapped));
}

std::string label(Heuristic h, Acceptance a, int cap, int trial) {
  return std::string(heuristic_name(h)) + "/" + acceptance_name(a) + " cap " +
         std::to_string(cap) + " trial " + std::to_string(trial);
}

TEST(PartitionedDiff, AdmitsMatchFromScratchRepartition) {
  Rng rng(0x1d1ff);
  for (int trial = 0; trial < 6; ++trial) {
    const std::vector<UniTask> initial = random_set(rng, 6, /*light=*/false);
    const std::vector<UniTask> arrivals = random_set(rng, 24, /*light=*/false);
    for (const Heuristic h : kHeuristics)
      for (const Acceptance a : kAcceptances)
        for (const int cap : {1, 3, 1 << 12}) {
          PartitionConfig cfg;
          cfg.heuristic = h;
          cfg.acceptance = a;
          cfg.max_processors = cap;
          cfg.algorithm = a == Acceptance::kEdfUtilization ? UniAlgorithm::kEDF
                                                           : UniAlgorithm::kRM;
          (void)run_case(initial, arrivals, cfg, label(h, a, cap, trial));
        }
  }
}

TEST(PartitionedDiff, PartitionUniMatchesReference) {
  Rng rng(0x1d200);
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<UniTask> tasks = random_set(rng, 30, trial % 2 == 0);
    for (const Heuristic h : kHeuristics)
      for (const Acceptance a : kAcceptances)
        for (const int cap : {2, 4, 1 << 12}) {
          const UniPartitionResult got = partition_uni(tasks, cap, h, a);
          const RefPartition want = ref_partition(tasks, cap, h, a);
          const std::string where = label(h, a, cap, trial);
          EXPECT_EQ(got.assignment, want.assignment) << where;
          EXPECT_EQ(got.processors_used, static_cast<int>(want.bins.size())) << where;
          EXPECT_EQ(got.feasible, std::count(want.assignment.begin(), want.assignment.end(),
                                             -1) == 0)
              << where;
        }
  }
}

TEST(PartitionedDiff, WrappedBinLoadsDecideIdentically) {
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__)
  // The wrap is ROADMAP item 2's known defect: checked_mul asserts on it,
  // and its unchecked addition is a signed overflow UBSan reports (the
  // sanitizer build enables UBSan together with ASan).
  GTEST_SKIP() << "exercises the known int64 Rational wrap";
#else
  // Bins of ~30 light tasks with periods 10..64: the exact EDF load's
  // denominator overflows int64, and the incremental cached load must
  // wrap exactly as the reference's recomputed sum does.
  Rng rng(0x1d201);
  int wrapped = 0;
  for (int trial = 0; trial < 4; ++trial) {
    const std::vector<UniTask> arrivals = random_set(rng, 96, /*light=*/true);
    for (const Heuristic h : kHeuristics)
      for (const int cap : {2, 1 << 12}) {
        PartitionConfig cfg;
        cfg.heuristic = h;
        cfg.max_processors = cap;
        wrapped += run_case({}, arrivals, cfg, label(h, Acceptance::kEdfUtilization, cap, trial));
      }
  }
  EXPECT_GT(wrapped, 0) << "inputs no longer exercise the Rational wrap";
#endif
}

// ---------------------------------------------------------------------------
// Observation: processors opened by later admits stamp their global id.

struct ProcRecorder final : obs::Sink {
  std::vector<ProcId> procs;
  void on_event(const obs::Event& e) override {
    if (e.kind == obs::EventKind::kJobRelease) procs.push_back(e.proc);
  }
};

TEST(PartitionedDiff, ObserverAttachedBeforeAdmitsSeesEveryProcessor) {
  PartitionConfig cfg;
  PartitionedSimulator sim({}, cfg);
  obs::EventBus bus;
  ProcRecorder rec;
  bus.add_sink(&rec);
  sim.attach_observer(&bus);
  // Four 2/3 tasks: first fit opens a new processor for each one.
  for (int k = 0; k < 4; ++k) ASSERT_TRUE(sim.admit(engine::task_spec(2, 3)));
  ASSERT_EQ(sim.processors(), 4);
  sim.run_until(3);
  std::vector<ProcId> seen = rec.procs;
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<ProcId>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace pfair
