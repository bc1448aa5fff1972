// Hot-path equivalence suite: the perf machinery (packed priority keys,
// sharded lane sweeps, idle fast-forward, incremental bookkeeping) must
// be invisible — byte-identical metrics, traces, and event streams
// across shard counts and against per-slot stepping.  The golden digests
// (golden_digest_test.cpp) pin the same corpus to fixed values; the
// cell-by-cell comparisons here locate the first divergence when one
// moves.
#include <gtest/gtest.h>

#include <vector>

#include "golden_corpus.h"
#include "obs/bus.h"
#include "sim/pfair_sim.h"
#include "workload/generator.h"

namespace pfair {
namespace {

using golden::RecordingSink;
using golden::sparse_set;

void expect_metrics_identical(const engine::Metrics& a, const engine::Metrics& b,
                              const std::string& what) {
  EXPECT_EQ(a.slots, b.slots) << what;
  EXPECT_EQ(a.busy_quanta, b.busy_quanta) << what;
  EXPECT_EQ(a.idle_quanta, b.idle_quanta) << what;
  EXPECT_EQ(a.jobs_released, b.jobs_released) << what;
  EXPECT_EQ(a.jobs_completed, b.jobs_completed) << what;
  EXPECT_EQ(a.deadline_misses, b.deadline_misses) << what;
  EXPECT_EQ(a.component_misses, b.component_misses) << what;
  EXPECT_EQ(a.preemptions, b.preemptions) << what;
  EXPECT_EQ(a.migrations, b.migrations) << what;
  EXPECT_EQ(a.context_switches, b.context_switches) << what;
  EXPECT_EQ(a.component_switches, b.component_switches) << what;
  EXPECT_EQ(a.scheduler_invocations, b.scheduler_invocations) << what;
  EXPECT_EQ(a.lag_violations, b.lag_violations) << what;
  EXPECT_EQ(a.first_miss_time, b.first_miss_time) << what;
  EXPECT_EQ(a.response_time.count(), b.response_time.count()) << what;
  // Response times are sums of exact small integers; the running-stat
  // accumulation order is identical, so even the doubles must match.
  EXPECT_EQ(a.response_time.mean(), b.response_time.mean()) << what;
  EXPECT_EQ(a.response_time.min(), b.response_time.min()) << what;
  EXPECT_EQ(a.response_time.max(), b.response_time.max()) << what;
}

void expect_traces_identical(const ScheduleTrace& a, const ScheduleTrace& b,
                             const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t t = 0; t < a.size(); ++t)
    ASSERT_EQ(a[t].proc_to_task, b[t].proc_to_task) << what << " slot " << t;
}

void expect_events_identical(const std::vector<obs::Event>& a,
                             const std::vector<obs::Event>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].kind == b[i].kind && a[i].time == b[i].time &&
                a[i].task == b[i].task && a[i].proc == b[i].proc &&
                a[i].value == b[i].value)
        << what << " event " << i << " diverges (kind "
        << static_cast<int>(a[i].kind) << " vs " << static_cast<int>(b[i].kind)
        << " at t = " << a[i].time << " vs " << b[i].time << ")";
  }
}

void expect_runs_identical(const golden::Run& a, const golden::Run& b,
                           const std::string& what) {
  expect_metrics_identical(a.metrics, b.metrics, what);
  expect_traces_identical(a.trace, b.trace, what);
  expect_events_identical(a.events, b.events, what);
}

/// Runs every case at shards 2 and 8 and compares each run with the
/// single-shard run, metric by metric, slot by slot and event by event.
void expect_shards_identical(const std::vector<golden::Case>& cases) {
  for (const golden::Case& c : cases) {
    const std::vector<golden::Run> one = c.runs(1);
    for (const int shards : {2, 8}) {
      const std::vector<golden::Run> cell = c.runs(shards);
      ASSERT_EQ(cell.size(), one.size()) << c.name;
      for (std::size_t i = 0; i < one.size(); ++i) {
        expect_runs_identical(cell[i], one[i], c.name + "/run " + std::to_string(i) +
                                                   "/shards " + std::to_string(shards));
      }
    }
  }
}

// --- sharded SoA kernel ---------------------------------------------------

// Every generator profile x every subtask-priority algorithm.  The
// observer forces the per-slot path, so the sweep/merge machinery itself
// is what's compared.
TEST(HotpathDiff, ShardedRunsMatchSingleShardOnEveryProfileAndAlgorithm) {
  expect_shards_identical(golden::profile_cases());
}

// kDrop runs the miss cascade (dropping a missed subtask releases its
// successor), the one phase-A step that mutates lanes mid-sweep.
TEST(HotpathDiff, DropPolicyCascadeMatchesAcrossShards) {
  expect_shards_identical(golden::drop_cases());
}

// Runs that really miss: the per-shard miss lists must merge into one
// priority-ordered kDeadlineMiss sequence, late subtasks must be counted
// once however long they wait, and dropped ones must not be counted
// again.
TEST(HotpathDiff, MissingRunsMatchAcrossShards) {
  const std::vector<golden::Case> cases = golden::miss_cases();
  std::size_t runs = 0;
  std::size_t missing = 0;
  for (const golden::Case& c : cases) {
    for (const golden::Run& r : c.runs(1)) {
      ++runs;
      if (r.metrics.deadline_misses > 0) ++missing;
    }
  }
  // Only PD2, PF and PD on EPDF's counterexample stay miss-free.
  EXPECT_EQ(missing, runs - 3);
  expect_shards_identical(cases);
}

// Supertasks run through the shared steps of the slot kernel (component
// release/dispatch), so a sharded run with a bound server plus ordinary
// tasks must match the single-shard run, component misses included.
TEST(HotpathDiff, ShardedSupertasksMatchSingleShard) {
  const golden::Run one = golden::run_bound_supertask(1);
  EXPECT_GT(one.metrics.component_switches, 0u);
  for (const int shards : {2, 8}) {
    expect_runs_identical(golden::run_bound_supertask(shards), one,
                          "supertask shards " + std::to_string(shards));
  }
}

// --- idle fast-forward ---------------------------------------------------

// Fast-forward on vs off, with the horizon split at every boundary: the
// jump must be invisible in metrics and trace no matter where run_until
// re-enters the loop, and it must actually fire on this workload.
TEST(HotpathDiff, FastForwardEquivalentAtEverySplitPoint) {
  constexpr Time kHorizon = 200;
  PfairConfig base;
  base.processors = 2;
  base.record_trace = true;

  PfairConfig no_ff = base;
  no_ff.idle_fast_forward = false;
  PfairSimulator ref(no_ff);
  const TaskSet sparse = sparse_set();
  for (const Task& t : sparse.tasks()) ref.add_task(t);
  ref.run_until(kHorizon);
  EXPECT_EQ(ref.fast_forwarded_slots(), 0u);

  for (Time split = 1; split < kHorizon; ++split) {
    PfairSimulator sim(base);
    for (const Task& t : sparse.tasks()) sim.add_task(t);
    sim.run_until(split);
    sim.run_until(kHorizon);
    expect_metrics_identical(sim.metrics(), ref.metrics(),
                             "split at " + std::to_string(split));
    expect_traces_identical(sim.trace(), ref.trace(),
                            "split at " + std::to_string(split));
    EXPECT_GT(sim.fast_forwarded_slots(), 0u) << "split at " << split;
  }
}

TEST(HotpathDiff, FastForwardAutoDisablesUnderObserver) {
  PfairConfig cfg;
  cfg.processors = 2;
  PfairSimulator sim(cfg);
  obs::EventBus bus;
  RecordingSink sink;
  bus.add_sink(&sink);
  sim.attach_observer(&bus);
  const TaskSet sparse = sparse_set();
  for (const Task& t : sparse.tasks()) sim.add_task(t);
  sim.run_until(200);
  // Every slot needs its kSlotBegin/kSlotEnd, so no slot may be skipped.
  EXPECT_EQ(sim.fast_forwarded_slots(), 0u);
  std::size_t slot_begins = 0;
  for (const obs::Event& e : sink.events()) {
    if (e.kind == obs::EventKind::kSlotBegin) ++slot_begins;
  }
  EXPECT_EQ(slot_begins, 200u);
}

TEST(HotpathDiff, FastForwardAutoDisablesUnderSupertasks) {
  PfairConfig cfg;
  cfg.processors = 2;
  PfairSimulator sim(cfg);
  SupertaskSpec spec;
  spec.execution = 1;
  spec.period = 32;  // the server itself is sparse, but components tick
  spec.components.push_back(make_task(1, 8));
  sim.add_supertask(spec);
  sim.add_task(make_task(1, 32));
  sim.run_until(200);
  // Component jobs release and miss on their own clock, so every slot
  // must run even though the Pfair servers leave most slots idle.
  EXPECT_EQ(sim.fast_forwarded_slots(), 0u);
}

TEST(HotpathDiff, FastForwardAutoDisablesDuringPendingDeparture) {
  PfairConfig cfg;
  cfg.processors = 1;
  PfairSimulator sim(cfg);
  const TaskId id = sim.add_task(make_task(3, 7));
  sim.add_task(make_task(1, 64));
  sim.run_until(2);
  const Time freed = sim.request_leave(id).value();
  ASSERT_GT(freed, sim.now());  // rule holds the departure open for a while
  const std::uint64_t before = sim.fast_forwarded_slots();
  sim.run_until(freed + 1);  // slot `freed` processes the switch-over
  // The switch-over must fire on time, so no slot up to it is skipped.
  EXPECT_EQ(sim.fast_forwarded_slots(), before);
  // The departing task's weight is gone once the rule time arrives.
  EXPECT_EQ(sim.active_weight(), Rational(1, 64));
}

TEST(HotpathDiff, FastForwardStopsAtProcessorEvents) {
  // A total outage sits in the middle of a long idle stretch; runs with
  // and without fast-forward must apply it at the same instant.  The
  // jump target comes from the eligible_at lane minimum, clipped at the
  // next processor event.
  const golden::Run per_slot = golden::run_outage(1, /*fast_forward=*/false);
  EXPECT_EQ(per_slot.metrics.fast_forwarded_slots, 0u);
  for (const int shards : {1, 2, 8}) {
    const golden::Run ff = golden::run_outage(shards);
    EXPECT_GT(ff.metrics.fast_forwarded_slots, 0u);
    const std::string what = "ff vs per-slot, shards " + std::to_string(shards);
    expect_metrics_identical(ff.metrics, per_slot.metrics, what);
    expect_traces_identical(ff.trace, per_slot.trace, what);
  }
}

// --- incremental bookkeeping regressions ---------------------------------

// add_processor_event keeps the unconsumed suffix sorted under
// interleaved "future then nearer-future" registrations, including ones
// made after earlier events were already consumed.
TEST(HotpathDiff, ProcessorEventsRegisteredOutOfOrderApplyInTimeOrder) {
  PfairConfig cfg;
  cfg.processors = 4;
  cfg.record_trace = true;

  PfairSimulator sorted_reg(cfg);
  PfairSimulator interleaved(cfg);
  Rng rng(0xabc1);
  const TaskSet set = generate_feasible_taskset(rng, 2, 8, 16, /*fill=*/true);
  for (const Task& t : set.tasks()) {
    sorted_reg.add_task(t);
    interleaved.add_task(t);
  }

  sorted_reg.add_processor_event({20, 3});
  sorted_reg.add_processor_event({40, 2});
  sorted_reg.add_processor_event({60, 4});
  sorted_reg.add_processor_event({80, 3});
  sorted_reg.add_processor_event({90, 4});

  // Same events, registered out of order and across a consumed prefix.
  interleaved.add_processor_event({60, 4});
  interleaved.add_processor_event({20, 3});
  interleaved.add_processor_event({40, 2});
  interleaved.run_until(30);  // consumes the t = 20 event
  interleaved.add_processor_event({90, 4});
  interleaved.add_processor_event({80, 3});  // before the already-queued 90

  sorted_reg.run_until(120);
  interleaved.run_until(120);
  expect_metrics_identical(interleaved.metrics(), sorted_reg.metrics(),
                           "out-of-order registration");
  expect_traces_identical(interleaved.trace(), sorted_reg.trace(),
                          "out-of-order registration");
}

// Equal-time events must keep registration order (last registered wins),
// exactly as the pre-insertion-sort behaviour.
TEST(HotpathDiff, ProcessorEventsAtEqualTimesKeepRegistrationOrder) {
  PfairConfig cfg;
  cfg.processors = 4;
  cfg.record_trace = true;
  PfairSimulator sim(cfg);
  sim.add_task(make_task(1, 2));
  sim.add_processor_event({10, 1});
  sim.add_processor_event({10, 3});  // registered later, same slot: wins
  sim.run_until(15);
  // The trace row width records the live processor count per slot.
  EXPECT_EQ(sim.trace()[9].proc_to_task.size(), 4u);
  EXPECT_EQ(sim.trace()[10].proc_to_task.size(), 3u);
}

// The cached active-weight sum must track the O(N) recomputation across
// a randomized legal join / leave / reweight / fault script.
TEST(HotpathDiff, ActiveWeightCacheMatchesRecomputeUnderRandomScript) {
  Rng rng(0x5eed);
  for (int trial = 0; trial < 4; ++trial) {
    Rng trial_rng = rng.fork(static_cast<std::uint64_t>(trial));
    PfairConfig cfg;
    cfg.processors = 3;
    PfairSimulator sim(cfg);
    std::vector<TaskId> live;
    for (int step = 0; step < 40; ++step) {
      sim.run_until(sim.now() + trial_rng.uniform_int(1, 15));
      switch (trial_rng.uniform_int(0, 3)) {
        case 0: {
          const auto id = sim.join(random_pfair_task(trial_rng, 12));
          if (id.has_value()) live.push_back(*id);
          break;
        }
        case 1: {
          if (live.empty()) break;
          const std::size_t k = static_cast<std::size_t>(
              trial_rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
          sim.request_leave(live[k]);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
          break;
        }
        case 2: {
          if (live.empty()) break;
          const std::size_t k = static_cast<std::size_t>(
              trial_rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
          const std::int64_t p = trial_rng.uniform_int(1, 12);
          (void)sim.request_reweight(live[k], trial_rng.uniform_int(1, p), p);
          break;
        }
        case 3: {
          if (!live.empty() && trial_rng.uniform_int(0, 1) == 0) {
            sim.force_leave(live.back());
            live.pop_back();
          }
          break;
        }
      }
      ASSERT_EQ(sim.active_weight(), sim.recompute_active_weight())
          << "trial " << trial << " step " << step << " t = " << sim.now();
    }
  }
}

}  // namespace
}  // namespace pfair
