// Golden-digest corpus: a fixed, seeded set of PfairSimulator runs and a
// 64-bit digest of everything observable about each one.
//
// A case is one or more runs (typically one per priority rule), and its
// digest folds (FNV-1a) each run's deterministic metrics counters, every
// ScheduleTrace row and the full obs event stream (kind, time, task,
// proc, value) into one number.  The committed table of digests
// (tests/sim/golden_digests.inc, checked by golden_digest_test.cpp) is
// the reference schedule for the slot kernel: any change to a
// scheduling decision, to the order or payload of an emitted event, or
// to a counter moves at least one digest.
//
// The corpus covers
//   - every qa::Profile x {PD2, PF, PD, EPDF}, five generated cases per
//     profile (two seed families, the ones the hot-path differential
//     suite has always used);
//   - heavy generated cases under MissPolicy::kDrop, and runs that
//     really miss: EPDF's counterexample set and an overloaded set,
//     under both miss policies (the miss sweep and its merge order,
//     late subtasks counted once, dropped subtasks);
//   - a bound supertask next to ordinary tasks (component dispatch,
//     binding), and the paper's Fig.-5 system, whose supertask
//     component misses at t = 10, with a per-slot lag timeline;
//   - a processor outage inside a long idle stretch, run with the idle
//     fast-forward on and no observer (the jump itself is digested via
//     fast_forwarded_slots).
//
// Only integer-valued data enters a digest (floating-point event values
// are hashed by bit pattern, and all of them are exact: integer
// latencies, weights as correctly-rounded quotients, 0.0 for the timers
// that are off), so the table is the same for every compiler, flag set
// and sanitizer.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <utility>
#include <string>
#include <vector>

#include "obs/bus.h"
#include "qa/gen.h"
#include "sim/pfair_sim.h"
#include "workload/generator.h"

namespace pfair::golden {

/// Captures the full typed event stream.
class RecordingSink final : public obs::Sink {
 public:
  void on_event(const obs::Event& e) override { events_.push_back(e); }
  [[nodiscard]] const std::vector<obs::Event>& events() const noexcept { return events_; }

 private:
  std::vector<obs::Event> events_;
};

/// Everything a corpus run leaves behind.
struct Run {
  engine::Metrics metrics;
  ScheduleTrace trace;
  std::vector<obs::Event> events;
};

/// FNV-1a over 64-bit words (fed byte by byte, little-endian, so the
/// digest does not depend on the host's byte order).
class Fnv1a {
 public:
  void add(std::uint64_t v) noexcept {
    for (int k = 0; k < 8; ++k) {
      h_ ^= (v >> (8 * k)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add_signed(std::int64_t v) noexcept { add(static_cast<std::uint64_t>(v)); }
  void add_double(double v) noexcept { add(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

inline std::uint64_t digest(const std::vector<Run>& runs) {
  Fnv1a h;
  for (const Run& r : runs) {
    const engine::Metrics& m = r.metrics;
    for (const std::uint64_t v :
         {m.tasks_admitted, m.tasks_rejected, m.slots, m.busy_quanta, m.idle_quanta,
          m.fast_forwarded_slots, m.jobs_released, m.jobs_completed, m.deadline_misses,
          m.component_misses, m.preemptions, m.migrations, m.context_switches,
          m.component_switches, m.scheduler_invocations, m.scheduling_points,
          m.lag_violations}) {
      h.add(v);
    }
    h.add_signed(m.first_miss_time);
    h.add(m.response_time.count());
    h.add_double(m.response_time.min());
    h.add_double(m.response_time.max());
    h.add(r.trace.size());
    for (std::size_t t = 0; t < r.trace.size(); ++t) {
      h.add(r.trace[t].proc_to_task.size());
      for (const TaskId id : r.trace[t].proc_to_task) h.add(id);
    }
    h.add(r.events.size());
    for (const obs::Event& e : r.events) {
      h.add(static_cast<std::uint64_t>(e.kind));
      h.add_signed(e.time);
      h.add(e.task);
      h.add(e.proc);
      h.add_double(e.value);
    }
  }
  return h.value();
}

/// The base configuration of a corpus run.
inline PfairConfig config(int processors, Algorithm alg = Algorithm::kPD2,
                          MissPolicy policy = MissPolicy::kScheduleLate) {
  PfairConfig cfg;
  cfg.processors = processors;
  cfg.algorithm = alg;
  cfg.miss_policy = policy;
  return cfg;
}

/// Builds a simulator from `cfg` with the trace on and `shards` kernel
/// shards, attaches an observer when `observe` (which also keeps every
/// slot on the per-slot path), lets `script` add tasks and advance it,
/// and collects what the run left behind.
template <typename Script>
Run run(PfairConfig cfg, int shards, bool observe, Script&& script) {
  cfg.record_trace = true;
  cfg.shards = shards;
  PfairSimulator sim(cfg);
  obs::EventBus bus;
  RecordingSink sink;
  if (observe) {
    bus.add_sink(&sink);
    sim.attach_observer(&bus);
  }
  script(sim);
  return Run{sim.metrics(), sim.trace(), sink.events()};
}

/// Replays a fuzz case (including its dynamic join/leave script, in the
/// order qa's oracle replay applies it), observed.
inline Run run_fuzz_case(const qa::FuzzCase& c, Algorithm alg, MissPolicy policy,
                         int shards) {
  return run(config(c.processors, alg, policy), shards, true, [&c](PfairSimulator& sim) {
    for (const Task& t : c.tasks.tasks()) {
      Task spec = t;
      spec.kind = c.kind;
      sim.add_task(spec);
    }
    std::size_t next_join = 0;
    std::size_t next_leave = 0;
    while (next_join < c.joins.size() || next_leave < c.leaves.size()) {
      const Time t_join = next_join < c.joins.size() ? c.joins[next_join].at : c.horizon;
      const Time t_leave = next_leave < c.leaves.size() ? c.leaves[next_leave].at : c.horizon;
      const Time at = std::min({t_join, t_leave, c.horizon});
      if (at >= c.horizon) break;
      sim.run_until(at);
      while (next_leave < c.leaves.size() && c.leaves[next_leave].at == at) {
        sim.request_leave(c.leaves[next_leave].task);
        ++next_leave;
      }
      while (next_join < c.joins.size() && c.joins[next_join].at == at) {
        Task spec = c.joins[next_join].task;
        spec.kind = c.kind;
        (void)sim.join(spec);
        ++next_join;
      }
    }
    sim.run_until(c.horizon);
  });
}

/// A bound 2/5 supertask (components 1/4 and 1/8) beside two ordinary
/// tasks on two processors, observed for 400 slots.
inline Run run_bound_supertask(int shards) {
  return run(config(2), shards, true, [](PfairSimulator& sim) {
    SupertaskSpec spec;
    spec.execution = 2;
    spec.period = 5;
    spec.components.push_back(make_task(1, 4));
    spec.components.push_back(make_task(1, 8));
    sim.add_supertask(spec, /*bound_proc=*/0);
    sim.add_task(make_task(3, 7));
    sim.add_task(make_task(1, 3));
    sim.run_until(400);
  });
}

/// The Fig.-5 system on two processors for 90 slots, observed with a
/// kLagSample per task every slot.  Component T of the 2/9 supertask
/// misses at t = 10.
inline Run run_fig5(int shards) {
  PfairConfig cfg = config(2);
  cfg.lag_sample_every = 1;
  return run(cfg, shards, true, [](PfairSimulator& sim) {
    const Fig5System sys = fig5_system();
    sim.add_task(sys.normal_tasks[0]);
    sim.add_task(sys.normal_tasks[1]);
    sim.add_task(sys.normal_tasks[2]);
    sim.add_supertask(sys.supertask);
    sim.add_task(sys.normal_tasks[3]);
    sim.run_until(90);
  });
}

/// A sparse set whose schedule has long provably idle stretches.
inline TaskSet sparse_set() {
  TaskSet set;
  set.add(make_task(1, 32));
  set.add(make_task(1, 48));
  set.add(make_task(2, 64));
  return set;
}

/// The sparse set on two processors with a total outage over [100, 130)
/// in the middle of an idle stretch.  No observer, so the idle
/// fast-forward jumps (when `fast_forward`) and must stop at both
/// processor events.
inline Run run_outage(int shards, bool fast_forward = true) {
  PfairConfig cfg = config(2);
  cfg.idle_fast_forward = fast_forward;
  return run(cfg, shards, false, [](PfairSimulator& sim) {
    const TaskSet sparse = sparse_set();
    for (const Task& t : sparse.tasks()) sim.add_task(t);
    sim.add_processor_event({100, 0});
    sim.add_processor_event({130, 2});
    sim.run_until(300);
  });
}

/// One named corpus entry: its runs, in a fixed order.
struct Case {
  std::string name;
  std::function<std::vector<Run>(int shards)> runs;
};

inline const Algorithm kAlgorithms[] = {Algorithm::kPD2, Algorithm::kPF, Algorithm::kPD,
                                        Algorithm::kEPDF};

/// Five generated cases per profile — indices 0-2 of seed 0x90a7 +
/// profile and indices 0-1 of seed 0x50a0 + profile (max 4 processors,
/// 10 tasks) — each run under every rule in kAlgorithms.
inline std::vector<Case> profile_cases() {
  std::vector<Case> out;
  for (const qa::Profile profile : qa::all_profiles()) {
    qa::GenConfig gc;
    gc.only_profile = profile;
    gc.max_processors = 4;
    gc.max_tasks = 10;
    for (const auto& [family, count] : {std::pair<std::uint64_t, std::uint64_t>{0x90a7, 3},
                                        {0x50a0, 2}}) {
      const std::uint64_t seed = family + static_cast<std::uint64_t>(profile);
      const qa::TaskSetGen gen(gc, seed);
      for (std::uint64_t index = 0; index < count; ++index) {
        char name[64];
        std::snprintf(name, sizeof name, "%s/%llx/%llu", qa::profile_name(profile),
                      static_cast<unsigned long long>(seed),
                      static_cast<unsigned long long>(index));
        out.push_back(Case{name, [c = gen.make_case(index)](int shards) {
                             std::vector<Run> runs;
                             for (const Algorithm alg : kAlgorithms) {
                               runs.push_back(
                                   run_fuzz_case(c, alg, MissPolicy::kScheduleLate, shards));
                             }
                             return runs;
                           }});
      }
    }
  }
  return out;
}

/// Heavy-profile cases (seed 0xd309, max 3 processors, 8 tasks) under
/// kDrop, run under EPDF and PD2.
inline std::vector<Case> drop_cases() {
  std::vector<Case> out;
  qa::GenConfig gc;
  gc.only_profile = qa::Profile::kHeavy;
  gc.max_processors = 3;
  gc.max_tasks = 8;
  const qa::TaskSetGen gen(gc, /*seed=*/0xd309);
  for (std::uint64_t index = 0; index < 4; ++index) {
    out.push_back(Case{"drop/" + std::to_string(index),
                       [c = gen.make_case(index)](int shards) {
                         return std::vector<Run>{
                             run_fuzz_case(c, Algorithm::kEPDF, MissPolicy::kDrop, shards),
                             run_fuzz_case(c, Algorithm::kPD2, MissPolicy::kDrop, shards)};
                       }});
  }
  return out;
}

/// Runs `set` from time 0 for `horizon` slots, observed.
inline Run run_task_set(const TaskSet& set, const PfairConfig& cfg, Time horizon,
                        int shards) {
  return run(cfg, shards, true, [&set, horizon](PfairSimulator& sim) {
    for (const Task& t : set.tasks()) sim.add_task(t);
    sim.run_until(horizon);
  });
}

inline TaskSet task_set(std::initializer_list<std::pair<std::int64_t, std::int64_t>> weights) {
  TaskSet set;
  for (const auto& [e, p] : weights) set.add(make_task(e, p));
  return set;
}

/// Runs that miss deadlines, so the miss sweep and its merge order, the
/// at-most-once accounting of late subtasks (kScheduleLate) and dropped
/// subtasks (kDrop) show up in the digests:
///   - the feasible weight-6 set on 6 processors on which EPDF misses
///     and the optimal rules do not (tests/sim/ablation_test.cpp), under
///     every rule, plus EPDF under kDrop;
///   - an overloaded set (total weight 17/6 on 2 processors), which
///     every rule misses on, under both miss policies.
inline std::vector<Case> miss_cases() {
  const TaskSet counterexample =
      task_set({{6, 11}, {6, 11}, {4, 11}, {1, 2}, {9, 11}, {1, 9}, {1, 6}, {2, 2}, {1, 9},
                {2, 6}, {5, 7}, {5, 7}, {53, 693}});
  const TaskSet overload = task_set({{2, 3}, {2, 3}, {3, 4}, {1, 2}, {1, 4}});
  std::vector<Case> out;
  out.push_back(Case{"epdf-counterexample", [counterexample](int shards) {
                       std::vector<Run> runs;
                       for (const Algorithm alg : kAlgorithms) {
                         runs.push_back(
                             run_task_set(counterexample, config(6, alg), 1400, shards));
                       }
                       runs.push_back(run_task_set(
                           counterexample, config(6, Algorithm::kEPDF, MissPolicy::kDrop), 1400,
                           shards));
                       return runs;
                     }});
  for (const MissPolicy policy : {MissPolicy::kScheduleLate, MissPolicy::kDrop}) {
    out.push_back(Case{policy == MissPolicy::kDrop ? "overload/drop" : "overload/late",
                       [overload, policy](int shards) {
                         std::vector<Run> runs;
                         for (const Algorithm alg : kAlgorithms) {
                           runs.push_back(
                               run_task_set(overload, config(2, alg, policy), 120, shards));
                         }
                         return runs;
                       }});
  }
  return out;
}

/// The whole corpus, in table order.
inline std::vector<Case> corpus() {
  std::vector<Case> out = profile_cases();
  for (Case& c : drop_cases()) out.push_back(std::move(c));
  for (Case& c : miss_cases()) out.push_back(std::move(c));
  out.push_back(Case{"supertask/bound", [](int shards) {
                       return std::vector<Run>{run_bound_supertask(shards)};
                     }});
  out.push_back(Case{"supertask/fig5",
                     [](int shards) { return std::vector<Run>{run_fig5(shards)}; }});
  out.push_back(Case{"outage/fast-forward",
                     [](int shards) { return std::vector<Run>{run_outage(shards)}; }});
  return out;
}

}  // namespace pfair::golden
