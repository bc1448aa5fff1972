// sweep-kernel and sweep-wide: PD2 vs partitioned EDF-FF on the same
// generated task sets, compare_runtime-shaped, fanned out over an
// engine::ParallelSweep.
//
// Each trial runs one set through both legs with
// engine::compare_schedulers; a trial counts as done when both legs
// admitted the whole set and ran to the horizon (an EDF-FF packing
// failure is a correct answer, not a failure).  The traced run makes
// the same calls itself — make_simulator, each admit, run_until, per
// leg — inside spans, and must reproduce every trial's behaviour
// digest.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <string>

#include "engine/compare.h"
#include "engine/factory.h"
#include "engine/parallel.h"
#include "gen.h"
#include "workloads.h"

namespace perfbench {

namespace {

using pfair::Time;
using pfair::UniTask;
namespace engine = pfair::engine;

constexpr double kLoads[] = {0.30, 0.50, 0.70, 0.85};
constexpr std::size_t kLoadCount = std::size(kLoads);

struct SweepWorkload {
  std::uint64_t tag;  ///< generator stream
  int m;
  Time horizon;
  std::size_t sets_per_load;  ///< per round
  double tail_q;
};

SweepWorkload workload_of(const std::string& name) {
  // sweep-kernel: the slot kernel and the uniprocessor EDF simulators
  // dominate.  sweep-wide: n = 5m = 320 tasks make each admit
  // re-partition the whole set, and the short horizon leaves the
  // kernel little to do.  Each tail quantile keeps at least ten trials
  // beyond it in a 15 s run: 1500-2300 trials on sweep-kernel, 90-130
  // on sweep-wide, as fast as the host runs.
  if (name == "sweep-wide") return SweepWorkload{4, 64, 200, 2, 0.75};
  return SweepWorkload{3, 16, 8000, 16, 0.95};
}

engine::SimulatorConfig pd2_config(int m) {
  engine::SimulatorConfig sc;
  sc.pfair.processors = m;
  sc.pfair.algorithm = pfair::Algorithm::kPD2;
  return sc;
}

engine::SimulatorConfig ff_config(int m) {
  engine::SimulatorConfig sc;
  sc.partitioned.max_processors = m;
  return sc;
}

struct TrialOut {
  bool placed = false;  ///< both legs admitted the set and ran to the horizon
  bool missed = false;  ///< a placed leg missed a deadline
  std::string error;    ///< what the library threw, if it did
  std::uint64_t digest = 0;
  std::uint64_t cpu_ns = 0;  ///< the trial's thread CPU time (untraced run)
  // traced run only
  std::vector<Span> spans;
  engine::Metrics pd2;
  engine::Metrics ff;
};

std::uint64_t behaviour_digest(bool placed, const engine::Metrics& a, const engine::Metrics& b) {
  std::uint64_t h = fnv1a_u64(placed ? 1 : 0, fnv1a(""));
  for (const engine::Metrics* m : {&a, &b})
    for (const std::uint64_t v : {m->tasks_admitted, m->tasks_rejected, m->slots,
                                  m->jobs_completed, m->deadline_misses, m->preemptions,
                                  m->migrations, m->context_switches, m->scheduling_points})
      h = fnv1a_u64(v, h);
  return h;
}

TrialOut run_trial(const std::vector<UniTask>& set, const SweepWorkload& w,
                   const std::vector<engine::SchedulerSpec>& specs) {
  TrialOut out;
  const std::int64_t t0 = thread_cpu_ns();
  std::vector<engine::CompareResult> res;
  try {
    res = engine::compare_schedulers(set, specs, w.horizon);
  } catch (const std::exception& ex) {
    out.error = ex.what();
    out.digest = fnv1a(out.error);
    return out;
  }
  out.cpu_ns = static_cast<std::uint64_t>(thread_cpu_ns() - t0);
  out.placed = res[0].feasible && res[1].feasible;
  out.missed = (res[0].feasible && res[0].metrics.deadline_misses != 0) ||
               (res[1].feasible && res[1].metrics.deadline_misses != 0);
  out.digest = behaviour_digest(out.placed, res[0].metrics, res[1].metrics);
  return out;
}

/// The same trial through explicit calls, one span per call.
TrialOut trace_trial(const std::vector<UniTask>& set, const SweepWorkload& w,
                     std::uint64_t id) {
  Tracer tr;
  const std::int32_t root = tr.begin(Layer::kTrial, id);
  const auto leg = [&](engine::SchedulerKind kind, const engine::SimulatorConfig& sc,
                       Layer admit_span, Layer run_span, engine::Metrics& m) {
    std::unique_ptr<engine::Simulator> sim;
    {
      const Scope span(tr, Layer::kFactory, id);
      sim = engine::make_simulator(kind, sc);
    }
    for (const UniTask& t : set) {
      const Scope span(tr, admit_span, id);
      sim->admit(engine::task_spec(t.execution, t.period));
    }
    const bool feasible = sim->metrics().tasks_rejected == 0;
    if (feasible) {
      const Scope span(tr, run_span, id);
      sim->run_until(w.horizon);
    }
    m = sim->metrics();
    return feasible;
  };
  TrialOut out;
  bool pd2_ok = false;
  bool ff_ok = false;
  try {
    pd2_ok = leg(engine::SchedulerKind::kPfair, pd2_config(w.m), Layer::kPfairAdmit,
                 Layer::kPfairRunUntil, out.pd2);
    ff_ok = leg(engine::SchedulerKind::kPartitioned, ff_config(w.m), Layer::kPartitionAdmit,
                Layer::kUniprocRunUntil, out.ff);
  } catch (const std::exception& ex) {
    out.error = ex.what();
  }
  tr.end(root);
  out.spans = tr.spans();
  if (!out.error.empty()) {
    out.digest = fnv1a(out.error);
    return out;
  }
  out.placed = pd2_ok && ff_ok;
  out.missed = (pd2_ok && out.pd2.deadline_misses != 0) || (ff_ok && out.ff.deadline_misses != 0);
  out.digest = behaviour_digest(out.placed, out.pd2, out.ff);
  return out;
}

/// One round's task sets; trial t runs at load kLoads[t % 4].
std::vector<std::vector<UniTask>> make_round(const SweepWorkload& w, std::uint64_t seed,
                                             std::uint64_t round) {
  std::vector<std::vector<UniTask>> sets;
  const std::size_t trials = w.sets_per_load * kLoadCount;
  for (std::size_t t = 0; t < trials; ++t) {
    const double load = kLoads[t % kLoadCount];
    sets.push_back(sweep_taskset(static_cast<std::size_t>(5 * w.m),
                                 load * static_cast<double>(w.m),
                                 stream_key(seed, w.tag, round, t)));
  }
  return sets;
}

}  // namespace

Report run_sweep(const Options& o) {
  const SweepWorkload w = workload_of(o.workload);
  const std::vector<engine::SchedulerSpec> specs = {
      engine::kind_spec("PD2", engine::SchedulerKind::kPfair, pd2_config(w.m)),
      engine::kind_spec("EDF-FF", engine::SchedulerKind::kPartitioned, ff_config(w.m))};
  Report r;
  EndToEnd e;
  e.tail_q = w.tail_q;
  LayerTotals lt;
  std::string first_spans;
  std::uint64_t round0_digest = 0;
  const std::int64_t start = now_ns();
  std::uint64_t rounds = 0;
  for (std::uint64_t round = 0;; ++round) {
    const std::int64_t s0 = now_ns();
    const std::vector<std::vector<UniTask>> sets = make_round(w, o.seed, round);
    engine::ParallelSweep sweep(workers(), o.seed);
    e.setups.push_back(static_cast<double>(now_ns() - s0) * 1e-9);
    ++rounds;
    const auto trials = static_cast<long long>(sets.size());
    if (round == 0) {
      std::uint64_t h = fnv1a("");
      for (const auto& set : sets) h = digest_tasks(set, h);
      char buf[200];
      std::snprintf(buf, sizeof buf, "%s inputs: m=%d, %d tasks per set, horizon %lld, "
                    "%lld sets per round, %d workers, round-0 digest %016llx",
                    o.workload.c_str(), w.m, 5 * w.m, static_cast<long long>(w.horizon),
                    trials, sweep.jobs(), static_cast<unsigned long long>(h));
      r.note(buf);
    }

    const std::int64_t w0 = now_ns();
    const std::vector<TrialOut> outs =
        sweep.run(round, trials, [&](long long t, pfair::Rng&) {
          return run_trial(sets[static_cast<std::size_t>(t)], w, specs);
        });
    const double wall = static_cast<double>(now_ns() - w0) * 1e-9;
    e.busy_s += wall;
    std::uint64_t round_digest = fnv1a("");
    for (const TrialOut& t : outs) {
      ++r.attempted;
      const std::string where =
          "round " + std::to_string(round) + " trial " + std::to_string(&t - outs.data());
      round_digest = fnv1a_u64(t.digest, round_digest);
      if (!t.error.empty()) {
        r.fail_op("a trial threw", where + ": " + t.error);
        continue;
      }
      if (t.missed) r.defect("a leg missed a deadline", where);
      e.latency.add(static_cast<double>(t.cpu_ns));
      if (t.placed) ++e.done;
    }
    if (round == 0) round0_digest = round_digest;

    if (o.trace) {
      lt.untraced_wall_s += wall;
      const std::int64_t t0 = now_ns();
      const std::vector<TrialOut> traced =
          sweep.run(round, trials, [&](long long t, pfair::Rng&) {
            return trace_trial(sets[static_cast<std::size_t>(t)], w,
                               (round << 32) + static_cast<std::uint64_t>(t));
          });
      const double twall = static_cast<double>(now_ns() - t0) * 1e-9;
      lt.traced_wall_s += twall;
      lt.pool_capacity_s += twall * sweep.jobs();
      for (std::size_t t = 0; t < traced.size(); ++t) {
        const TrialOut& x = traced[t];
        r.check(x.digest == outs[t].digest, "a traced trial behaves unlike the untraced one",
                [&] { return "round " + std::to_string(round) + " trial " + std::to_string(t); });
        add_self_times(x.spans, lt.self_s);
        if (round == 0) write_spans(x.spans, first_spans);
        const Span& root = x.spans.front();
        lt.trial_busy_s += static_cast<double>(root.end_ns - root.start_ns) * 1e-9;
        ++lt.units;
        for (const Span& s : x.spans)
          if (s.name == Layer::kPartitionAdmit) ++lt.partition_admit_calls;
        lt.tasks_placed += x.ff.tasks_admitted;
        lt.tasks_unplaced += x.ff.tasks_rejected;
        lt.pfair_slots += x.pd2.slots;
        lt.pfair_preemptions += x.pd2.preemptions;
        lt.pfair_migrations += x.pd2.migrations;
        lt.pfair_sched_points += x.pd2.scheduling_points;
        lt.uniproc_sched_points += x.ff.scheduling_points;
      }
    }

    if (round == 0) {
      // Determinism: the same sets through fresh simulators must give
      // the same behaviour counts.
      const std::vector<TrialOut> again =
          sweep.run(round, trials, [&](long long t, pfair::Rng&) {
            return run_trial(sets[static_cast<std::size_t>(t)], w, specs);
          });
      for (std::size_t t = 0; t < again.size(); ++t)
        r.check(again[t].digest == outs[t].digest,
                "behaviour digest differs between repeats of the same trial",
                [&] { return "round 0 trial " + std::to_string(t); });
    }

    const double measured = e.busy_s + lt.traced_wall_s;
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    if (measured >= o.seconds || elapsed > 120.0) break;
  }

  char buf[200];
  std::snprintf(buf, sizeof buf, "%s: %llu round(s), round-0 behaviour digest %016llx",
                o.workload.c_str(), static_cast<unsigned long long>(rounds),
                static_cast<unsigned long long>(round0_digest));
  r.note(buf);
  if (o.trace) {
    add_layer_metrics(r, lt);
    if (!o.trace_out.empty()) std::ofstream(o.trace_out) << first_spans;
  } else {
    add_end_to_end(r, e, /*serve=*/false);
  }
  return r;
}

}  // namespace perfbench
