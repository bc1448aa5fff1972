// The metric sets a run prints: end-to-end (untraced) and per-layer
// (traced).  Names and units match BENCHMARK.json.
#include <algorithm>
#include <cstdio>

#include "workloads.h"

namespace perfbench {

void add_end_to_end(Report& r, const EndToEnd& e, bool serve) {
  const char* unit_name = serve ? "decision" : "trial";
  const double throughput = e.busy_s > 0.0 ? static_cast<double>(e.done) / e.busy_s : 0.0;
  const double p50_us = e.latency.quantile(0.5) * 1e-3;
  const double tail_us = e.latency.quantile(e.tail_q) * 1e-3;
  const double failed_share =
      r.attempted > 0
          ? static_cast<double>(r.failed + r.defects) / static_cast<double>(r.attempted)
          : 1.0;
  const double rss = peak_rss_mb();
  const int tail_pct = static_cast<int>(e.tail_q * 100.0 + 0.5);
  std::vector<double> setups = e.setups;
  std::sort(setups.begin(), setups.end());
  const double setup_s = setups.empty() ? 0.0 : setups[setups.size() / 2];
  char buf[240];
  std::snprintf(buf, sizeof buf, "setup_s: %.6f s (median of %zu round set-ups)", setup_s,
                setups.size());
  r.note(buf);
  std::snprintf(buf, sizeof buf, "%s = throughput_per_s: %.1f 1/s (%llu %ss in %.3f s measured)",
                serve ? "decisions_per_s" : "trials_per_s", throughput,
                static_cast<unsigned long long>(e.done), unit_name, e.busy_s);
  r.note(buf);
  const char* latency_name = serve ? "decision" : "trial_cpu";
  std::snprintf(buf, sizeof buf,
                "%s_p50_us = latency_p50_us: %.3f us; %s_p%d_us = latency_tail_us: %.3f us "
                "(%llu samples)",
                latency_name, p50_us, latency_name, tail_pct, tail_us,
                static_cast<unsigned long long>(e.latency.total()));
  r.note(buf);
  std::snprintf(buf, sizeof buf,
                "failed_share = 1 - ok_share: %.6f (%llu defective and %llu failed of %llu %s)",
                failed_share, static_cast<unsigned long long>(r.defects),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted), serve ? "requests" : "trials");
  r.note(buf);
  std::snprintf(buf, sizeof buf, "peak_rss_mb: %.1f MB", rss);
  r.note(buf);

  r.metric("setup_s", setup_s, "s");
  r.metric("throughput_per_s", throughput, "1/s");
  r.metric("latency_p50_us", p50_us, "us");
  r.metric("latency_tail_us", tail_us, "us");
  r.metric("ok_share", 1.0 - failed_share, "ratio");
  r.metric("peak_rss_mb", rss, "MB");
}

void add_layer_metrics(Report& r, const LayerTotals& t) {
  const auto self = [&](Layer l) { return t.self_s[static_cast<std::size_t>(l)]; };
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  // Self times partition each root span, so what no layer owns is the
  // roots' own self time: Σ root durations minus Σ layer self time.
  const double unattributed = self(Layer::kRequest) + self(Layer::kTrial);
  const std::uint64_t lookups = t.memo_hits + t.memo_misses;
  const double pfair_run = self(Layer::kPfairRunUntil);

  r.metric("request.parse_s", self(Layer::kParse), "s");
  r.metric("request.parse_calls", count(t.parse_calls), "count");
  r.metric("admission.decide.tier0_s", self(Layer::kDecideTier0), "s");
  r.metric("admission.decide.tier1_s", self(Layer::kDecideTier1), "s");
  r.metric("admission.decide.tier2_s", self(Layer::kDecideTier2), "s");
  r.metric("admission.decide.tier0_decisions", count(t.tier_decisions[0]), "count");
  r.metric("admission.decide.tier1_decisions", count(t.tier_decisions[1]), "count");
  r.metric("admission.decide.tier2_decisions", count(t.tier_decisions[2]), "count");
  r.metric("admission.bookkeeping_s", self(Layer::kBookkeeping), "s");
  r.metric("admission.tier2_events", count(t.tier2_events), "count");
  r.metric("admission.tier2_approx", count(t.tier2_approx), "count");
  r.metric("admission.memo_hit_ratio",
           lookups > 0 ? count(t.memo_hits) / count(lookups) : 0.0, "ratio");
  r.metric("admission.memo_lookups", count(lookups), "count");
  r.metric("sim.dynamics_s", self(Layer::kDynamics), "s");
  r.metric("sim.refused", count(t.sim_refused), "count");
  r.metric("sim.run_until_s", self(Layer::kSimRunUntil), "s");
  r.metric("sim.slots", count(t.sim_slots), "count");
  r.metric("pfair.admit_s", self(Layer::kPfairAdmit), "s");
  r.metric("pfair.run_until_s", pfair_run, "s");
  r.metric("pfair.ns_per_slot", t.pfair_slots > 0 ? pfair_run * 1e9 / count(t.pfair_slots) : 0.0,
           "ns");
  r.metric("pfair.slots", count(t.pfair_slots), "count");
  r.metric("pfair.preemptions", count(t.pfair_preemptions), "count");
  r.metric("pfair.migrations", count(t.pfair_migrations), "count");
  r.metric("pfair.scheduling_points", count(t.pfair_sched_points), "count");
  r.metric("uniproc.run_until_s", self(Layer::kUniprocRunUntil), "s");
  r.metric("uniproc.scheduling_points", count(t.uniproc_sched_points), "count");
  r.metric("partition.admit_s", self(Layer::kPartitionAdmit), "s");
  r.metric("partition.admit_calls", count(t.partition_admit_calls), "count");
  r.metric("partition.tasks_placed", count(t.tasks_placed), "count");
  r.metric("partition.tasks_unplaced", count(t.tasks_unplaced), "count");
  r.metric("engine.factory_s", self(Layer::kFactory), "s");
  r.metric("parallel.busy_ratio",
           t.pool_capacity_s > 0.0 ? t.trial_busy_s / t.pool_capacity_s : 0.0, "ratio");
  r.metric("traced_wall_s", t.traced_wall_s, "s");
  r.metric("traced_units", count(t.units), "count");
  r.metric("unattributed_s", unattributed, "s");
  r.metric("trace_overhead_ratio",
           t.untraced_wall_s > 0.0 ? t.traced_wall_s / t.untraced_wall_s : 0.0, "ratio");

  char buf[200];
  std::snprintf(buf, sizeof buf,
                "traced %llu units in %.3f s wall (untraced %.3f s); unattributed %.3f s; "
                "memo %llu hits / %llu lookups",
                static_cast<unsigned long long>(t.units), t.traced_wall_s, t.untraced_wall_s,
                unattributed,
                static_cast<unsigned long long>(t.memo_hits),
                static_cast<unsigned long long>(lookups));
  r.note(buf);
}

}  // namespace perfbench
