// The four benchmark workloads and what they share.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "measure.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< where the traced run writes its first round's spans
};

/// Threads a workload runs on: the host's cores, at most 4.
[[nodiscard]] inline int workers() {
  return static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}

/// Everything the traced run adds up; zero for layers a workload never
/// calls, so every workload prints the same per-layer metric set.
struct LayerTotals {
  std::vector<double> self_s = std::vector<double>(kLayers, 0.0);
  std::uint64_t parse_calls = 0;
  std::uint64_t tier_decisions[3] = {0, 0, 0};
  std::uint64_t tier2_events = 0;
  std::uint64_t tier2_approx = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  std::uint64_t sim_refused = 0;
  std::uint64_t sim_slots = 0;
  std::uint64_t pfair_slots = 0;
  std::uint64_t pfair_preemptions = 0;
  std::uint64_t pfair_migrations = 0;
  std::uint64_t pfair_sched_points = 0;
  std::uint64_t uniproc_sched_points = 0;
  std::uint64_t partition_admit_calls = 0;
  std::uint64_t tasks_placed = 0;
  std::uint64_t tasks_unplaced = 0;
  double trial_busy_s = 0.0;     ///< Σ traced trial durations (sweeps)
  double pool_capacity_s = 0.0;  ///< Σ traced sweep wall × workers (sweeps)
  double traced_wall_s = 0.0;    ///< traced run, same inputs as untraced_wall_s
  double untraced_wall_s = 0.0;
  std::uint64_t units = 0;  ///< requests or trials traced
};

/// Appends every per-layer metric (the BENCHMARK.json per_layer list).
void add_layer_metrics(Report& r, const LayerTotals& t);

/// End-to-end timings of one untraced run.
struct EndToEnd {
  /// Per round: input generation plus daemon / pool construction, s.
  /// Timed every round, so the median spans the whole run.
  std::vector<double> setups;
  double busy_s = 0.0;      ///< measured time
  std::uint64_t done = 0;   ///< decisions or completed trials
  pfair::obs::Histogram latency = latency_histogram();  ///< ns, per decision or per trial
  double tail_q = 0.99;     ///< the workload's fixed tail quantile
};

/// Appends the end-to-end metrics (the BENCHMARK.json end_to_end list)
/// and the human-readable lines naming them per workload kind.
void add_end_to_end(Report& r, const EndToEnd& e, bool serve);

[[nodiscard]] Report run_serve(const Options& o);
[[nodiscard]] Report run_sweep(const Options& o);

}  // namespace perfbench
