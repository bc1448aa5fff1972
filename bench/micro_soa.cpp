// SoA lane-sweep microbenches: the two primitives the slot kernel runs
// every quantum (core/simd.h collect_le / min_value), plus the
// end-to-end slot kernel single-threaded and sharded at processor
// counts up to 256.  The lane lengths match real task
// counts (the SoA has one entry per task), and the eligibility hit rate
// is set near a loaded simulation's (~1/8 of lanes ready per slot) so
// the gather's push_back rate is representative.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/simd.h"
#include "sim/pfair_sim.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace {

using namespace pfair;

std::vector<Time> make_lane(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Time> lane;
  lane.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // ~1/8 of values at or below the probe bound of 100.
    lane.push_back(rng.uniform_int(0, 800));
  }
  return lane;
}

void BM_CollectLe(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<Time> lane = make_lane(n, 0x50a5);
  std::vector<std::uint32_t> out;
  out.reserve(n);
  for (auto _ : state) {
    out.clear();
    simd::collect_le(lane.data(), n, /*bound=*/100, 0, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_MinValue(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<Time> lane = make_lane(n, 0x50a6);
  for (auto _ : state) {
    Time m = simd::min_value(lane.data(), n);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

BENCHMARK(BM_CollectLe)->Arg(256)->Arg(4096)->Arg(65536);
BENCHMARK(BM_MinValue)->Arg(256)->Arg(4096)->Arg(65536);

// End-to-end slot kernel: one full simulation stepped 256 slots per
// iteration.  Arg = tasks per processor-count variant; the workload
// fills the system (the busiest, sweep-heaviest case).
void bm_kernel(benchmark::State& state, int m, int shards) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(static_cast<std::uint64_t>(n) * 131 + static_cast<std::uint64_t>(m));
  const TaskSet set = generate_feasible_taskset(rng, m, n, 64, /*fill=*/true);
  PfairConfig cfg;
  cfg.processors = m;
  cfg.shards = shards;
  PfairSimulator sim(cfg);
  for (const Task& t : set.tasks()) sim.add_task(t);
  Time horizon = 0;
  for (auto _ : state) {
    horizon += 256;
    sim.run_until(horizon);
  }
  state.SetItemsProcessed(state.iterations() * 256);
  state.counters["misses"] = static_cast<double>(sim.metrics().deadline_misses);
}

void BM_Kernel_64cpu(benchmark::State& s) { bm_kernel(s, 64, 1); }
void BM_Kernel_64cpu_2Shards(benchmark::State& s) { bm_kernel(s, 64, 2); }
void BM_Kernel_256cpu(benchmark::State& s) { bm_kernel(s, 256, 1); }
void BM_Kernel_256cpu_8Shards(benchmark::State& s) { bm_kernel(s, 256, 8); }

BENCHMARK(BM_Kernel_64cpu)->Arg(512)->Arg(2048);
BENCHMARK(BM_Kernel_64cpu_2Shards)->Arg(512)->Arg(2048);
BENCHMARK(BM_Kernel_256cpu)->Arg(8192);
BENCHMARK(BM_Kernel_256cpu_8Shards)->Arg(8192);

}  // namespace
