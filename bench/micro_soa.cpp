// SoA lane-sweep microbenches: the primitives the slot kernel runs
// every quantum (core/simd.h collect_le / min_value), Phase A's local
// top-M selection by rank and by comparator sort over a sweep of
// candidate counts (the crossover behind simd::rank_pays), plus the
// end-to-end slot kernel single-threaded and sharded at processor
// counts up to 256 and in the perfbench sweep-kernel shape.  The lane
// lengths match real task counts (the SoA has one entry per task), and
// the eligibility hit rate is set near a loaded simulation's (~1/8 of
// lanes ready per slot) so the gather's write rate is representative.
#include <benchmark/benchmark.h>

#include <algorithm>
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
  simd::IndexVec out;
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

// Phase A's local top-M over Args = {c candidates, k = M picks}, by the
// two paths the kernel chooses between (k = 16 is the sweep-kernel
// processor count, k = 1 Fig. 2(a)'s).  The
// lanes hold PD2-shaped packed keys (hi = deadline << 16 with b-bit and
// group-deadline bits, lo ends in the task id) for 4096 task ids; each
// iteration takes the next of 256 pre-drawn candidate sets, so neither
// path can learn one set's branch pattern.
struct SelectionLanes {
  std::vector<std::uint64_t> key_hi;
  std::vector<std::uint64_t> key_lo;
  std::vector<std::uint8_t> key_alg;
  std::vector<simd::IndexVec> sets;
};

SelectionLanes make_selection_lanes(std::size_t c) {
  constexpr std::size_t kIds = 4096;
  Rng rng(0x70b5 + c);
  SelectionLanes l;
  for (std::size_t id = 0; id < kIds; ++id) {
    const auto deadline = static_cast<std::uint64_t>(rng.uniform_int(100, 140));
    const auto bits = static_cast<std::uint64_t>(rng.uniform_int(0, 3));
    l.key_hi.push_back((deadline << 16) | (bits << 14));
    l.key_lo.push_back((static_cast<std::uint64_t>(rng.uniform_int(0, 7)) << 32) | id);
    l.key_alg.push_back(static_cast<std::uint8_t>(Algorithm::kPD2));
  }
  for (int s = 0; s < 256; ++s) {
    simd::IndexVec ids;
    while (ids.size() < c) {
      const auto id = static_cast<std::uint32_t>(rng.uniform_int(0, kIds - 1));
      if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());  // the gather's ascending id order
    l.sets.push_back(ids);
  }
  return l;
}

void BM_TopM_Rank(benchmark::State& state) {
  const std::size_t c = static_cast<std::size_t>(state.range(0));
  const std::size_t k = static_cast<std::size_t>(state.range(1));
  const SelectionLanes l = make_selection_lanes(c);
  std::vector<std::uint64_t> hi(c);
  std::vector<std::uint64_t> lo(c);
  simd::IndexVec top;
  top.reserve(c);
  std::size_t next = 0;
  for (auto _ : state) {
    const simd::IndexVec& ids = l.sets[next++ & 255];
    unsigned keyed = 1;
    for (std::size_t i = 0; i < c; ++i) {
      hi[i] = l.key_hi[ids[i]];
      lo[i] = l.key_lo[ids[i]];
      keyed &= static_cast<unsigned>(l.key_alg[ids[i]] == 0);
    }
    benchmark::DoNotOptimize(keyed);
    simd::rank_select(hi.data(), lo.data(), ids.data(), c, k, top);
    benchmark::DoNotOptimize(top.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c));
}

void BM_TopM_Sort(benchmark::State& state) {
  const std::size_t c = static_cast<std::size_t>(state.range(0));
  const std::size_t kk = std::min(static_cast<std::size_t>(state.range(1)), c);
  const SelectionLanes l = make_selection_lanes(c);
  // The comparator the kernel sorts with (PfairSimulator::soa_less):
  // key-applicability and flip checks per call, then the two-word compare.
  const auto higher = [&l](std::uint32_t a, std::uint32_t b) {
    if (l.key_alg[a] == 0 && l.key_alg[b] == 0 && !pd2_b_bit_flip_for_test()) {
      return l.key_hi[a] != l.key_hi[b] ? l.key_hi[a] < l.key_hi[b] : l.key_lo[a] < l.key_lo[b];
    }
    return a < b;
  };
  simd::IndexVec top;
  top.reserve(c);
  std::size_t next = 0;
  for (auto _ : state) {
    const simd::IndexVec& ids = l.sets[next++ & 255];
    top.assign(ids.begin(), ids.end());
    std::partial_sort(top.begin(), top.begin() + static_cast<std::ptrdiff_t>(kk), top.end(),
                      higher);
    top.resize(kk);
    benchmark::DoNotOptimize(top.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c));
}

BENCHMARK(BM_TopM_Rank)
    ->ArgsProduct({{4, 8, 12, 16, 24, 32, 48, 64, 96, 128}, {1, 2, 4, 8, 16}});
BENCHMARK(BM_TopM_Sort)
    ->ArgsProduct({{4, 8, 12, 16, 24, 32, 48, 64, 96, 128}, {1, 2, 4, 8, 16}});

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

// The perfbench sweep-kernel shape: m = 16, 80 tasks with periods
// 10..64 and total utilization Arg/100 × 16 (its loads are 30, 50, 70
// and 85).  About 10 subtasks are eligible per slot, fewer than M, so
// this is where the top-M selection, not the gather, sets the cost.
void BM_Kernel_SweepShape(benchmark::State& state) {
  constexpr int m = 16;
  Rng rng(0x5eef + static_cast<std::uint64_t>(state.range(0)));
  const std::vector<UniTask> uni =
      generate_uni_tasks(rng, 80, static_cast<double>(state.range(0)) / 100.0 * m, 64);
  PfairConfig cfg;
  cfg.processors = m;
  PfairSimulator sim(cfg);
  for (const UniTask& t : uni) sim.add_task(make_task(t.execution, t.period));
  Time horizon = 0;
  for (auto _ : state) {
    horizon += 256;
    sim.run_until(horizon);
  }
  state.SetItemsProcessed(state.iterations() * 256);
  state.counters["misses"] = static_cast<double>(sim.metrics().deadline_misses);
}

BENCHMARK(BM_Kernel_SweepShape)->Arg(30)->Arg(50)->Arg(70)->Arg(85);
BENCHMARK(BM_Kernel_64cpu)->Arg(512)->Arg(2048);
BENCHMARK(BM_Kernel_64cpu_2Shards)->Arg(512)->Arg(2048);
BENCHMARK(BM_Kernel_256cpu)->Arg(8192);
BENCHMARK(BM_Kernel_256cpu_8Shards)->Arg(8192);

}  // namespace
