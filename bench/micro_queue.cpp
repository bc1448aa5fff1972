// Ready-queue microbenchmarks: binary-heap operations at the queue
// sizes the Fig.-2 experiments reach.  The uniprocessor EDF/RM
// simulator's ready queue and release calendar are these heaps; this
// isolates the data-structure contribution to EDF's measured
// scheduling overhead.  (PD2's slot kernel keeps no queue — see
// micro_soa.)
#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "util/binary_heap.h"
#include "util/rng.h"

namespace {

using namespace pfair;

void BM_HeapPushPop_Int(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  BinaryHeap<std::int64_t, std::less<std::int64_t>> heap;
  Rng rng(1);
  for (std::size_t i = 0; i < n; ++i) heap.push(rng.uniform_int(0, 1 << 30));
  for (auto _ : state) {
    heap.push(rng.uniform_int(0, 1 << 30));
    benchmark::DoNotOptimize(heap.pop());
  }
}
BENCHMARK(BM_HeapPushPop_Int)->Arg(16)->Arg(100)->Arg(1000)->Arg(10000);

void BM_HeapErase_Middle(benchmark::State& state) {
  // Arbitrary-position erase via handles (needed by task leaves).
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  BinaryHeap<std::int64_t, std::less<std::int64_t>> heap;
  Rng rng(3);
  std::vector<HeapHandle> handles;
  for (std::size_t i = 0; i < n; ++i) handles.push_back(heap.push(rng.uniform_int(0, 1 << 30)));
  std::size_t k = 0;
  for (auto _ : state) {
    const HeapHandle h = handles[k % handles.size()];
    heap.erase(h);
    handles[k % handles.size()] = heap.push(rng.uniform_int(0, 1 << 30));
    ++k;
  }
}
BENCHMARK(BM_HeapErase_Middle)->Arg(100)->Arg(1000);

}  // namespace
