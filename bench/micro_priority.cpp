// Ablation: cost of one priority comparison under each rule.
//
// PD2's selling point over PF is constant-time tie-breaking; this bench
// quantifies the gap (PF recurses over successor windows on ties) and
// shows PD2's two tie-breaks cost almost nothing over naive EPDF.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/priority.h"
#include "util/rng.h"

namespace {

using namespace pfair;

std::vector<SubtaskRef> make_refs(std::size_t n, std::uint64_t seed, bool heavy_ties,
                                  Algorithm alg = Algorithm::kPD2) {
  Rng rng(seed);
  std::vector<SubtaskRef> refs;
  refs.reserve(n);
  for (TaskId id = 0; id < n; ++id) {
    std::int64_t p, e;
    if (heavy_ties) {
      // Many heavy tasks with clashing deadlines: worst case for PF.
      p = rng.uniform_int(8, 12);
      e = rng.uniform_int((p + 1) / 2, p - 1);
    } else {
      p = rng.uniform_int(1, 64);
      e = rng.uniform_int(1, p);
    }
    refs.push_back(make_subtask_ref(id, e, p, rng.uniform_int(1, e), 0, alg));
  }
  return refs;
}

template <bool (*Higher)(const SubtaskRef&, const SubtaskRef&)>
void bm_compare(benchmark::State& state, bool heavy_ties) {
  const auto refs = make_refs(256, 42, heavy_ties);
  std::size_t i = 0;
  std::size_t j = 128;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Higher(refs[i], refs[j]));
    i = (i + 1) & 255;
    j = (j + 7) & 255;
  }
}

void BM_PD2_Compare(benchmark::State& s) { bm_compare<pd2_higher_priority>(s, false); }
void BM_PD_Compare(benchmark::State& s) { bm_compare<pd_higher_priority>(s, false); }
void BM_EPDF_Compare(benchmark::State& s) { bm_compare<epdf_higher_priority>(s, false); }
void BM_PF_Compare(benchmark::State& s) { bm_compare<pf_higher_priority>(s, false); }
void BM_PD2_Compare_HeavyTies(benchmark::State& s) { bm_compare<pd2_higher_priority>(s, true); }
void BM_PF_Compare_HeavyTies(benchmark::State& s) { bm_compare<pf_higher_priority>(s, true); }

BENCHMARK(BM_PD2_Compare);
BENCHMARK(BM_PD_Compare);
BENCHMARK(BM_EPDF_Compare);
BENCHMARK(BM_PF_Compare);
BENCHMARK(BM_PD2_Compare_HeavyTies);
BENCHMARK(BM_PF_Compare_HeavyTies);

// Packed-key comparison: the populations above, packed for `alg` and
// compared through SubtaskPriority — one 128-bit integer compare instead
// of the comparator chain the BM_*_Compare rows time (which stays the
// live path for PF and for refs whose fields do not fit a key).  This is
// the per-compare cost of the slot kernel's top-M selection.
void bm_packed_compare(benchmark::State& state, Algorithm alg, bool heavy_ties) {
  const auto refs = make_refs(256, 42, heavy_ties, alg);
  const SubtaskPriority pri(alg);
  std::size_t i = 0;
  std::size_t j = 128;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pri(refs[i], refs[j]));
    i = (i + 1) & 255;
    j = (j + 7) & 255;
  }
}

void BM_PD2_Compare_Packed(benchmark::State& s) {
  bm_packed_compare(s, Algorithm::kPD2, false);
}
void BM_PD2_Compare_Packed_HeavyTies(benchmark::State& s) {
  bm_packed_compare(s, Algorithm::kPD2, true);
}
void BM_PD_Compare_Packed(benchmark::State& s) { bm_packed_compare(s, Algorithm::kPD, false); }
void BM_EPDF_Compare_Packed(benchmark::State& s) {
  bm_packed_compare(s, Algorithm::kEPDF, false);
}

BENCHMARK(BM_PD2_Compare_Packed);
BENCHMARK(BM_PD2_Compare_Packed_HeavyTies);
BENCHMARK(BM_PD_Compare_Packed);
BENCHMARK(BM_EPDF_Compare_Packed);

void BM_MakeSubtaskRef(benchmark::State& state) {
  // Cost of computing (r, d, b, D) for one subtask — the per-schedule
  // state update PD2 performs for each selected task.
  Rng rng(7);
  struct Params {
    std::int64_t e, p, idx;
  };
  std::vector<Params> params;
  for (int k = 0; k < 256; ++k) {
    const std::int64_t p = rng.uniform_int(2, 1000);
    const std::int64_t e = rng.uniform_int(1, p);
    params.push_back({e, p, rng.uniform_int(1, 3 * e)});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const Params& pr = params[i];
    benchmark::DoNotOptimize(make_subtask_ref(0, pr.e, pr.p, pr.idx, 0));
    i = (i + 1) & 255;
  }
}
BENCHMARK(BM_MakeSubtaskRef);

}  // namespace
