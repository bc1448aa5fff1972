// The SoA slot kernel, the simulator's only PD2/PD/PF/EPDF slot kernel:
// steps 2 and 4 of PfairSimulator::simulate_slot as lane sweeps over the
// SubtaskSoA, optionally sharded across a ThreadPool.
//
// Structure (see DESIGN.md "Memory layout & sharding"):
//
//   Phase A  (soa_gather; parallel, one job per shard) — eligibility
//            gather over the shard's contiguous task-id range, local
//            miss sweep (and kDrop advance), local top-M selection.
//            Touches only lanes the shard owns plus shared *read-only*
//            state; emits nothing, so nothing in phase A races or
//            observes ordering.
//   barrier  ThreadPool::wait() — the per-quantum synchronization point.
//   Phase B  (soa_select; sequential coordinator) — deterministic k-way
//            merge of the per-shard results in priority order, with all
//            metric accounting and obs emission.
//   Phase B2 (soa_select; parallel) — advance every picked task to its
//            next subtask, each shard handling the picks in its own id
//            range.
//
// Determinism argument: every priority rule ends in a task-id tie-break,
// so subtask priority is a strict *total* order.  Phase A produces its
// missed / top lists sorted under that order (the rank selection and
// the comparator sort agree exactly, because packed keys encode the
// comparator chain bit for bit and end in the task id).  Merging sorted
// lists under a total order has exactly one outcome, independent of shard
// count and thread scheduling; the single-shard emission sequence is
// that same sorted order.  Hence byte-identical output for shards ∈
// {1, 2, 8, ...}, which tests/sim/golden_digest_test.cpp pins.
#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "core/simd.h"
#include "engine/parallel.h"
#include "obs/bus.h"
#include "obs/prof.h"
#include "sim/pfair_sim.h"

namespace pfair {

bool PfairSimulator::soa_less(std::uint32_t a, std::uint32_t b) const noexcept {
  // Mirrors SubtaskPriority::operator() on the lane layout: one two-word
  // integer compare when both pending subtasks carry a packed key for
  // the configured algorithm, the comparator chain otherwise.
  const auto alg8 = static_cast<std::uint8_t>(cmp_.algorithm());
  if (soa_.key_alg[a] == alg8 && soa_.key_alg[b] == alg8) {
    if (cmp_.algorithm() != Algorithm::kPD2 || !pd2_b_bit_flip_for_test()) [[likely]] {
      return soa_.key_hi[a] != soa_.key_hi[b] ? soa_.key_hi[a] < soa_.key_hi[b]
                                              : soa_.key_lo[a] < soa_.key_lo[b];
    }
  }
  return cmp_.compare_legacy(soa_.ref[a], soa_.ref[b]);
}

void PfairSimulator::soa_phase_a(ShardScratch& s, Time t) {
  const obs::prof::ProfScope prof(obs::prof::Phase::kKernelPhaseA,
                                  static_cast<std::int32_t>(&s - shard_scratch_.data()), t);
  s.candidates.clear();
  s.missed.clear();
  s.top.clear();
  s.work.clear();
  const Time* elig = soa_.eligible_at.data();
  const auto higher = [this](std::uint32_t a, std::uint32_t b) { return soa_less(a, b); };

  // Eligibility gather: pending subtasks of the shard's tasks with
  // eligible_at <= t (parked lanes are kNeverEligible and never match).
  simd::collect_le(elig + s.begin, s.end - s.begin, t, s.begin, s.candidates);

  // Miss sweep.  Only *eligible* subtasks can miss (a late subtask can
  // have deadline < eligible_at; it must not be counted until it becomes
  // eligible).  Each miss is counted at most once, in priority order
  // (the emission order merged in phase B).
  for (const std::uint32_t id : s.candidates) {
    if (soa_.deadline[id] <= t && soa_.miss_counted[id] == 0) s.work.push_back(id);
  }
  if (!s.work.empty()) {
    std::sort(s.work.begin(), s.work.end(), higher);
    for (const std::uint32_t id : s.work) {
      soa_.miss_counted[id] = 1;
      s.missed.push_back(soa_.ref[id]);
    }
    if (config_.miss_policy == MissPolicy::kDrop) {
      // Drop each missed subtask and release its successor.  No cascade:
      // under kDrop every subtask is picked or dropped by its deadline,
      // so this miss is caught at t = d exactly, and successive Pfair
      // deadlines strictly increase, so the successor's deadline d' > t
      // cannot have passed.  It may be eligible now; the regather lets
      // the selection see it.
      for (const std::uint32_t id : s.work) {
        ++tasks_[id].next_index;
        soa_.cursor[id].advance();
        enqueue_next_subtask(id, t);
        assert(soa_.deadline[id] > t);
      }
      s.candidates.clear();
      simd::collect_le(elig + s.begin, s.end - s.begin, t, s.begin, s.candidates);
    }
  }

  // Local top-M: the global top-M is contained in the union of per-shard
  // top-Ms, so M picks per shard is all the coordinator ever needs.
  const auto want = static_cast<std::size_t>(std::max(live_processors_, 0));
  const std::size_t c = s.candidates.size();
  const std::size_t k = std::min(want, c);
  if (k == 0) return;

  // A loaded slot has about M eligible subtasks, and ranking that few by
  // packed key beats sorting them (simd::rank_pays).  Ranking needs every
  // candidate keyed for this algorithm and the keys to decide (the PD2
  // flip flag reorders b-bit ties, which the keys do not encode); both
  // are checked here, once per shard per slot, not in every comparison.
  const bool keys_decide = cmp_.algorithm() != Algorithm::kPD2 || !pd2_b_bit_flip_for_test();
  if (keys_decide && simd::rank_pays(c, k)) {
    const auto alg8 = static_cast<std::uint8_t>(cmp_.algorithm());
    unsigned keyed = 1;
    for (std::size_t i = 0; i < c; ++i) {
      const std::uint32_t id = s.candidates[i];
      s.key_hi[i] = soa_.key_hi[id];
      s.key_lo[i] = soa_.key_lo[id];
      keyed &= static_cast<unsigned>(soa_.key_alg[id] == alg8);
    }
    if (keyed != 0) {
      simd::rank_select(s.key_hi.data(), s.key_lo.data(), s.candidates.data(), c, k, s.top);
      return;
    }
  }
  // Large sets (the first slots of a wide system, few processors with a
  // long queue) and unkeyed refs (PF, key overflow, the flip flag) sort
  // with the comparator.
  s.top.assign(s.candidates.begin(), s.candidates.end());
  std::partial_sort(s.top.begin(), s.top.begin() + static_cast<std::ptrdiff_t>(k),
                    s.top.end(), higher);
  s.top.resize(k);
}

void PfairSimulator::soa_advance_picked(std::uint32_t begin, std::uint32_t end, Time t) {
  for (const Pick& pick : picked_) {
    if (pick.task < begin || pick.task >= end) continue;
    TaskRuntime& rt = tasks_[pick.task];
    rt.picked_slot = t;
    ++rt.next_index;
    soa_.cursor[pick.task].advance();
    ++rt.allocated;
    enqueue_next_subtask(pick.task, t + 1);
  }
}

void PfairSimulator::ensure_shard_pool() {
  if (shard_pool_ == nullptr) {
    shard_pool_ = std::make_unique<engine::ThreadPool>(config_.shards);
  }
}

void PfairSimulator::soa_gather(Time t) {
  const std::size_t n = soa_.size();
  const auto shards = static_cast<std::size_t>(config_.shards);
  if (shard_scratch_.size() != shards) shard_scratch_.resize(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shard_scratch_[s].begin = static_cast<std::uint32_t>(n * s / shards);
    shard_scratch_[s].end = static_cast<std::uint32_t>(n * (s + 1) / shards);
  }

  // Phase A (+ barrier).
  if (shards == 1) {
    soa_phase_a(shard_scratch_[0], t);
  } else {
    ensure_shard_pool();
    for (ShardScratch& s : shard_scratch_) {
      shard_pool_->submit([this, &s, t] { soa_phase_a(s, t); });
    }
    shard_pool_->wait();
  }
}

void PfairSimulator::soa_select(Time t) {
  const std::size_t shards = shard_scratch_.size();
  // The scheduler invocation: Phases B and B2, timed together.
  timer_.start();

  // Phase B (one prof scope spans the whole sequential coordinator
  // phase — miss merge plus selection — so profiling reads the clock
  // once per slot here, not twice): merge misses in priority order and
  // emit them (kDeadlineMiss precedes kSchedInvoke), then pick the
  // global top-M.
  {
    const obs::prof::ProfScope prof_b(obs::prof::Phase::kKernelMerge, -1, t);
    merge_pos_.assign(shards, 0);
    for (;;) {
      std::size_t best = shards;
      for (std::size_t s = 0; s < shards; ++s) {
        if (merge_pos_[s] >= shard_scratch_[s].missed.size()) continue;
        if (best == shards ||
            cmp_(shard_scratch_[s].missed[merge_pos_[s]],
                 shard_scratch_[best].missed[merge_pos_[best]])) {
          best = s;
        }
      }
      if (best == shards) break;
      const SubtaskRef& ref = shard_scratch_[best].missed[merge_pos_[best]++];
      metrics_.record_miss(t);
      obs::emit(bus_, obs::EventKind::kDeadlineMiss, t, ref.task);
    }

    picked_.clear();
    const auto want = static_cast<std::size_t>(std::max(live_processors_, 0));
    merge_pos_.assign(shards, 0);
    while (picked_.size() < want) {
      std::size_t best = shards;
      for (std::size_t s = 0; s < shards; ++s) {
        if (merge_pos_[s] >= shard_scratch_[s].top.size()) continue;
        if (best == shards || soa_less(shard_scratch_[s].top[merge_pos_[s]],
                                       shard_scratch_[best].top[merge_pos_[best]])) {
          best = s;
        }
      }
      if (best == shards) break;
      const std::uint32_t id = shard_scratch_[best].top[merge_pos_[best]++];
      tasks_[id].last_sched_index = soa_.ref[id].index;
      picked_.push_back(Pick{id, soa_.ref[id].release, 0});
    }
  }

  // Phase B2: per-task advancement, sharded by id ownership.
  if (shards == 1) {
    const obs::prof::ProfScope prof_adv(obs::prof::Phase::kKernelAdvance, 0, t);
    soa_advance_picked(shard_scratch_[0].begin, shard_scratch_[0].end, t);
  } else {
    for (ShardScratch& s : shard_scratch_) {
      shard_pool_->submit([this, &s, t] {
        const obs::prof::ProfScope prof_adv(
            obs::prof::Phase::kKernelAdvance,
            static_cast<std::int32_t>(&s - shard_scratch_.data()), t);
        soa_advance_picked(s.begin, s.end, t);
      });
    }
    shard_pool_->wait();
  }

  const double sched_ns = timer_.stop(metrics_);
  ++metrics_.scheduler_invocations;
  ++metrics_.scheduling_points;
  obs::emit(bus_, obs::EventKind::kSchedInvoke, t, kNoTask, kNoProc, sched_ns);
}

}  // namespace pfair
