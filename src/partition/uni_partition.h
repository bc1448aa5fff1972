// Partitioning over concrete task sets with per-processor uniprocessor
// schedulability tests (paper Secs. 1 and 3).
//
// The generic heuristics in heuristics.h bin-pack pure utilizations
// with the EDF test (load <= 1).  Real partitioned systems differ by
// the *acceptance test*: RM-FF accepts a task on a processor only if
// the processor's task set stays RM-schedulable — either by the
// Liu-Layland bound (cheap, pessimistic; yields the 41%-ish
// multiprocessor guarantees the paper cites from Oh & Baker) or by
// exact response-time analysis (the "variable-sized bin" flavour the
// paper notes makes the packing problem harder).
#pragma once

#include <vector>

#include "partition/heuristics.h"
#include "uniproc/uni_task.h"
#include "util/rational.h"

namespace pfair {

enum class Acceptance : std::uint8_t {
  kEdfUtilization,  ///< sum e/p <= 1 (exact for EDF)
  kRmLiuLayland,    ///< U <= n(2^{1/n} - 1) (sufficient for RM)
  kRmExact,         ///< response-time analysis (exact for RM)
};

[[nodiscard]] const char* acceptance_name(Acceptance a) noexcept;

struct UniPartitionResult {
  std::vector<int> assignment;  ///< per task (input order), -1 = unplaced
  int processors_used = 0;
  bool feasible = false;
};

/// The open processors ("bins") of one partitioning run, and the single
/// placement primitive every partitioner in this module goes through.
/// Each bin caches what its acceptance test reads — the exact load
/// (EDF), the double load (best/worst-fit choice, Liu-Layland) and the
/// member list (response-time analysis) — so testing a bin is O(1)
/// except under RM-exact, which still iterates over the members but
/// never copies them.  The cached sums are accumulated in member order,
/// exactly as edf_schedulable() and total_utilization() would recompute
/// them from scratch, so decisions match a from-scratch re-partition bit
/// for bit.
class UniBins {
 public:
  /// `h` picks among the accepting bins; FFD/BFD place with their base
  /// rule (FF/BF) — the decreasing order is place_all()'s job.
  UniBins(Heuristic h, Acceptance acc, int max_bins) noexcept;

  /// Places `t` in the bin the rule picks, opening a new one when none
  /// accepts and fewer than `max_bins` are open.  Returns the bin, or -1
  /// with the bins untouched.
  int place(const UniTask& t);

  /// Places all of `tasks` in the heuristic's order (input order, or
  /// decreasing utilization for FFD/BFD); returns each task's bin in
  /// input order (-1 = unplaced).
  std::vector<int> place_all(const std::vector<UniTask>& tasks);

  [[nodiscard]] int size() const noexcept { return static_cast<int>(bins_.size()); }
  [[nodiscard]] const std::vector<UniTask>& members(int bin) const {
    return bins_[static_cast<std::size_t>(bin)].members;
  }

 private:
  struct Bin {
    Rational load{0};         ///< sum e/p in member order (edf_schedulable's sum)
    double load_double = 0.0; ///< total_utilization(members)
    std::vector<UniTask> members;
  };
  [[nodiscard]] bool accepts(Bin& bin, const UniTask& t) const;

  Heuristic heuristic_;
  Heuristic rule_;  ///< FF, BF or WF
  Acceptance acc_;
  int max_bins_;
  std::vector<Bin> bins_;
};

/// Partitions `tasks` using heuristic `h` (first/best/worst fit and the
/// decreasing variants) under acceptance test `acc`, opening at most
/// `max_processors` processors.
[[nodiscard]] UniPartitionResult partition_uni(const std::vector<UniTask>& tasks,
                                               int max_processors, Heuristic h, Acceptance acc);

/// Smallest processor count rendering `tasks` partitionable.
[[nodiscard]] int min_processors_uni(const std::vector<UniTask>& tasks, Heuristic h,
                                     Acceptance acc, int hard_cap = 1 << 12);

}  // namespace pfair
