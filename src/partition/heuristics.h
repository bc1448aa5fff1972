// Bin-packing partitioning heuristics (paper Sec. 3).
//
// Finding an optimal assignment of tasks to processors is NP-hard in the
// strong sense, so online partitioners use polynomial heuristics.  This
// module implements the ones the paper discusses — first fit, best fit,
// worst fit, and their decreasing-utilization variants — over exact
// rational utilizations, with a per-processor EDF acceptance test
// (total utilization <= 1).  The overhead-aware EDF-FF variant, whose
// acceptance test depends on co-located tasks, lives in src/overhead/.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rational.h"

namespace pfair {

enum class Heuristic : std::uint8_t {
  kFirstFit,            ///< first processor that accepts the task
  kBestFit,             ///< minimal remaining capacity after placement
  kWorstFit,            ///< maximal remaining capacity after placement
  kFirstFitDecreasing,  ///< FF after sorting by decreasing utilization
  kBestFitDecreasing,   ///< BF after sorting by decreasing utilization
};

[[nodiscard]] const char* heuristic_name(Heuristic h) noexcept;

/// True for FFD/BFD, which sort by decreasing utilization before
/// placing — so a later task can move earlier ones.
[[nodiscard]] bool decreasing_variant(Heuristic h) noexcept;

/// The rule a heuristic places with: FFD -> FF, BFD -> BF, else itself.
[[nodiscard]] Heuristic base_rule(Heuristic h) noexcept;

struct PartitionResult {
  /// assignment[i] = processor of task i, or -1 if it did not fit.
  std::vector<int> assignment;
  int processors_used = 0;
  bool feasible = false;  ///< every task placed

  /// Per-processor total utilization (size = processors_used).
  std::vector<Rational> loads;
};

/// Partitions tasks with utilizations `u` onto at most `max_processors`
/// processors (pass a large value to emulate "as many as needed"; the
/// number actually opened is reported in processors_used).  Each
/// processor accepts a task iff its load stays <= 1 (the EDF test).
[[nodiscard]] PartitionResult partition(const std::vector<Rational>& u, int max_processors,
                                        Heuristic h);

/// Smallest processor count that renders `u` partitionable under `h`
/// (monotone in the processor count for FF/BF/WF-style heuristics, so a
/// linear scan from ceil(total) upward terminates quickly).
[[nodiscard]] int min_processors(const std::vector<Rational>& u, Heuristic h,
                                 int hard_cap = 1 << 16);

/// Worst-case achievable utilization of *any* partitioning heuristic on
/// m processors: (m + 1) / 2 (paper Sec. 3: m+1 tasks of utilization
/// slightly above 1/2 cannot be partitioned).
[[nodiscard]] double partitioning_worst_case_utilization(int m) noexcept;

/// Lopez et al. worst-case achievable utilization for EDF partitioning
/// when every task has utilization <= u_max:
/// (beta * m + 1) / (beta + 1), beta = floor(1 / u_max).
[[nodiscard]] double lopez_bound(int m, double u_max) noexcept;

/// The simpler bound the paper derives first: any task set with total
/// utilization <= m - (m - 1) * u_max is schedulable.
[[nodiscard]] double simple_partition_bound(int m, double u_max) noexcept;

}  // namespace pfair
