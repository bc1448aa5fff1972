// Input generators owned by the benchmark.
//
// Every workload's inputs come from here, seeded by the --seed
// argument, and never from the library's own generators
// (serve::generate_requests, generate_uni_tasks): a later change to
// those cannot move the workload.  The random source is a splitmix64
// counter stream keyed by (seed, workload, round, item), so any round
// can be regenerated on its own and a run's first rounds are the same
// however long the run lasts.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "uniproc/uni_task.h"

namespace perfbench {

/// splitmix64 stream; same key, same numbers on every host.
class Rng {
 public:
  explicit Rng(std::uint64_t key) noexcept : state_(key) {}

  [[nodiscard]] std::uint64_t next() noexcept;
  /// Uniform integer in [lo, hi] (lo <= hi).
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;
  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

 private:
  std::uint64_t state_;
};

/// Mixes the parts of a stream key into one 64-bit key.
[[nodiscard]] std::uint64_t stream_key(std::uint64_t seed, std::uint64_t workload,
                                       std::uint64_t round, std::uint64_t item = 0) noexcept;

/// 64-bit FNV-1a, chained through `h` (digests of inputs and outputs).
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t h = 0xcbf29ce484222325ull) noexcept;
[[nodiscard]] std::uint64_t fnv1a_u64(std::uint64_t v, std::uint64_t h) noexcept;

/// serve-churn: a join/leave/reweight/query/advance mix in the shape of
/// pfaird's standard stream (9/16 joins, 2/16 leaves, 2/16 reweights,
/// 1/16 queries, 2/16 advances; periods 2..kChurnMaxPeriod; per-task
/// utilization up to 0.25 x kChurnLoad).  Leaves and reweights target
/// ids in [0, joins so far), as the daemon's dense ids would be if every
/// join were admitted.  One canonical JSONL request per element.
inline constexpr std::size_t kChurnRequests = 5000;
inline constexpr double kChurnLoad = 1.5;
inline constexpr std::int64_t kChurnMaxPeriod = 40;
[[nodiscard]] std::vector<std::string> churn_stream(std::uint64_t key);

/// serve-exact: one join-only session.  Every period divides
/// kExactHyperperiod and is at least kExactHyperperiod / kExactMaxJobs,
/// so no task releases more than kExactMaxJobs jobs per hyperperiod
/// and the exact global-EDF test stays inside its default event budget.
/// A session joins kExactJoins tasks of utilization 0.05..0.6.
inline constexpr std::int64_t kExactHyperperiod = 720720;
inline constexpr std::int64_t kExactMaxJobs = 240;
inline constexpr std::size_t kExactJoins = 32;
[[nodiscard]] std::vector<pfair::UniTask> exact_session(std::uint64_t key);

/// Canonical JSONL join line for a task.
[[nodiscard]] std::string join_line(const pfair::UniTask& t);

/// sweep-*: n tasks whose utilizations are uniform draws in [0.05, 1)
/// scaled to sum to u_cap, with periods uniform in [10, 64] and integer
/// executions (the compare_runtime workload shape).
[[nodiscard]] std::vector<pfair::UniTask> sweep_taskset(std::size_t n, double u_cap,
                                                        std::uint64_t key);

/// Digest of a task list (inputs digest for the sweep and exact rounds).
[[nodiscard]] std::uint64_t digest_tasks(const std::vector<pfair::UniTask>& tasks,
                                         std::uint64_t h);

}  // namespace perfbench
