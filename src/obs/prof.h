// Scoped self-profiling: phase timers over the engine's own hot paths.
//
// A ProfScope wall-clock-times one phase of engine work — a shard's
// Phase-A sweep, the coordinator merge, a legacy miss sweep, a
// ThreadPool job — into per-thread accumulators, merged on demand into
// the obs::MetricsRegistry as named timers with p50/p95/p99.  Optional
// span recording additionally logs every (phase, shard, worker, slot,
// ns) interval so PerfettoSink can draw per-shard kernel-phase tracks
// and per-worker utilization tracks next to the schedule.
//
// Cost model (the reason this can live inside the slot kernel):
//   - detached (the default): ProfScope construction is one relaxed
//     atomic load and a branch — no clock is read, nothing is stored;
//   - attached: two TSC reads (calibrated to ns once; steady_clock on
//     non-x86) plus a handful of relaxed single-writer atomic updates —
//     no lock, no search — per scope.  Measured overhead is in
//     EXPERIMENTS.md "Profiling".
//
// Determinism: profiling writes only to prof's own thread-local buffers
// and (at snapshot time) the registry; no scheduling decision ever
// reads either.  Seeded simulator output is byte-identical with
// profiling attached or detached — pinned by tests/obs/phase_trace_test.
//
// Threading: each thread accumulates into its own buffer, taken (under
// a global mutex) on the thread's first recorded scope — a thread that
// never records while profiling is on never takes one.  The aggregate
// fields are single-writer relaxed atomics — only the owning thread
// writes, collectors only read — so collection from another thread is
// race-free (and exact at quiesce points) with zero locking on the
// record path; only the opt-in span log takes a per-buffer mutex.  An
// exiting thread returns its buffer, counts intact, to a free list for
// the next thread to continue, so the buffer count is bounded by the
// number of threads recording at once and totals still include exited
// threads; reset() zeroes every buffer in place.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/histogram.h"
#include "util/types.h"

namespace pfair::obs {
class MetricsRegistry;
}  // namespace pfair::obs

namespace pfair::obs::prof {

/// The instrumented phases.  A fixed enum (not strings) keeps the hot
/// path at array indexing; phase_name() maps to the registry timer key.
enum class Phase : std::uint8_t {
  kKernelPhaseA,    ///< SoA kernel: per-shard gather / miss sweep / top-M
  kKernelMerge,     ///< SoA kernel: sequential k-way merge + selection
  kKernelAdvance,   ///< SoA kernel: per-shard cursor advancement (B2)
  kLegacyMissSweep, ///< legacy kernel: ready-queue deadline-miss pops
  kLegacySelect,    ///< legacy kernel: top-M pop + subtask advancement
  kRelease,         ///< release calendar drain (legacy wheel)
  kAssign,          ///< processor assignment + per-slot accounting
  kAdmit,           ///< admission (admit()/join()) decision path
  kPartitionPlace,  ///< partitioned (EDF-FF) task placement onto processors
  kPoolJob,         ///< one ThreadPool job execution (worker busy time)
};
inline constexpr std::size_t kPhaseCount = static_cast<std::size_t>(Phase::kPoolJob) + 1;

/// Registry timer name of a phase ("kernel.phase_a", "pool.job", ...).
[[nodiscard]] const char* phase_name(Phase p) noexcept;

namespace detail {
extern std::atomic<bool> g_enabled;
extern std::atomic<bool> g_spans;
/// Records one finished scope into the calling thread's buffer.
void record(Phase p, std::int32_t shard, Time slot, std::uint64_t ns);
/// Monotonic nanosecond clock (steady_clock).
[[nodiscard]] std::uint64_t now_ns() noexcept;
}  // namespace detail

/// Master switch.  Everything below is inert (and ProfScope free) while
/// this is false.
inline bool enabled() noexcept { return detail::g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) noexcept;

/// Span recording (needs enabled()): log individual intervals for the
/// Perfetto phase tracks, not just aggregates.  Off by default — spans
/// grow with the horizon, aggregates do not.
inline bool span_recording() noexcept {
  return detail::g_spans.load(std::memory_order_relaxed);
}
void set_span_recording(bool on) noexcept;

/// Labels the calling thread for span attribution (-1 = main/unnamed).
/// engine::ThreadPool tags each worker with its index.  Takes no buffer.
void set_worker_index(std::int32_t index) noexcept;

/// Per-thread buffers allocated so far, in use or free for reuse.
[[nodiscard]] std::size_t thread_buffers();

/// One logged interval.  `seq` is monotone per buffer (so per thread)
/// so span order is reconstructible even though wall durations vary
/// run to run.
struct Span {
  Phase phase = Phase::kKernelPhaseA;
  std::int32_t shard = -1;   ///< shard index, or -1 for coordinator work
  std::int32_t worker = -1;  ///< pool worker index, or -1 for the main thread
  Time slot = -1;            ///< simulated slot the work belonged to (-1 = none)
  std::uint64_t ns = 0;
  std::uint64_t seq = 0;
};

/// Aggregated totals for one phase, merged across every thread.
struct PhaseTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;
  Histogram hist;  ///< shared exponential ns buckets (sample_histogram())
};

/// The bucket layout every per-thread phase histogram uses (32 ns lower
/// edge, ×2 per bucket — covers sub-µs scopes to multi-second stalls).
[[nodiscard]] Histogram sample_histogram();

/// Merged per-phase totals across all threads (index = Phase).
[[nodiscard]] std::vector<PhaseTotals> collect_totals();

/// All recorded spans, sorted by (slot, shard, phase, worker, seq) — a
/// deterministic order even though the ns payloads are wall-clock.
[[nodiscard]] std::vector<Span> collect_spans();

/// Publishes collect_totals() into `reg` as timers named phase_name(p)
/// (phases with zero samples are skipped).  Idempotent — each call
/// replaces the previous publication.
void snapshot_into(MetricsRegistry& reg);

/// Zeroes every thread's accumulators and span log in place (buffer
/// registrations survive).  Does not touch enabled()/span_recording().
void reset();

/// Times one phase while in scope.  `shard` tags per-shard work,
/// `slot` the simulated time the work belongs to (for span tracks).
class ProfScope {
 public:
  explicit ProfScope(Phase p, std::int32_t shard = -1, Time slot = -1) noexcept
      : phase_(p), shard_(shard), slot_(slot), active_(enabled()) {
    if (active_) t0_ = detail::now_ns();
  }
  ~ProfScope() {
    if (active_) detail::record(phase_, shard_, slot_, detail::now_ns() - t0_);
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  std::uint64_t t0_ = 0;
  Phase phase_;
  std::int32_t shard_;
  Time slot_;
  bool active_;
};

}  // namespace pfair::obs::prof
