// Quantum-driven global multiprocessor simulator for Pfair scheduling.
//
// The simulator advances time slot by slot.  In each slot it
//   1. applies pending fault-plan / join / leave events,
//   2. gathers the eligible subtasks, detects those whose
//      pseudo-deadline has passed and selects each shard's M
//      highest-priority candidates (Phase A of the SoA slot kernel,
//      sim/slot_kernel.cpp),
//   3. releases and checks supertask component jobs,
//   4. invokes the scheduler: merge the shards' candidates into the
//      global top M and advance each picked task to its next subtask
//      (Phases B and B2).  Steps 2 and 4 are timed separately for the
//      Fig.-2 experiments when measure_overhead is set,
//   5. assigns processors with affinity (a task scheduled in consecutive
//      quanta keeps its processor — the optimisation the paper uses to
//      derive the 1 + min(E-1, P-E) context-switch bound),
//   6. advances each scheduled task to its next subtask and updates
//      preemption / migration / context-switch / lag accounting.
//
// Supertasks participate as ordinary Pfair servers; each quantum they
// receive is passed to an internal EDF dispatcher over their component
// tasks (Sec. 5.5).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/dynamics.h"
#include "core/priority.h"
#include "core/supertask.h"
#include "core/task.h"
#include "engine/metrics.h"
#include "engine/overhead_timer.h"
#include "engine/simulator.h"
#include "core/windows.h"
#include "obs/bus.h"
#include "sim/subtask_soa.h"
#include "sim/trace.h"
#include "util/rational.h"
#include "util/types.h"

namespace pfair {

namespace engine {
class ThreadPool;  // sim/slot_kernel.cpp; lazily built when shards > 1
}  // namespace engine

/// What to do with a subtask that is still unscheduled at its deadline.
enum class MissPolicy : std::uint8_t {
  kScheduleLate,  ///< keep it schedulable; count the miss once (default)
  kDrop,          ///< skip the subtask entirely (quantum is forfeited)
};

struct PfairConfig {
  int processors = 1;
  Algorithm algorithm = Algorithm::kPD2;
  MissPolicy miss_policy = MissPolicy::kScheduleLate;
  bool record_trace = false;    ///< keep a full per-slot allocation trace
  bool affinity = true;         ///< keep tasks on their processor when possible
                                ///< (false = naive assignment; ablation)
  bool check_lags = false;      ///< verify Pfair lag bounds every slot (slow; synchronous periodic systems only)
  bool measure_overhead = false;  ///< steady_clock-time the slot kernel: Phase A
                                  ///< as kOverheadNs, Phases B + B2 as
                                  ///< kSchedInvoke (both into sched_ns_total)
  Time lag_sample_every = 0;    ///< emit an obs kLagSample per task every N
                                ///< slots (0 = off; needs an attached observer)
  bool idle_fast_forward = true;  ///< jump over provably idle slot runs in
                                  ///< run_until (auto-disabled whenever any
                                  ///< per-slot work could observe them; see
                                  ///< fast_forward_target)
  int shards = 1;   ///< task-lane shards the SoA kernel steps in parallel
                    ///< inside each quantum (1 = single-threaded; byte-
                    ///< identical output for any value)
};

/// Scheduled change of the number of live processors (fault injection /
/// repair, Sec. 5.4).  Applied at the start of slot `at`.
struct ProcessorEvent {
  Time at = 0;
  int processors = 1;
};

class PfairSimulator : public engine::Simulator {
 public:
  explicit PfairSimulator(PfairConfig config);
  ~PfairSimulator() override;  // out of line: shard pool is fwd-declared

  /// engine::Simulator admission: a synchronous periodic task of weight
  /// e/p, added at the current time (dynamic joins go through join()).
  bool admit(const engine::TaskSpec& spec) override;
  using engine::Simulator::admit;

  /// Adds a periodic / early-release / intra-sporadic task starting at
  /// time 0 (or at the current time if the simulation already ran).
  /// Returns its id.  For IS tasks, `arrivals[i-1]` is the absolute
  /// arrival time of subtask i; arrivals beyond the vector are on time.
  TaskId add_task(const Task& t, std::vector<Time> arrivals = {});

  /// Adds a supertask competing with spec.competing_weight().  If
  /// `bound_proc` is given, every quantum the supertask receives runs on
  /// that processor (the Moir-Ramamurthy motivation: component tasks
  /// must not migrate).  At most one bound task per processor.  If a
  /// fault later removes the bound processor, the binding degrades
  /// gracefully: the server migrates like a normal task until the
  /// processor returns (deadline guarantees are unaffected — binding
  /// only constrains placement).
  TaskId add_supertask(const SupertaskSpec& spec, ProcId bound_proc = kNoProc);

  /// Registers a processor-count change (must be issued before run()
  /// reaches `at`).
  void add_processor_event(ProcessorEvent ev);

  /// This is the scheduler whose dynamic story the paper argues for:
  /// the engine::Simulator join/leave/reweight protocol is fully
  /// supported after the simulation has started.
  [[nodiscard]] bool can_dynamic() const noexcept override { return true; }

  /// Dynamic join at the current simulation time.  Returns the new id,
  /// or std::nullopt if Eq. (2) would be violated.
  std::optional<TaskId> join(const Task& t);

  /// engine::Simulator spelling of join(); same Eq.-(2) admission.
  std::optional<TaskId> join(const engine::TaskSpec& spec) override;

  /// Earliest time `id` may legally leave (core/dynamics.h rules);
  /// -1 for an unknown or inactive id.
  [[nodiscard]] Time earliest_leave(TaskId id) const override;

  /// Dynamic leave at the current simulation time.  Returns false (and
  /// does nothing) if leaving now would violate the leave rules.
  bool leave(TaskId id) override;

  /// Initiates an orderly departure: the task stops executing now, its
  /// weight stays accounted until the leave rules release it, and the
  /// returned time is when the capacity frees.  (A continuously running
  /// heavy task can never satisfy leave() directly — each new quantum
  /// pushes its group deadline forward — so real departures go through
  /// this protocol.)  nullopt for an unknown or inactive id.
  std::optional<Time> request_leave(TaskId id) override;

  /// Orderly reweighting (leave + rejoin with the new weight, Sec. 5.2):
  /// the task stops executing now and resumes with weight new_e/new_p at
  /// the time the leave rules free its old weight.  Fails (returning
  /// nullopt) only if the new total would exceed capacity; otherwise
  /// returns the switch-over time.
  std::optional<Time> request_reweight(TaskId id, std::int64_t new_e, std::int64_t new_p);

  /// engine::Simulator spelling of request_reweight().
  std::optional<Time> request_reweight(TaskId id, const engine::TaskSpec& spec) override;

  /// Leaves unconditionally, ignoring the safety rules.  Exists so tests
  /// can demonstrate that violating the rules can cause misses.
  void force_leave(TaskId id);

  /// Reweights a task (leave + join with the new weight, Sec. 5.2/5.4).
  /// Returns false if the leave rules forbid it now or the new weight
  /// does not fit.
  bool reweight(TaskId id, std::int64_t new_e, std::int64_t new_p);

  /// Runs the simulation up to (absolute) time `until`.  May be called
  /// repeatedly with increasing horizons; joins/leaves can be interleaved.
  void run_until(Time until) override;

  [[nodiscard]] Time now() const noexcept override { return now_; }
  [[nodiscard]] const engine::Metrics& metrics() const noexcept override {
    return metrics_;
  }

  /// Structured-event observation (obs layer); nullptr detaches.  With
  /// no bus attached every emission site is a single pointer test.
  void attach_observer(obs::EventBus* bus) override { bus_ = bus; }
  [[nodiscard]] const ScheduleTrace& trace() const noexcept { return trace_; }
  [[nodiscard]] const PfairConfig& config() const noexcept { return config_; }

  /// Total weight of currently active tasks.  Maintained incrementally
  /// on join/leave/reweight/departure, so admission checks are O(1)
  /// instead of an O(N) Rational sum per call.
  [[nodiscard]] Rational active_weight() const noexcept { return active_weight_; }

  /// O(N) recomputation of active_weight() from scratch; test/debug hook
  /// asserting the incremental sum never drifts.
  [[nodiscard]] Rational recompute_active_weight() const;

  /// Slots skipped by the idle fast-forward (run_until jumping straight
  /// to the next eligibility/processor-event boundary); the counter lives
  /// in engine::Metrics so sweeps aggregate it like any other metric.
  [[nodiscard]] std::uint64_t fast_forwarded_slots() const noexcept {
    return metrics_.fast_forwarded_slots;
  }

  /// Quanta allocated to `id` so far.
  [[nodiscard]] std::int64_t allocated(TaskId id) const { return tasks_[id].allocated; }

  /// Exact lag of `id` at the current time (synchronous periodic tasks).
  [[nodiscard]] Rational task_lag(TaskId id) const;

  /// Per-task maximum preemptions observed in any single job.
  [[nodiscard]] std::int64_t max_job_preemptions(TaskId id) const {
    return tasks_[id].max_job_preemptions;
  }

  /// Names of all tasks (index = TaskId), for trace rendering.
  [[nodiscard]] std::vector<std::string> task_names() const;

  /// Deadline-miss count of one supertask component (task `id` must be a
  /// supertask; `component` indexes its spec.components).
  [[nodiscard]] std::uint64_t component_miss_count(TaskId id, std::size_t component) const;

 private:
  struct ComponentRuntime {
    std::int64_t e = 1;
    std::int64_t p = 1;
    Time next_release = 0;
    // Outstanding jobs, oldest first: (absolute deadline, remaining quanta).
    std::vector<std::pair<Time, std::int64_t>> jobs;
    std::uint64_t misses = 0;
    bool miss_counted_for_head = false;
  };

  struct SupertaskRuntime {
    TaskId owner = kNoTask;            ///< the server task this belongs to
    std::vector<ComponentRuntime> components;
    std::int32_t last_component = -1;  ///< for component-switch accounting
  };

  struct TaskRuntime {
    Task spec;
    bool active = false;
    bool is_supertask = false;
    std::int32_t super_index = -1;     ///< into supertasks_ if is_supertask
    ProcId bound_proc = kNoProc;       ///< fixed processor (supertask binding)
    SubtaskIndex next_index = 1;       ///< next subtask to schedule
    SubtaskIndex last_sched_index = 0; ///< 0 = never scheduled
    Time offset = 0;                   ///< accumulated IS window shift
    Time join_time = 0;
    std::vector<Time> arrivals;        ///< IS arrival times (absolute)
    std::int64_t allocated = 0;
    ProcId last_proc = kNoProc;
    Time last_sched_slot = -2;         ///< slot of most recent allocation
    Time picked_slot = -2;             ///< slot the scheduler last picked this
                                       ///< task (replaces the O(M) runs-now scan)
    // Per-pending-subtask state (ref, cursor, eligibility, priority key,
    // miss flag) lives in the SubtaskSoA lanes soa_[id], not here — the
    // per-slot sweeps must not stride through this struct.
    Time leave_at = -1;          ///< pending departure (weight frees then)
    std::int64_t pending_e = 0;  ///< pending reweight (0 = plain leave)
    std::int64_t pending_p = 0;
    std::int64_t cur_job_preemptions = 0;
    std::int64_t max_job_preemptions = 0;
  };

  void simulate_slot();
  /// Schedules the next subtask of `id`: builds its ref and publishes it
  /// to the SoA lanes with its eligibility time.
  void enqueue_next_subtask(TaskId id, Time earliest);
  /// Eligibility time of subtask `i` of task `id` given that its
  /// predecessor completed at the end of slot `prev_slot` (-1 if none).
  [[nodiscard]] Time eligibility_time(TaskId id, SubtaskIndex i, Time prev_slot) const;
  void dispatch_supertask_quantum(TaskRuntime& rt, Time t);
  void check_lags(Time t_next);

  // --- SoA slot kernel (sim/slot_kernel.cpp) ---
  /// Step 2 of simulate_slot: Phase A on every shard (in parallel on
  /// shard_pool_ when config_.shards > 1, then the per-quantum barrier).
  /// Emits nothing.
  void soa_gather(Time t);
  /// Step 4 of simulate_slot: the sequential merge of the shards' misses
  /// (emitted in priority order) and top-M candidates into picked_, then
  /// Phase B2.  Deterministic for any shard count.
  void soa_select(Time t);
  /// Phase A for one shard: eligibility gather, local miss cascade,
  /// local top-M selection.  Touches only state owned by the shard's
  /// task-id range; emits nothing.
  void soa_phase_a(ShardScratch& s, Time t);
  /// Advances every entry of picked_ whose task id falls in [begin, end)
  /// to its next subtask (phase B2; per-task state only).
  void soa_advance_picked(std::uint32_t begin, std::uint32_t end, Time t);
  /// Strict priority order between the pending subtasks of tasks a and b
  /// (lane fast path; exactly SubtaskPriority's dispatch).
  [[nodiscard]] bool soa_less(std::uint32_t a, std::uint32_t b) const noexcept;
  /// Builds shard_pool_ on first use (config_.shards workers).
  void ensure_shard_pool();
  void process_pending_departures(Time t);
  /// Latest time in (now_, until] the simulation can jump to with every
  /// skipped slot provably idle and unobserved, or now_ when fast-forward
  /// is not eligible.
  [[nodiscard]] Time fast_forward_target(Time until) const;
  /// Bulk-accounts `count` idle slots (metrics, trace) without running
  /// the per-slot kernel.
  void account_idle_slots(Time count);

  PfairConfig config_;
  Time now_ = 0;
  int live_processors_ = 1;
  std::vector<TaskRuntime> tasks_;
  SubtaskSoA soa_;                   ///< per-pending-subtask lanes (index = TaskId)
  SubtaskPriority cmp_;              ///< the configured priority order
  std::vector<SupertaskRuntime> supertasks_;
  std::int64_t bound_count_ = 0;             ///< tasks with a fixed processor
  std::vector<ProcessorEvent> proc_events_;  ///< sorted by time, applied in order
  std::size_t next_proc_event_ = 0;
  std::vector<TaskId> pending_departures_;   ///< tasks with leave_at set
  Rational active_weight_ = Rational(0);     ///< cached sum over active tasks
  engine::Metrics metrics_;
  engine::OverheadTimer timer_;
  obs::EventBus* bus_ = nullptr;  ///< borrowed; nullptr = observation off
  ScheduleTrace trace_;
  bool last_slot_allocated_ = false;  ///< the preceding simulated slot scheduled
                                      ///< something (its preemption accounting
                                      ///< may still fire one slot later)
  // Scratch buffers reused every slot (the slot kernel is allocation-free
  // once they reach steady-state capacity).
  /// What the assignment/accounting passes need from a scheduled subtask
  /// — the full SubtaskRef stays in the task's pending_ref and never
  /// crosses the kernel by value.
  struct Pick {
    TaskId task;
    Time release;
    std::uint8_t placed;  ///< assignment passes: already given a processor
  };
  std::vector<Pick> picked_;
  std::vector<TaskId> prev_slot_tasks_;      ///< proc -> task of previous slot
  std::vector<std::int32_t> assign_;         ///< proc -> index into picked_ (-1 idle)
  // SoA kernel scratch: per-shard phase-A results plus the coordinator's
  // k-way merge cursors (all reused; allocation-free at steady state).
  std::vector<ShardScratch> shard_scratch_;
  std::vector<std::size_t> merge_pos_;       ///< per-shard merge cursor
  std::unique_ptr<engine::ThreadPool> shard_pool_;  ///< lazily built; shards > 1 only
};

}  // namespace pfair
