// Global job-level EDF / RM on M processors (paper Sec. 1).
//
// The paper motivates Pfair by the failure of the *other* global
// approach: "Dhall and Liu have shown that global scheduling using
// either EDF or RM can result in arbitrarily-low processor utilization
// in multiprocessor systems."  This simulator implements exactly that
// straw man — the M highest-priority *jobs* (not quantum-level
// subtasks) run at each instant, preempting on releases — so the Dhall
// effect can be demonstrated next to PD2 scheduling the same task set
// without a miss.
//
// Continuous time (no quantisation); priorities change only at job
// releases, so the event loop advances between releases and
// completions.  GlobalJobCore is that loop, shared with the Tier-2
// exact test (serve/exact_gedf.h), so the exact verdict and the served
// schedule are the same schedule.  GlobalJobSimulator adds processor
// assignment with the same affinity policy as the Pfair simulator (keep
// a continuing job on its processor, so the migration counts are
// comparable), metrics and obs events.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "engine/metrics.h"
#include "engine/simulator.h"
#include "obs/bus.h"
#include "uniproc/uni_sim.h"  // UniAlgorithm, UniTask
#include "util/types.h"

namespace pfair {

/// The event core of global job-level EDF/RM: the release min-heap, the
/// live jobs ordered by priority, and each live job's remaining work.
/// The running set is the first running() live jobs.  A job that misses
/// its deadline stays live (and keeps running) next to its successor.
class GlobalJobCore {
 public:
  /// A live job.  operator< is the scheduler's one tie-break: priority
  /// key (EDF deadline, RM period), then period, execution, task id and
  /// release.  Tasks with equal (period, execution) are interchangeable,
  /// so a set's schedule depends only on its multiset up to renaming;
  /// jobs of one task run earlier release first.
  struct Job {
    Time key = 0;  ///< EDF: absolute deadline; RM: period
    Time period = 0;
    std::int64_t execution = 0;
    TaskId task = 0;
    Time release = 0;
    mutable std::int64_t remaining = 0;  ///< not part of the order
    mutable ProcId proc = kNoProc;       ///< the simulator's affinity; not ordered

    friend bool operator<(const Job& a, const Job& b) noexcept {
      if (a.key != b.key) return a.key < b.key;
      if (a.period != b.period) return a.period < b.period;
      if (a.execution != b.execution) return a.execution < b.execution;
      if (a.task != b.task) return a.task < b.task;
      return a.release < b.release;
    }
  };

  GlobalJobCore(UniAlgorithm algorithm, int processors);

  /// Adds a valid task, with the next task id, first released at
  /// `release` (not before now()).
  void add_task(const UniTask& task, Time release);

  /// Releases every job due at now(), in task-id order, calling
  /// `on_release(job, missed)`; `missed` is true when a job of the same
  /// task is still live, i.e. missed its deadline at this release.
  template <class OnRelease>
  void release_due(OnRelease&& on_release) {
    while (!releases_.empty() && releases_.top().first == now_) {
      const TaskId i = releases_.top().second;
      releases_.pop();
      const UniTask& t = tasks_[i];
      const Time key = algorithm_ == UniAlgorithm::kEDF ? now_ + t.period : t.period;
      const auto job = live_.insert(Job{key, t.period, t.execution, i, now_, t.execution});
      on_release(*job.first, live_count_[i]++ > 0);
      releases_.push({now_ + t.period, i});
    }
  }

  /// The next event: the earliest of `until`, the next release and the
  /// first completion in the running set.
  [[nodiscard]] Time next_event(Time until) const {
    Time to = releases_.empty() ? until : std::min(until, releases_.top().first);
    auto it = live_.begin();
    for (std::size_t k = running(); k > 0; --k, ++it) to = std::min(to, now_ + it->remaining);
    return to;
  }

  /// Runs the running set to `to` (at most next_event()) and retires
  /// the jobs it completes.
  void advance_to(Time to) {
    const Time delta = to - now_;
    auto it = live_.begin();
    for (std::size_t k = running(); k > 0; --k) {
      it->remaining -= delta;
      if (it->remaining == 0) {
        --live_count_[it->task];
        it = live_.erase(it);
      } else {
        ++it;
      }
    }
    now_ = to;
  }

  [[nodiscard]] const std::set<Job>& live() const noexcept { return live_; }
  [[nodiscard]] std::size_t running() const noexcept {
    return std::min(live_.size(), processors_);
  }
  [[nodiscard]] Time now() const noexcept { return now_; }

 private:
  using Release = std::pair<Time, TaskId>;

  UniAlgorithm algorithm_;
  std::size_t processors_;
  std::vector<UniTask> tasks_;
  std::vector<std::uint32_t> live_count_;  ///< live jobs per task
  std::priority_queue<Release, std::vector<Release>, std::greater<>> releases_;
  std::set<Job> live_;
  Time now_ = 0;
};

struct GlobalJobConfig {
  int processors = 1;
  UniAlgorithm algorithm = UniAlgorithm::kEDF;
};

class GlobalJobSimulator : public engine::Simulator {
 public:
  GlobalJobSimulator(std::vector<UniTask> tasks, GlobalJobConfig config);

  GlobalJobSimulator(const GlobalJobSimulator&) = delete;
  GlobalJobSimulator& operator=(const GlobalJobSimulator&) = delete;

  /// Admits a periodic task releasing from the current time.
  bool admit(const engine::TaskSpec& spec) override;
  using engine::Simulator::admit;

  void run_until(Time until) override;

  [[nodiscard]] const engine::Metrics& metrics() const noexcept override {
    return metrics_;
  }
  [[nodiscard]] Time now() const noexcept override { return core_.now(); }

  void attach_observer(obs::EventBus* bus) override { bus_ = bus; }

 private:
  using Job = GlobalJobCore::Job;

  GlobalJobCore core_;
  engine::Metrics metrics_;
  obs::EventBus* bus_ = nullptr;  ///< borrowed; nullptr = observation off
  // Per-step scratch, kept to reuse its storage.
  std::vector<const Job*> ran_;  ///< last step's running jobs still live, by priority
  std::vector<Job> done_;         ///< the jobs the last step completed
  std::vector<const Job*> needs_proc_;
  std::vector<char> proc_taken_;
};

}  // namespace pfair
