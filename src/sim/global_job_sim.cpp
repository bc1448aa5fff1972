#include "sim/global_job_sim.h"

#include <cassert>
#include <iterator>
#include <tuple>

namespace pfair {

GlobalJobCore::GlobalJobCore(UniAlgorithm algorithm, int processors)
    : algorithm_(algorithm), processors_(static_cast<std::size_t>(processors)) {
  assert(processors >= 1);
}

void GlobalJobCore::add_task(const UniTask& task, Time release) {
  assert(task.valid() && release >= now_);
  releases_.push({release, static_cast<TaskId>(tasks_.size())});
  tasks_.push_back(task);
  live_count_.push_back(0);
}

GlobalJobSimulator::GlobalJobSimulator(std::vector<UniTask> tasks, GlobalJobConfig config)
    : core_(config.algorithm, config.processors),
      proc_taken_(static_cast<std::size_t>(config.processors)) {
  for (const UniTask& t : tasks) core_.add_task(t, 0);
}

bool GlobalJobSimulator::admit(const engine::TaskSpec& spec) {
  const UniTask t{spec.resolved_execution(), spec.resolved_period()};
  if (!t.valid()) {
    ++metrics_.tasks_rejected;
    return false;
  }
  core_.add_task(t, core_.now());
  ++metrics_.tasks_admitted;
  return true;
}

void GlobalJobSimulator::run_until(Time until) {
  while (core_.now() < until) {
    const Time now = core_.now();
    core_.release_due([&](const Job& j, bool missed) {
      // Implicit deadline = this release: a live predecessor missed.
      if (missed) {
        metrics_.record_miss(now);
        obs::emit(bus_, obs::EventKind::kDeadlineMiss, now, j.task);
      }
      ++metrics_.jobs_released;
      obs::emit(bus_, obs::EventKind::kJobRelease, now, j.task, kNoProc,
                static_cast<double>(now + j.period));
    });

    // The running set is the core's first `running` jobs.  A job that
    // ran in the last step and is no longer among them is preempted.
    const auto first = core_.live().begin();
    const auto last = std::next(first, static_cast<std::ptrdiff_t>(core_.running()));
    for (const Job* j : ran_) {
      if (first == last || *std::prev(last) < *j) {
        ++metrics_.preemptions;
        obs::emit(bus_, obs::EventKind::kPreemption, now, j->task, j->proc, -1.0);
      }
    }
    // Processor assignment with affinity among the running jobs.
    std::fill(proc_taken_.begin(), proc_taken_.end(), char{0});
    needs_proc_.clear();
    for (auto it = first; it != last; ++it) {
      if (it->proc != kNoProc && proc_taken_[it->proc] == 0) {
        proc_taken_[it->proc] = 1;
      } else {
        needs_proc_.push_back(&*it);
      }
    }
    for (const Job* j : needs_proc_) {
      ProcId p = 0;
      while (proc_taken_[p] != 0) ++p;
      proc_taken_[p] = 1;
      if (j->proc != kNoProc && j->proc != p) {
        ++metrics_.migrations;
        obs::emit(bus_, obs::EventKind::kMigration, now, j->task, p,
                  static_cast<double>(j->proc));
      }
      j->proc = p;
    }

    // The running jobs that complete at `next` leave the core in
    // advance_to(); the others ran this step and stay live.
    const Time next = core_.next_event(until);
    const Time delta = next - now;
    ran_.clear();
    done_.clear();
    for (auto it = first; it != last; ++it) {
      obs::emit(bus_, obs::EventKind::kExecSlice, now, it->task, it->proc,
                static_cast<double>(delta));
      if (it->remaining == delta) {
        done_.push_back(*it);
      } else {
        ran_.push_back(&*it);
      }
    }
    core_.advance_to(next);

    // Retire the completed jobs, latest release first.
    std::sort(done_.begin(), done_.end(), [](const Job& a, const Job& b) {
      return std::tie(b.release, b.task) < std::tie(a.release, a.task);
    });
    for (const Job& j : done_) {
      ++metrics_.jobs_completed;
      // value = -1: response times are not tracked by this simulator.
      obs::emit(bus_, obs::EventKind::kJobComplete, next, j.task, j.proc, -1.0);
    }
  }
}

}  // namespace pfair
