#include "serve/exact_gedf.h"

#include <limits>

#include "sim/global_job_sim.h"
#include "util/math.h"

namespace pfair::serve {

const char* to_string(GedfVerdict v) noexcept {
  switch (v) {
    case GedfVerdict::kSchedulable: return "schedulable";
    case GedfVerdict::kUnschedulable: return "unschedulable";
    case GedfVerdict::kBudgetExceeded: return "budget-exceeded";
  }
  return "unknown";
}

GedfResult exact_global_schedulable(const std::vector<UniTask>& tasks, int m,
                                    UniAlgorithm algorithm, std::uint64_t max_events) {
  GedfResult out;
  if (m < 1) m = 1;
  if (tasks.empty()) {
    out.verdict = GedfVerdict::kSchedulable;
    return out;
  }
  for (const UniTask& t : tasks) {
    if (!t.valid()) {  // never schedulable; also keeps the arithmetic safe
      out.verdict = GedfVerdict::kUnschedulable;
      out.first_miss = 0;
      return out;
    }
  }

  Time h = 1;
  for (const UniTask& t : tasks) h = saturating_lcm(h, t.period);
  out.hyperperiod = h;

  GlobalJobCore core(algorithm, m);
  for (const UniTask& t : tasks) core.add_task(t, 0);
  constexpr Time kNever = std::numeric_limits<Time>::max();
  while (true) {
    // Under implicit deadlines a live predecessor at a release IS a
    // miss, and the first one ends the test.
    bool missed = false;
    core.release_due([&](const GlobalJobCore::Job&, bool late) { missed = missed || late; });
    out.simulated = core.now();
    if (missed) {
      out.verdict = GedfVerdict::kUnschedulable;
      out.first_miss = core.now();
      return out;
    }
    // A clean pass through t == H means every job released in [0, H)
    // completed by its deadline; the state at H equals the state at 0,
    // so the schedule repeats forever.
    if (core.now() >= h) {
      out.verdict = GedfVerdict::kSchedulable;
      return out;
    }
    if (out.events >= max_events) {
      out.verdict = GedfVerdict::kBudgetExceeded;
      return out;
    }
    ++out.events;
    core.advance_to(core.next_event(kNever));
  }
}

}  // namespace pfair::serve
