#include "partition/uni_partition.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "uniproc/analysis.h"
#include "util/rational.h"

namespace pfair {

const char* acceptance_name(Acceptance a) noexcept {
  switch (a) {
    case Acceptance::kEdfUtilization:
      return "EDF";
    case Acceptance::kRmLiuLayland:
      return "RM-LL";
    case Acceptance::kRmExact:
      return "RM-exact";
  }
  return "?";
}

UniBins::UniBins(Heuristic h, Acceptance acc, int max_bins) noexcept
    : heuristic_(h), rule_(base_rule(h)), acc_(acc), max_bins_(max_bins) {}

bool UniBins::accepts(Bin& bin, const UniTask& t) const {
  switch (acc_) {
    case Acceptance::kEdfUtilization: {
      Rational u = bin.load;
      u += Rational(t.execution, t.period);
      return u <= Rational(1);
    }
    case Acceptance::kRmLiuLayland:
      return bin.load_double + t.utilization() <=
             rm_utilization_bound(bin.members.size() + 1) + 1e-12;
    case Acceptance::kRmExact: {
      bin.members.push_back(t);
      const bool ok = rm_schedulable_exact(bin.members);
      bin.members.pop_back();
      return ok;
    }
  }
  return false;
}

int UniBins::place(const UniTask& t) {
  assert(t.valid());
  int chosen = -1;
  for (int b = 0; b < size(); ++b) {
    Bin& bin = bins_[static_cast<std::size_t>(b)];
    if (!accepts(bin, t)) continue;
    if (rule_ == Heuristic::kFirstFit) {
      chosen = b;
      break;
    }
    // Best/worst fit compare the load before placement (acceptance may
    // not be utilization-based; load is still the conventional metric).
    if (chosen == -1) {
      chosen = b;
      continue;
    }
    const double cur = bins_[static_cast<std::size_t>(chosen)].load_double;
    if (rule_ == Heuristic::kBestFit ? bin.load_double > cur : bin.load_double < cur)
      chosen = b;
  }
  if (chosen == -1) {
    Bin fresh;
    if (size() >= max_bins_ || !accepts(fresh, t)) return -1;
    bins_.push_back(std::move(fresh));
    chosen = size() - 1;
  }
  Bin& bin = bins_[static_cast<std::size_t>(chosen)];
  bin.load += Rational(t.execution, t.period);
  bin.load_double += t.utilization();
  bin.members.push_back(t);
  return chosen;
}

std::vector<int> UniBins::place_all(const std::vector<UniTask>& tasks) {
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (decreasing_variant(heuristic_)) {
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return tasks[a].utilization() > tasks[b].utilization();
    });
  }
  std::vector<int> assignment(tasks.size(), -1);
  for (const std::size_t i : order) assignment[i] = place(tasks[i]);
  return assignment;
}

UniPartitionResult partition_uni(const std::vector<UniTask>& tasks, int max_processors,
                                 Heuristic h, Acceptance acc) {
  UniBins bins(h, acc, max_processors);
  UniPartitionResult res;
  res.assignment = bins.place_all(tasks);
  res.processors_used = bins.size();
  res.feasible = std::find(res.assignment.begin(), res.assignment.end(), -1) ==
                 res.assignment.end();
  return res;
}

int min_processors_uni(const std::vector<UniTask>& tasks, Heuristic h, Acceptance acc,
                       int hard_cap) {
  double total = 0.0;
  for (const UniTask& t : tasks) total += t.utilization();
  int m = std::max(1, static_cast<int>(std::ceil(total - 1e-12)));
  for (; m <= hard_cap; ++m) {
    if (partition_uni(tasks, m, h, acc).feasible) return m;
  }
  return -1;
}

}  // namespace pfair
