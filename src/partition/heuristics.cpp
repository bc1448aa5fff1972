#include "partition/heuristics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace pfair {

const char* heuristic_name(Heuristic h) noexcept {
  switch (h) {
    case Heuristic::kFirstFit:
      return "FF";
    case Heuristic::kBestFit:
      return "BF";
    case Heuristic::kWorstFit:
      return "WF";
    case Heuristic::kFirstFitDecreasing:
      return "FFD";
    case Heuristic::kBestFitDecreasing:
      return "BFD";
  }
  return "?";
}

bool decreasing_variant(Heuristic h) noexcept {
  return h == Heuristic::kFirstFitDecreasing || h == Heuristic::kBestFitDecreasing;
}

Heuristic base_rule(Heuristic h) noexcept {
  switch (h) {
    case Heuristic::kFirstFitDecreasing:
      return Heuristic::kFirstFit;
    case Heuristic::kBestFitDecreasing:
      return Heuristic::kBestFit;
    default:
      return h;
  }
}

PartitionResult partition(const std::vector<Rational>& u, int max_processors, Heuristic h) {
  assert(max_processors >= 0);
  PartitionResult res;
  res.assignment.assign(u.size(), -1);
  res.feasible = true;

  std::vector<std::size_t> order(u.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (decreasing_variant(h)) {
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return u[b] < u[a]; });
  }
  const Heuristic rule = base_rule(h);

  for (const std::size_t i : order) {
    assert(Rational(0) < u[i] && u[i] <= Rational(1));
    int chosen = -1;
    for (int pnum = 0; pnum < static_cast<int>(res.loads.size()); ++pnum) {
      const Rational after = res.loads[static_cast<std::size_t>(pnum)] + u[i];
      if (Rational(1) < after) continue;  // EDF acceptance: load must stay <= 1
      if (rule == Heuristic::kFirstFit) {
        chosen = pnum;
        break;
      }
      if (chosen == -1) {
        chosen = pnum;
        continue;
      }
      const Rational cur = res.loads[static_cast<std::size_t>(chosen)];
      const Rational cand = res.loads[static_cast<std::size_t>(pnum)];
      if (rule == Heuristic::kBestFit ? cur < cand : cand < cur) chosen = pnum;
    }
    if (chosen == -1) {
      if (static_cast<int>(res.loads.size()) < max_processors) {
        res.loads.emplace_back(0);
        chosen = static_cast<int>(res.loads.size()) - 1;
      } else {
        res.feasible = false;
        continue;  // task i stays unassigned
      }
    }
    res.loads[static_cast<std::size_t>(chosen)] += u[i];
    res.assignment[i] = chosen;
  }
  res.processors_used = static_cast<int>(res.loads.size());
  return res;
}

int min_processors(const std::vector<Rational>& u, Heuristic h, int hard_cap) {
  Rational total(0);
  for (const Rational& w : u) total += w;
  int m = static_cast<int>(std::max<std::int64_t>(1, total.ceil()));
  for (; m <= hard_cap; ++m) {
    if (partition(u, m, h).feasible) return m;
  }
  return -1;
}

double partitioning_worst_case_utilization(int m) noexcept {
  return (static_cast<double>(m) + 1.0) / 2.0;
}

double lopez_bound(int m, double u_max) noexcept {
  assert(u_max > 0.0 && u_max <= 1.0);
  const double beta = std::floor(1.0 / u_max);
  return (beta * static_cast<double>(m) + 1.0) / (beta + 1.0);
}

double simple_partition_bound(int m, double u_max) noexcept {
  return static_cast<double>(m) - (static_cast<double>(m) - 1.0) * u_max;
}

}  // namespace pfair
