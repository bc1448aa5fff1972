// Partitioned-system runtime: an ensemble of independent uniprocessor
// EDF/RM simulators behind a bin-packing front end — the actual runtime
// the EDF-FF schedulability analysis of Sec. 4 models.
//
// Complements the analytic comparison (Figs. 3-4) with an executable
// one: the same workload can be run through PfairSimulator (global PD2)
// and PartitionedSimulator (EDF-FF) and their realised preemption /
// migration / context-switch / miss counts compared directly.  By
// construction the partitioned system never migrates; its per-processor
// schedulers run independently and in parallel (the scheduling-overhead
// advantage the paper concedes to partitioning).
#pragma once

#include <vector>

#include "engine/metrics.h"
#include "engine/simulator.h"
#include "partition/uni_partition.h"
#include "uniproc/uni_sim.h"

namespace pfair {

struct PartitionConfig {
  int max_processors = 1 << 12;  ///< open as many as the heuristic needs
  Heuristic heuristic = Heuristic::kFirstFit;
  Acceptance acceptance = Acceptance::kEdfUtilization;
  UniAlgorithm algorithm = UniAlgorithm::kEDF;
  bool measure_overhead = false;
};

class PartitionedSimulator : public engine::Simulator {
 public:
  /// Partitions `tasks` (failing tasks are dropped and reported) and
  /// builds one uniprocessor simulator per opened processor.
  PartitionedSimulator(const std::vector<UniTask>& tasks, PartitionConfig config);

  /// Admission before the simulation starts places the new task with
  /// the same rule the constructor used: FF/BF/WF put it on one bin in
  /// O(processors) without touching earlier tasks, FFD/BFD re-partition
  /// the enlarged set.  Returns false once run_until() has advanced
  /// time, or when the new task cannot be placed (nothing changes).
  bool admit(const engine::TaskSpec& spec) override;
  using engine::Simulator::admit;

  void run_until(Time until) override;

  [[nodiscard]] Time now() const noexcept override { return now_; }

  /// Aggregated metrics across all processors.  Migrations are zero by
  /// construction; everything else is summed (earliest first miss).
  [[nodiscard]] const engine::Metrics& metrics() const override;

  [[nodiscard]] int processors() const noexcept { return static_cast<int>(sims_.size()); }
  [[nodiscard]] bool all_tasks_placed() const noexcept { return unplaced_.empty(); }
  [[nodiscard]] const std::vector<std::size_t>& unplaced() const noexcept { return unplaced_; }
  [[nodiscard]] const std::vector<int>& assignment() const noexcept { return assignment_; }

  /// Metrics of one processor's scheduler.
  [[nodiscard]] const engine::Metrics& processor_metrics(int proc) const {
    return sims_[static_cast<std::size_t>(proc)].metrics();
  }

  /// Observation: each member simulator stamps its events with its
  /// global processor id.  Task ids in the events are processor-local
  /// (the index within that processor's partition), since the members
  /// schedule independently.  Processors opened by later admits are
  /// attached too.
  void attach_observer(obs::EventBus* bus) override;

 private:
  /// Adopts bins_, a whole-set partition of tasks_ with the given
  /// per-task assignment, and rebuilds the per-processor simulators.
  void adopt_partition(std::vector<int> assignment);
  /// Hands `t` to processor `proc`'s simulator, opening (and attaching)
  /// that processor when it is new.
  void put(int proc, const UniTask& t);

  std::vector<UniTask> tasks_;
  PartitionConfig config_;
  UniBins bins_;
  std::vector<UniprocSimulator> sims_;  ///< movable: vector relocation is safe
  std::vector<int> assignment_;
  std::vector<std::size_t> unplaced_;
  Time now_ = 0;
  obs::EventBus* bus_ = nullptr;       ///< borrowed; attached to every processor
  // admit() outcomes; the member simulators only ever see placed tasks,
  // so these counters live on the ensemble and are stitched into the
  // aggregate by metrics().
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
  mutable engine::Metrics aggregate_;  ///< cache refreshed by metrics()
};

}  // namespace pfair
