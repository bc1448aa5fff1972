#include "uniproc/partitioned_sim.h"

#include "obs/prof.h"

namespace pfair {

PartitionedSimulator::PartitionedSimulator(const std::vector<UniTask>& tasks,
                                           PartitionConfig config)
    : tasks_(tasks),
      config_(config),
      bins_(config.heuristic, config.acceptance, config.max_processors) {
  const obs::prof::ProfScope prof(obs::prof::Phase::kPartitionPlace);
  adopt_partition(bins_.place_all(tasks_));
}

void PartitionedSimulator::adopt_partition(std::vector<int> assignment) {
  assignment_ = std::move(assignment);
  unplaced_.clear();
  for (std::size_t i = 0; i < assignment_.size(); ++i)
    if (assignment_[i] < 0) unplaced_.push_back(i);
  sims_.clear();
  sims_.reserve(static_cast<std::size_t>(bins_.size()));
  for (int p = 0; p < bins_.size(); ++p)
    for (const UniTask& t : bins_.members(p)) put(p, t);
}

void PartitionedSimulator::put(int proc, const UniTask& t) {
  if (proc == processors()) {
    UniSimConfig uc;
    uc.algorithm = config_.algorithm;
    uc.measure_overhead = config_.measure_overhead;
    sims_.emplace_back(std::vector<UniTask>{}, uc);
    sims_.back().set_observer(bus_, static_cast<ProcId>(proc));
  }
  sims_[static_cast<std::size_t>(proc)].admit(engine::task_spec(t.execution, t.period));
}

void PartitionedSimulator::attach_observer(obs::EventBus* bus) {
  bus_ = bus;
  for (std::size_t p = 0; p < sims_.size(); ++p)
    sims_[p].set_observer(bus_, static_cast<ProcId>(p));
}

bool PartitionedSimulator::admit(const engine::TaskSpec& spec) {
  const UniTask t{spec.resolved_execution(), spec.resolved_period()};
  if (now_ > 0 || !t.valid()) {
    ++rejected_;
    return false;
  }
  const obs::prof::ProfScope prof(obs::prof::Phase::kPartitionPlace);
  if (decreasing_variant(config_.heuristic)) {
    // A later task can move earlier ones: re-partition the enlarged set
    // and adopt it only if the new task found a bin.
    tasks_.push_back(t);
    UniBins bins(config_.heuristic, config_.acceptance, config_.max_processors);
    std::vector<int> assignment = bins.place_all(tasks_);
    if (assignment.back() < 0) {
      tasks_.pop_back();
      ++rejected_;
      return false;
    }
    bins_ = std::move(bins);
    adopt_partition(std::move(assignment));
  } else {
    const int proc = bins_.place(t);
    if (proc < 0) {
      ++rejected_;
      return false;
    }
    tasks_.push_back(t);
    assignment_.push_back(proc);
    put(proc, t);
  }
  ++admitted_;
  return true;
}

void PartitionedSimulator::run_until(Time until) {
  // Each processor's schedule is independent: run them one after the
  // other (wall-clock parallelism is irrelevant to the simulated
  // metrics; the *modelled* parallelism is what keeps per-invocation
  // scheduling cost flat in the processor count).
  for (UniprocSimulator& sim : sims_) sim.run_until(until);
  if (until > now_) now_ = until;
}

const engine::Metrics& PartitionedSimulator::metrics() const {
  aggregate_ = engine::Metrics{};
  for (const UniprocSimulator& sim : sims_) aggregate_.merge(sim.metrics());
  // Admission is decided by the ensemble: the member simulators count
  // the tasks handed to them, these counters count the requests.
  aggregate_.tasks_admitted = admitted_;
  aggregate_.tasks_rejected = rejected_;
  return aggregate_;
}

}  // namespace pfair
