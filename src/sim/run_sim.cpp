#include "sim/run_sim.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <sstream>

#include "util/math.h"

namespace pfair {

namespace {
constexpr std::uint32_t kNoNode = 0xffffffff;
}  // namespace

RunSimulator::RunSimulator(RunConfig config) : config_(config) {
  assert(config_.processors >= 1);
  proc_owner_.assign(static_cast<std::size_t>(config_.processors), kNoNode);
}

bool RunSimulator::admit(const engine::TaskSpec& spec) {
  const auto reject = [this] {
    ++metrics_.tasks_rejected;
    return false;
  };
  if (built_ || !spec.valid()) return reject();
  const Time e = spec.resolved_execution();
  const Time p = spec.resolved_period();
  const std::int64_t new_lcm = saturating_lcm(ticks_, p);
  if (new_lcm > kMaxLcm) return reject();  // tick grid would overflow int64 math
  // Exact utilization check over the new common denominator: RUN's
  // reduction requires sum e/p <= M, so admission is capacity-checked
  // (unlike PD2, which accepts anything and lets misses surface).
  std::int64_t sum_num = checked_mul(e, new_lcm / p);
  for (TaskId i = 0; i < tasks_.size(); ++i)
    sum_num += checked_mul(tasks_[i].execution, new_lcm / tasks_[i].period);
  if (sum_num > checked_mul(config_.processors, new_lcm))
    return reject();
  ticks_ = new_lcm;
  tasks_.add(make_task(e, p, TaskKind::kPeriodic, spec.name));
  ++metrics_.tasks_admitted;
  return true;
}

void RunSimulator::build_tree() {
  built_ = true;
  if (tasks_.empty()) return;

  // Leaves: one per task, plus at most one fractional idle leaf that
  // pads the effective processor count to an exact integral rate sum.
  std::int64_t sum_num = 0;
  Time max_period = 1;
  for (TaskId i = 0; i < tasks_.size(); ++i) {
    Node leaf;
    leaf.kind = Node::Kind::kLeaf;
    leaf.task = i;
    leaf.period = tasks_[i].period;
    leaf.rate_num = checked_mul(tasks_[i].execution, ticks_ / tasks_[i].period);
    leaf.job_work = checked_mul(tasks_[i].execution, ticks_);
    sum_num += leaf.rate_num;
    max_period = std::max(max_period, tasks_[i].period);
    leaves_.push_back(static_cast<std::uint32_t>(nodes_.size()));
    nodes_.push_back(std::move(leaf));
  }
  const std::int64_t m_eff = ceil_div(sum_num, ticks_);
  assert(m_eff <= config_.processors);  // admit() enforced sum <= M
  const std::int64_t idle_num = checked_mul(m_eff, ticks_) - sum_num;
  if (idle_num > 0) {
    // Idle leaf period = the largest task period: its deadlines land on
    // instants that are already boundaries, so padding costs no events.
    Node idle;
    idle.kind = Node::Kind::kLeaf;
    idle.task = kNoTask;
    idle.period = max_period;
    idle.rate_num = idle_num;
    idle.job_work = checked_mul(idle_num, max_period);
    leaves_.push_back(static_cast<std::uint32_t>(nodes_.size()));
    nodes_.push_back(std::move(idle));
  }
  leaf_proc_.assign(nodes_.size() + 1, kNoProc);  // grows below with packs/duals

  for (TaskId i = 0; i < tasks_.size(); ++i)
    distinct_periods_.push_back(tasks_[i].period);
  std::sort(distinct_periods_.begin(), distinct_periods_.end());
  distinct_periods_.erase(
      std::unique(distinct_periods_.begin(), distinct_periods_.end()),
      distinct_periods_.end());

  // Reduce: pack (FFD) -> unit packs become roots -> dual the rest.
  std::vector<std::uint32_t> items = leaves_;
  while (!items.empty()) {
    assert(levels_ < 64);  // termination is guaranteed; this is a backstop
    std::sort(items.begin(), items.end(), [&](std::uint32_t a, std::uint32_t b) {
      if (nodes_[a].rate_num != nodes_[b].rate_num)
        return nodes_[a].rate_num > nodes_[b].rate_num;
      return a < b;
    });
    std::vector<std::vector<std::uint32_t>> bins;
    std::vector<std::int64_t> bin_rate;
    for (const std::uint32_t item : items) {
      bool placed = false;
      for (std::size_t b = 0; b < bins.size(); ++b) {
        if (bin_rate[b] + nodes_[item].rate_num <= ticks_) {
          bins[b].push_back(item);
          bin_rate[b] += nodes_[item].rate_num;
          placed = true;
          break;
        }
      }
      if (!placed) {
        bins.push_back({item});
        bin_rate.push_back(nodes_[item].rate_num);
      }
    }
    items.clear();
    bool dualized = false;
    for (std::size_t b = 0; b < bins.size(); ++b) {
      Node pack;
      pack.kind = Node::Kind::kPack;
      pack.rate_num = bin_rate[b];
      pack.clients = std::move(bins[b]);
      std::sort(pack.clients.begin(), pack.clients.end());
      const std::uint32_t pack_idx = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(std::move(pack));
      if (bin_rate[b] == ticks_) {
        roots_.push_back(pack_idx);
        continue;
      }
      // Each level's rates sum to an integer, so a lone non-unit pack
      // cannot exist — there is always a partner to keep reducing with.
      Node dual;
      dual.kind = Node::Kind::kDual;
      dual.primal = pack_idx;
      dual.rate_num = ticks_ - bin_rate[b];
      // The dual's deadline set is the union of leaf periods below it.
      for (const std::uint32_t c : nodes_[pack_idx].clients) {
        const Node& child = nodes_[c];
        if (child.kind == Node::Kind::kLeaf)
          dual.periods.push_back(child.period);
        else
          dual.periods.insert(dual.periods.end(), child.periods.begin(),
                              child.periods.end());
      }
      std::sort(dual.periods.begin(), dual.periods.end());
      dual.periods.erase(std::unique(dual.periods.begin(), dual.periods.end()),
                         dual.periods.end());
      const std::uint32_t dual_idx = static_cast<std::uint32_t>(nodes_.size());
      duals_.push_back(dual_idx);
      nodes_.push_back(std::move(dual));
      items.push_back(dual_idx);
      dualized = true;
    }
    if (dualized) ++levels_;
  }
  leaf_proc_.assign(nodes_.size(), kNoProc);
}

Time RunSimulator::next_boundary_after(Time t_real) const {
  Time next = std::numeric_limits<Time>::max();
  for (const Time p : distinct_periods_)
    next = std::min(next, (t_real / p + 1) * p);
  return next;
}

void RunSimulator::process_boundary(Time t_real) {
  for (const std::uint32_t idx : leaves_) {
    Node& leaf = nodes_[idx];
    if (t_real % leaf.period != 0) continue;
    if (leaf.task != kNoTask) {
      if (leaf.work > 0) {
        // Predecessor job incomplete at its implicit deadline.  With
        // capacity-checked admission this is unreachable; counted
        // defensively so a scheduler bug cannot hide.
        metrics_.record_miss(t_real);
        obs::emit(bus_, obs::EventKind::kDeadlineMiss, t_real, leaf.task);
      }
      ++metrics_.jobs_released;
      obs::emit(bus_, obs::EventKind::kJobRelease, t_real, leaf.task, kNoProc,
                static_cast<double>(t_real + leaf.period));
    }
    leaf.work = leaf.job_work;
    leaf.release_tick = checked_mul(t_real, ticks_);
    leaf.deadline = t_real + leaf.period;
  }
  for (const std::uint32_t idx : duals_) {
    Node& dual = nodes_[idx];
    bool hit = false;
    Time next = std::numeric_limits<Time>::max();
    for (const Time p : dual.periods) {
      if (t_real % p == 0) hit = true;
      next = std::min(next, (t_real / p + 1) * p);
    }
    if (!hit) continue;  // not a deadline of this subtree: budget carries on
    dual.deadline = next;
    dual.budget = checked_mul(dual.rate_num, next - t_real);
  }
  pending_boundary_ = next_boundary_after(t_real);
}

void RunSimulator::mark_pack(std::uint32_t idx, bool exec) {
  Node& pack = nodes_[idx];
  pack.executing = exec;
  std::uint32_t pick = kNoNode;
  if (exec) {
    for (const std::uint32_t c : pack.clients) {
      const Node& cand = nodes_[c];
      const bool available = cand.kind == Node::Kind::kLeaf ? cand.work > 0
                                                            : cand.budget > 0;
      if (!available) continue;
      if (pick == kNoNode || cand.deadline < nodes_[pick].deadline) pick = c;
    }
  }
  for (const std::uint32_t c : pack.clients) {
    const bool sel = c == pick;
    Node& child = nodes_[c];
    child.executing = sel;
    // The inversion at the heart of RUN: a primal pack executes exactly
    // when its dual does not — unconditionally, so an idle parent pack
    // (sel = false for all dual clients) turns every primal below ON.
    if (child.kind == Node::Kind::kDual) mark_pack(child.primal, !sel);
  }
}

void RunSimulator::select() {
  ++metrics_.scheduler_invocations;
  ++metrics_.scheduling_points;
  obs::emit(bus_, obs::EventKind::kSchedInvoke,
            static_cast<Time>(now_tick_ / ticks_));
  for (const std::uint32_t r : roots_) mark_pack(r, true);
  executing_leaves_.clear();
  for (const std::uint32_t idx : leaves_)
    if (nodes_[idx].executing) executing_leaves_.push_back(idx);
  assert(executing_leaves_.size() <=
         static_cast<std::size_t>(config_.processors));
  // Defensive cap: the RUN theorem bounds the executing set by M; never
  // let a bookkeeping bug write past the processor array in release.
  if (executing_leaves_.size() > static_cast<std::size_t>(config_.processors))
    executing_leaves_.resize(static_cast<std::size_t>(config_.processors));
}

void RunSimulator::assign_processors(Time event_real) {
  const std::size_t m = static_cast<std::size_t>(config_.processors);
  // Pass 1: a leaf keeps its previous processor when no newly selected
  // leaf already claimed it (affinity minimises migrations).
  std::vector<bool> used(m, false);
  std::vector<std::uint32_t> unplaced;
  for (const std::uint32_t idx : executing_leaves_) {
    const ProcId p = leaf_proc_[idx];
    if (p != kNoProc && !used[p] &&
        (proc_owner_[p] == idx || proc_owner_[p] == kNoNode ||
         !nodes_[proc_owner_[p]].executing)) {
      used[p] = true;
    } else {
      unplaced.push_back(idx);
    }
  }
  // Pass 2: remaining leaves take the lowest free processor, id order.
  std::size_t next_free = 0;
  for (const std::uint32_t idx : unplaced) {
    while (next_free < m && used[next_free]) ++next_free;
    assert(next_free < m);
    const ProcId p = static_cast<ProcId>(next_free);
    used[p] = true;
    const Node& leaf = nodes_[idx];
    if (leaf.task != kNoTask) {
      if (leaf_proc_[idx] != kNoProc && leaf_proc_[idx] != p) {
        ++metrics_.migrations;
        obs::emit(bus_, obs::EventKind::kMigration, event_real, leaf.task, p,
                  static_cast<double>(leaf_proc_[idx]));
      }
    }
    leaf_proc_[idx] = p;
  }
  // Preemptions (Sec.-4 rule): was executing, no longer is, job unfinished.
  for (const std::uint32_t idx : prev_executing_) {
    const Node& leaf = nodes_[idx];
    if (!leaf.executing && leaf.work > 0 && leaf.task != kNoTask) {
      ++metrics_.preemptions;
      obs::emit(bus_, obs::EventKind::kPreemption, event_real, leaf.task, kNoProc,
                -1.0);
    }
  }
  // Context switches: the processor's occupant changed.
  for (const std::uint32_t idx : executing_leaves_) {
    const ProcId p = leaf_proc_[idx];
    if (proc_owner_[p] != idx) {
      if (nodes_[idx].task != kNoTask) {
        ++metrics_.context_switches;
        obs::emit(bus_, obs::EventKind::kContextSwitch, event_real,
                  nodes_[idx].task, p);
        obs::emit(bus_, obs::EventKind::kDispatch, event_real, nodes_[idx].task,
                  p, -1.0);
      }
      proc_owner_[p] = idx;
    }
  }
  for (std::size_t p = 0; p < m; ++p)
    if (proc_owner_[p] != kNoNode && !nodes_[proc_owner_[p]].executing)
      proc_owner_[p] = kNoNode;
  prev_executing_ = executing_leaves_;
}

Time RunSimulator::now() const noexcept {
  return static_cast<Time>(now_tick_ / ticks_);
}

void RunSimulator::run_until(Time until) {
  if (!built_) build_tree();
  assert(until <= std::numeric_limits<std::int64_t>::max() / ticks_);
  const std::int64_t until_tick = checked_mul(until, ticks_);
  if (leaves_.empty()) {
    now_tick_ = std::max(now_tick_, until_tick);
  } else {
    while (now_tick_ < until_tick) {
      if (now_tick_ == checked_mul(pending_boundary_, ticks_))
        process_boundary(pending_boundary_);
      const Time event_real = static_cast<Time>(now_tick_ / ticks_);
      select();
      assign_processors(event_real);

      std::int64_t next =
          std::min(until_tick, checked_mul(pending_boundary_, ticks_));
      for (const std::uint32_t idx : executing_leaves_)
        next = std::min(next, now_tick_ + nodes_[idx].work);
      for (const std::uint32_t idx : duals_)
        if (nodes_[idx].executing) next = std::min(next, now_tick_ + nodes_[idx].budget);
      assert(next > now_tick_);

      const std::int64_t delta = next - now_tick_;
      for (const std::uint32_t idx : executing_leaves_) {
        Node& leaf = nodes_[idx];
        leaf.work -= delta;
        if (leaf.task == kNoTask) continue;
        busy_ticks_ += delta;
        if (config_.record_segments) {
          if (!segments_.empty() && segments_.back().task == leaf.task &&
              segments_.back().end == now_tick_) {
            segments_.back().end = next;  // contiguous: extend in place
          } else {
            segments_.push_back(RunSegment{leaf.task, now_tick_, next});
          }
        }
        if (leaf.work == 0) {
          ++metrics_.jobs_completed;
          const double response =
              static_cast<double>(next - leaf.release_tick) / static_cast<double>(ticks_);
          metrics_.response_time.add(response);
          obs::emit(bus_, obs::EventKind::kJobComplete,
                    static_cast<Time>(next / ticks_), leaf.task, leaf_proc_[idx],
                    response);
        }
      }
      for (const std::uint32_t idx : duals_)
        if (nodes_[idx].executing) nodes_[idx].budget -= delta;
      now_tick_ = next;
    }
  }
  metrics_.slots = static_cast<std::uint64_t>(now_tick_ / ticks_);
  metrics_.busy_quanta = static_cast<std::uint64_t>(busy_ticks_ / ticks_);
  metrics_.idle_quanta =
      metrics_.slots * static_cast<std::uint64_t>(config_.processors) -
      metrics_.busy_quanta;
}

RunVerifyResult verify_run_segments(const std::vector<RunSegment>& segments,
                                    const TaskSet& tasks,
                                    std::int64_t ticks_per_slot, Time horizon,
                                    int processors) {
  RunVerifyResult res;
  const std::size_t n = tasks.size();
  std::vector<std::vector<const RunSegment*>> per_task(n);
  for (const RunSegment& s : segments) {
    if (s.task >= n) {
      std::ostringstream os;
      os << "unknown task id " << s.task << " in segment log";
      res.fail(os.str());
      continue;
    }
    if (s.start >= s.end) {
      std::ostringstream os;
      os << "empty/reversed segment [" << s.start << ", " << s.end
         << ") for task " << s.task;
      res.fail(os.str());
      continue;
    }
    per_task[s.task].push_back(&s);
  }

  // Per-job exactness: every window [k*p, (k+1)*p) fully inside the
  // horizon must contain exactly e * ticks of service.
  for (TaskId id = 0; id < n; ++id) {
    auto& segs = per_task[id];
    std::sort(segs.begin(), segs.end(),
              [](const RunSegment* a, const RunSegment* b) {
                return a->start < b->start;
              });
    std::int64_t prev_end = 0;
    for (const RunSegment* s : segs) {
      if (s->start < prev_end) {
        std::ostringstream os;
        os << "overlapping segments for task " << id << " at tick " << s->start;
        res.fail(os.str());
      }
      prev_end = s->end;
    }
    const Task& t = tasks[id];
    const std::int64_t window = t.period * ticks_per_slot;
    const std::int64_t want = t.execution * ticks_per_slot;
    const std::int64_t jobs = horizon / t.period;  // complete windows only
    std::vector<std::int64_t> service(static_cast<std::size_t>(jobs), 0);
    for (const RunSegment* s : segs) {
      std::int64_t lo = s->start;
      while (lo < s->end) {
        const std::int64_t k = lo / window;
        const std::int64_t hi = std::min(s->end, (k + 1) * window);
        if (k < jobs) service[static_cast<std::size_t>(k)] += hi - lo;
        lo = hi;
      }
    }
    for (std::int64_t k = 0; k < jobs; ++k) {
      if (service[static_cast<std::size_t>(k)] != want) {
        std::ostringstream os;
        os << "task " << id << " job " << k << " received "
           << service[static_cast<std::size_t>(k)] << " ticks in window ["
           << k * window << ", " << (k + 1) * window << "), expected " << want;
        res.fail(os.str());
      }
    }
  }

  // Global parallelism <= processors at every instant.
  std::vector<std::pair<std::int64_t, int>> edges;
  edges.reserve(segments.size() * 2);
  for (const RunSegment& s : segments) {
    if (s.task >= n || s.start >= s.end) continue;
    edges.emplace_back(s.start, +1);
    edges.emplace_back(s.end, -1);
  }
  std::sort(edges.begin(), edges.end());
  int active = 0;
  for (const auto& [tick, delta] : edges) {
    active += delta;
    if (active > processors) {
      std::ostringstream os;
      os << "parallelism " << active << " > " << processors << " processors at tick "
         << tick;
      res.fail(os.str());
      break;
    }
  }
  return res;
}

}  // namespace pfair
