// serve-churn and serve-exact: closed-loop clients of serve::Daemon.
//
// A client sends a request line, waits for the reply, checks it, and
// only then sends the next, so each request's latency is the time
// process_line() takes.  The checks (reply accounting, digests, the
// total-in-range rule) run between requests, outside the timed calls.
// The untraced run has up to four clients at once, each serving whole
// sessions against its own daemon.  The metrics stay those of one
// client; running four averages out the host's per-core speed swings,
// which moved a lone client's throughput by 20-30% between runs.
//
// The traced run replays the same lines through the layers the daemon
// is built from — parse_request, a standalone AdmissionController and
// an engine::Simulator — in the daemon's call order, with a span around
// each call, and requires every (admit, reason, tier) to equal the
// daemon's reply: the per-layer numbers must describe the program the
// end-to-end numbers measure.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>

#include "engine/factory.h"
#include "gen.h"
#include "serve/admission.h"
#include "serve/daemon.h"
#include "serve/request.h"
#include "workloads.h"

namespace perfbench {

namespace {

using pfair::TaskId;
using pfair::Time;
using pfair::UniTask;
namespace serve = pfair::serve;
namespace engine = pfair::engine;

constexpr int kProcessors = 4;
constexpr std::uint64_t kChurnTag = 1;
constexpr std::uint64_t kExactTag = 2;
/// serve-churn sessions per round.  A session's failure share is set
/// early in the session (it ranges 0.24..0.81 between sessions of 2000,
/// 5000 or 20000 requests alike), so several short sessions per round
/// keep a run's failure share steady.
constexpr std::size_t kChurnSessions = 4;
/// serve-exact sessions per round: enough that one round's set-up is
/// measurable and its Tier-2 cost averages over many task sets.
constexpr std::size_t kExactSessions = 32;

struct ServeWorkload {
  bool churn = true;
  serve::DaemonConfig daemon;
};

ServeWorkload workload_of(const std::string& name) {
  ServeWorkload w;
  w.churn = name == "serve-churn";
  w.daemon.processors = kProcessors;
  if (w.churn) {
    w.daemon.kind = engine::SchedulerKind::kPfair;
    w.daemon.advance_per_request = 1;
  } else {
    w.daemon.kind = engine::SchedulerKind::kGlobalJob;
    w.daemon.algorithm = pfair::UniAlgorithm::kEDF;
  }
  return w;
}

/// The daemon's own construction of its gate and simulator.
serve::AdmissionConfig admission_config(const serve::DaemonConfig& c) {
  return serve::AdmissionConfig{c.kind,           c.processors,     c.algorithm,
                                c.overhead_aware, c.overhead,       c.cache_delay_us,
                                c.exact_budget,   c.mirror_shards,  c.memo_capacity};
}

engine::SimulatorConfig simulator_config(const serve::DaemonConfig& c) {
  engine::SimulatorConfig sc;
  sc.pfair.processors = c.processors;
  sc.partitioned.max_processors = c.processors;
  sc.partitioned.algorithm = c.algorithm;
  sc.global_job.processors = c.processors;
  sc.global_job.algorithm = c.algorithm;
  sc.uniproc.algorithm = c.algorithm;
  sc.wrr.processors = c.processors;
  return sc;
}

struct Session {
  std::vector<std::string> lines;
  std::vector<UniTask> joins;  ///< serve-exact: the task each line joins
  std::unique_ptr<serve::Daemon> daemon;
};

/// The reply fields the layer replay must reproduce.
struct Answer {
  bool decision = false;
  bool admit = false;
  int tier = -1;
  std::string reason;
  std::string error;

  [[nodiscard]] bool operator==(const Answer&) const = default;
};

std::vector<Session> make_round(const ServeWorkload& w, std::uint64_t seed,
                                std::uint64_t round) {
  std::vector<Session> out(w.churn ? kChurnSessions : kExactSessions);
  for (std::size_t k = 0; k < out.size(); ++k) {
    Session& s = out[k];
    if (w.churn) {
      s.lines = churn_stream(stream_key(seed, kChurnTag, round, k));
    } else {
      s.joins = exact_session(stream_key(seed, kExactTag, round, k));
      for (const UniTask& t : s.joins) s.lines.push_back(join_line(t));
    }
    s.daemon = std::make_unique<serve::Daemon>(w.daemon);
  }
  return out;
}

std::uint64_t round_input_digest(const std::vector<Session>& round) {
  std::uint64_t h = fnv1a("");
  for (const Session& s : round)
    for (const std::string& line : s.lines) h = fnv1a(line, fnv1a("\n", h));
  return h;
}

/// True when `tasks`, admitted in this order at time 0, miss a deadline
/// under the served global-EDF scheduler within their hyperperiod
/// (after which a miss-free schedule repeats).
bool misses_in_hyperperiod(const std::vector<UniTask>& tasks) {
  Time h = 1;
  for (const UniTask& t : tasks) h = std::lcm(h, t.period);
  engine::SimulatorConfig sc;
  sc.global_job.processors = kProcessors;
  sc.global_job.algorithm = pfair::UniAlgorithm::kEDF;
  const auto sim = engine::make_simulator(engine::SchedulerKind::kGlobalJob, sc);
  for (const UniTask& t : tasks) sim->admit(engine::task_spec(t.execution, t.period));
  // A miss is recorded when the next job is released, so the jobs due
  // at h are checked only once the releases at h are processed.
  sim->run_until(h + 1);
  return sim->metrics().deadline_misses != 0;
}

/// Serves one session, timing each process_line() call into `e` and
/// checking each reply.  Returns the digest of the decision log.
std::uint64_t serve_session(Session& s, EndToEnd& e, Report& r,
                            std::vector<Answer>* answers) {
  std::uint64_t digest = fnv1a("");
  std::vector<UniTask> admitted;
  for (std::size_t i = 0; i < s.lines.size(); ++i) {
    ++r.attempted;
    std::string reply;
    const std::int64_t t0 = now_ns();
    try {
      reply = s.daemon->process_line(s.lines[i]);
    } catch (const std::exception& ex) {
      r.fail_op("process_line threw", s.lines[i] + ": " + ex.what());
      reply = std::string("threw: ") + ex.what();
    }
    const std::int64_t t1 = now_ns();
    e.latency.add(static_cast<double>(t1 - t0));
    e.busy_s += static_cast<double>(t1 - t0) * 1e-9;
    ++e.done;

    const Reply rep = parse_reply(reply);
    if (const char* why = reply_failure(rep, kProcessors)) r.defect(why, reply);
    digest = fnv1a(reply, fnv1a("\n", digest));
    if (!s.joins.empty() && rep.admit) admitted.push_back(s.joins[i]);
    if (answers != nullptr)
      answers->push_back(Answer{rep.decision, rep.admit, rep.tier, std::string(rep.reason),
                                std::string(rep.error)});
  }
  if (s.daemon->simulator().metrics().deadline_misses != 0)
    r.defect("served simulator missed a deadline", "");
  if (!s.joins.empty() && misses_in_hyperperiod(admitted)) {
    // The admit that made the served set miss is the defective decision;
    // later admits build on a set that was already wrong.
    std::vector<UniTask> prefix;
    for (const UniTask& t : admitted) {
      prefix.push_back(t);
      if (misses_in_hyperperiod(prefix)) break;
    }
    std::string set;
    for (const UniTask& t : prefix)
      set += std::to_string(t.execution) + "/" + std::to_string(t.period) + " ";
    r.defect("admitted set misses a deadline under the served scheduler", set);
  }
  return digest;
}

/// Serves a round's sessions on up to `clients` concurrent clients;
/// client c takes sessions c, c + n, ...  Merges the clients'
/// measurements into `e` and `r` in client order and returns each
/// session's decision-log digest.
std::vector<std::uint64_t> serve_round(std::vector<Session>& sessions, std::size_t clients,
                                       EndToEnd& e, Report& r,
                                       std::vector<std::vector<Answer>>* answers) {
  struct Client {
    EndToEnd e;
    Report r;
  };
  const std::size_t n = std::min(clients, sessions.size());
  std::vector<Client> out(n);
  std::vector<std::uint64_t> digests(sessions.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < n; ++c)
    threads.emplace_back([&, c] {
      for (std::size_t k = c; k < sessions.size(); k += n)
        digests[k] = serve_session(sessions[k], out[c].e, out[c].r,
                                   answers != nullptr ? &(*answers)[k] : nullptr);
    });
  for (std::thread& t : threads) t.join();
  for (const Client& c : out) {
    e.latency.merge(c.e.latency);
    e.busy_s += c.e.busy_s;
    e.done += c.e.done;
    r.add_ops(c.r);
  }
  return digests;
}

/// Replays one session through the daemon's layers with spans around
/// each call.  Returns the traced wall (Σ request spans, seconds).
double replay_session(const Session& s, const ServeWorkload& w,
                      const std::vector<Answer>& expect, Tracer& tr, LayerTotals& lt,
                      Report& r, std::uint64_t id_base) {
  const serve::DaemonConfig& dc = w.daemon;
  serve::AdmissionController gate(admission_config(dc));
  const std::unique_ptr<engine::Simulator> sim =
      engine::make_simulator(dc.kind, simulator_config(dc));
  TaskId next_static_id = 0;

  const auto decide = [&](std::uint64_t id, auto&& call) {
    const Scope span(tr, Layer::kDecideTier0, id);
    const serve::Decision d = call();
    const int tier = std::clamp(d.tier, 0, 2);
    tr.rename(span.index(), tier == 0   ? Layer::kDecideTier0
                            : tier == 1 ? Layer::kDecideTier1
                                        : Layer::kDecideTier2);
    ++lt.tier_decisions[tier];
    lt.tier2_events += d.exact_events;
    if (d.approx) ++lt.tier2_approx;
    return d;
  };
  const auto bookkeeping = [&](std::uint64_t id, auto&& call) {
    const Scope span(tr, Layer::kBookkeeping, id);
    call();
  };
  const auto note = [&](const serve::Decision& d, Answer& a) {
    a.decision = true;
    a.admit = d.admit;
    a.tier = d.tier;
    a.reason = d.reason;
  };

  double wall = 0.0;
  for (std::size_t i = 0; i < s.lines.size(); ++i) {
    const std::uint64_t id = id_base + i;
    Answer a;
    const std::int32_t root = tr.begin(Layer::kRequest, id);
    std::optional<serve::Request> req;
    std::string err;
    {
      const Scope span(tr, Layer::kParse, id);
      req = serve::parse_request(s.lines[i], &err);
    }
    ++lt.parse_calls;
    if (!req.has_value()) {
      a.error = err;
    } else {
      const serve::Request& q = *req;
      bookkeeping(id, [&] { gate.advance_to(sim->now()); });
      switch (q.op) {
        case serve::RequestOp::kJoin: {
          const UniTask cand{q.execution, q.period};
          serve::Decision d = decide(id, [&] { return gate.decide_join(cand); });
          if (d.admit) {
            TaskId assigned = pfair::kNoTask;
            {
              const Scope span(tr, Layer::kDynamics, id);
              const engine::TaskSpec spec = engine::task_spec(q.execution, q.period, q.name);
              if (sim->can_dynamic()) {
                if (const std::optional<TaskId> got = sim->join(spec)) assigned = *got;
              } else if (sim->admit(spec)) {
                assigned = next_static_id++;
              }
            }
            if (assigned == pfair::kNoTask) {
              d.admit = false;
              d.reason = "sim-reject";
              ++lt.sim_refused;
            } else {
              bookkeeping(id, [&] { gate.commit(assigned, cand); });
            }
          }
          note(d, a);
          break;
        }
        case serve::RequestOp::kLeave: {
          if (!sim->can_dynamic()) {
            a.error = "not-dynamic";
            break;
          }
          std::optional<Time> free;
          {
            const Scope span(tr, Layer::kDynamics, id);
            free = sim->request_leave(q.task);
          }
          if (free.has_value()) {
            bookkeeping(id, [&] { gate.schedule_release(q.task, *free); });
          } else {
            a.error = "unknown-task";
          }
          break;
        }
        case serve::RequestOp::kReweight: {
          if (!sim->can_dynamic()) {
            a.error = "not-dynamic";
            break;
          }
          const UniTask cand{q.execution, q.period};
          serve::Decision d =
              decide(id, [&] { return gate.decide_reweight(q.task, cand); });
          if (!d.admit && std::string_view(d.reason) == "unknown-task") {
            a.error = "unknown-task";
            break;
          }
          if (d.admit) {
            std::optional<Time> when;
            {
              const Scope span(tr, Layer::kDynamics, id);
              when = sim->request_reweight(q.task, engine::task_spec(q.execution, q.period));
            }
            if (when.has_value()) {
              bookkeeping(id, [&] { gate.schedule_reweight(q.task, cand, *when); });
            } else {
              d.admit = false;
              d.reason = "sim-reject";
              ++lt.sim_refused;
            }
          }
          note(d, a);
          break;
        }
        case serve::RequestOp::kAdvance:
          if (q.to > sim->now()) {
            const Scope span(tr, Layer::kSimRunUntil, id);
            sim->run_until(q.to);
          }
          bookkeeping(id, [&] { gate.advance_to(sim->now()); });
          break;
        case serve::RequestOp::kQuery:
        case serve::RequestOp::kBatch:
          break;
      }
    }
    if (dc.advance_per_request > 0) {
      {
        const Scope span(tr, Layer::kSimRunUntil, id);
        sim->run_until(sim->now() + dc.advance_per_request);
      }
      bookkeeping(id, [&] { gate.advance_to(sim->now()); });
    }
    tr.end(root);
    const Span& rs = tr.spans()[static_cast<std::size_t>(root)];
    wall += static_cast<double>(rs.end_ns - rs.start_ns) * 1e-9;
    r.check(a == expect[i], "the layer replay disagrees with the daemon",
            [&] { return "request " + std::to_string(i) + ": " + s.lines[i]; });
  }
  lt.units += s.lines.size();
  lt.sim_slots += sim->metrics().slots;
  lt.memo_hits += gate.memo_hits();
  lt.memo_misses += gate.memo_misses();
  return wall;
}

}  // namespace

Report run_serve(const Options& o) {
  const ServeWorkload w = workload_of(o.workload);
  Report r;
  EndToEnd e;
  e.tail_q = 0.99;
  LayerTotals lt;
  Tracer tr;
  std::string first_spans;
  std::uint64_t round0_digest = fnv1a("");
  const std::int64_t start = now_ns();
  double serve_wall_s = 0.0;
  // The traced replay runs on one thread, so the traced run's untraced
  // reference serves with one client too: trace_overhead_ratio then
  // compares like with like.
  const std::size_t clients = o.trace ? 1 : static_cast<std::size_t>(workers());

  std::uint64_t rounds = 0;
  for (std::uint64_t round = 0;; ++round) {
    const std::int64_t s0 = now_ns();
    std::vector<Session> sessions = make_round(w, o.seed, round);
    e.setups.push_back(static_cast<double>(now_ns() - s0) * 1e-9);
    ++rounds;
    if (round == 0) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s inputs: %zu session(s) x %zu requests per round, "
                    "round-0 digest %016llx", o.workload.c_str(), sessions.size(),
                    sessions[0].lines.size(),
                    static_cast<unsigned long long>(round_input_digest(sessions)));
      r.note(buf);
    }

    std::vector<std::vector<Answer>> answers(sessions.size());
    const double busy_before = e.busy_s;
    const std::int64_t w0 = now_ns();
    const std::vector<std::uint64_t> digests =
        serve_round(sessions, clients, e, r, o.trace ? &answers : nullptr);
    serve_wall_s += static_cast<double>(now_ns() - w0) * 1e-9;

    if (o.trace) {
      lt.untraced_wall_s += e.busy_s - busy_before;
      for (std::size_t k = 0; k < sessions.size(); ++k) {
        lt.traced_wall_s += replay_session(sessions[k], w, answers[k], tr, lt, r,
                                           (round << 32) + (k << 20));
        add_self_times(tr.spans(), lt.self_s);
        if (round == 0 && k == 0) write_spans(tr.spans(), first_spans);
        tr.clear();
      }
    }

    if (round == 0) {
      for (const std::uint64_t d : digests) round0_digest = fnv1a_u64(d, round0_digest);
      // Determinism: the same lines through fresh daemons must give
      // byte-identical decision logs.
      std::vector<Session> again = make_round(w, o.seed, 0);
      EndToEnd repeat_e;
      Report repeat_r;
      const std::vector<std::uint64_t> repeat =
          serve_round(again, clients, repeat_e, repeat_r, nullptr);
      for (std::size_t k = 0; k < again.size(); ++k)
        r.check(repeat[k] == digests[k],
                "decision-log digest differs between repeats of the same session",
                [&] { return "round 0 session " + std::to_string(k); });
    }

    const double measured = serve_wall_s + lt.traced_wall_s;
    const double wall = static_cast<double>(now_ns() - start) * 1e-9;
    if (measured >= o.seconds || wall > 120.0) break;
  }

  char buf[200];
  std::snprintf(buf, sizeof buf, "%s: %llu round(s), round-0 decision-log digest %016llx",
                o.workload.c_str(), static_cast<unsigned long long>(rounds),
                static_cast<unsigned long long>(round0_digest));
  r.note(buf);
  if (o.trace) {
    add_layer_metrics(r, lt);
    if (!o.trace_out.empty()) std::ofstream(o.trace_out) << first_spans;
  } else {
    add_end_to_end(r, e, /*serve=*/true);
  }
  return r;
}

}  // namespace perfbench
