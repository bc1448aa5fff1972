// The pfaird request loop: protocol errors, the determinism contract,
// registry publication, and a storm-profile fuzz pass proving the gate
// never lets the simulator into a deadline miss.
#include "serve/daemon.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.h"
#include "qa/gen.h"
#include "serve/request.h"
#include "util/rng.h"

namespace pfair::serve {
namespace {

DaemonConfig pfair_config(int processors) {
  DaemonConfig c;
  c.kind = engine::SchedulerKind::kPfair;
  c.processors = processors;
  return c;
}

std::string serve_string(Daemon& d, const std::string& requests) {
  std::istringstream in(requests);
  std::ostringstream out;
  d.serve(in, out);
  return out.str();
}

TEST(Daemon, EveryLineGetsExactlyOneAnswer) {
  Daemon d(pfair_config(2));
  const std::string out = serve_string(
      d, "{\"op\":\"join\",\"execution\":1,\"period\":4}\n"
         "{\"op\":\"query\"}\n"
         "{\"op\":\"advance\",\"to\":8}\n");
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
  EXPECT_EQ(d.stats().requests, 3u);
  EXPECT_EQ(d.stats().admits, 1u);
  EXPECT_EQ(d.simulator().now(), 8);
}

TEST(Daemon, MalformedLinesAnswerWithStableErrorTokens) {
  Daemon d(pfair_config(1));
  EXPECT_NE(d.process_line("this is not json").find("\"bad-json\""),
            std::string::npos);
  EXPECT_NE(d.process_line("{\"op\":\"frobnicate\"}").find("\"bad-op\""),
            std::string::npos);
  EXPECT_NE(d.process_line("{\"op\":\"join\",\"execution\":1}").find("\"bad-field\""),
            std::string::npos);
  EXPECT_EQ(d.stats().errors, 3u);
  EXPECT_EQ(d.stats().requests, 3u);
}

TEST(Daemon, StaticKindsRefuseDynamicRequests) {
  DaemonConfig c;
  c.kind = engine::SchedulerKind::kUniproc;
  Daemon d(c);
  ASSERT_NE(d.process_line("{\"op\":\"join\",\"execution\":1,\"period\":4}")
                .find("\"admit\":true"),
            std::string::npos);
  EXPECT_NE(d.process_line("{\"op\":\"leave\",\"task\":0}").find("\"not-dynamic\""),
            std::string::npos);
  EXPECT_NE(d.process_line(
                 "{\"op\":\"reweight\",\"task\":0,\"execution\":1,\"period\":8}")
                .find("\"not-dynamic\""),
            std::string::npos);
  EXPECT_EQ(d.stats().errors, 2u);
}

TEST(Daemon, DecisionLogIsByteIdenticalAcrossRunsAndLatencyModes) {
  GenConfig gen;
  gen.count = 400;
  gen.seed = 9;
  gen.processors = 2;
  const std::string requests = generate_requests(gen);

  Daemon a(pfair_config(2));
  Daemon b(pfair_config(2));
  DaemonConfig no_latency = pfair_config(2);
  no_latency.measure_latency = false;  // wall-clock must never leak into output
  Daemon c(no_latency);

  const std::string out_a = serve_string(a, requests);
  EXPECT_EQ(out_a, serve_string(b, requests));
  EXPECT_EQ(out_a, serve_string(c, requests));
  EXPECT_EQ(c.stats().latency_count, 0u);
  EXPECT_EQ(a.stats().admits, b.stats().admits);
}

TEST(Daemon, AdvancePerRequestKeepsTheQuantumLoopRunning) {
  DaemonConfig c = pfair_config(1);
  c.advance_per_request = 3;
  Daemon d(c);
  (void)d.process_line("{\"op\":\"join\",\"execution\":1,\"period\":4}");
  (void)d.process_line("{\"op\":\"query\"}");
  EXPECT_EQ(d.simulator().now(), 6);
}

TEST(Daemon, PublishRegistryMirrorsTheStats) {
  obs::MetricsRegistry::global().reset_values();
  Daemon d(pfair_config(2));
  GenConfig gen;
  gen.count = 120;
  gen.seed = 4;
  gen.processors = 2;
  (void)serve_string(d, generate_requests(gen));
  d.publish_registry();
  auto& reg = obs::MetricsRegistry::global();
  EXPECT_EQ(reg.counter("serve.requests").value(), d.stats().requests);
  EXPECT_EQ(reg.counter("serve.admits").value(), d.stats().admits);
  EXPECT_EQ(reg.counter("serve.rejects").value(), d.stats().rejects);
  EXPECT_EQ(reg.counter("serve.tier0").value(), d.stats().tier0);
  const std::string snap = reg.snapshot_json();
  EXPECT_NE(snap.find("\"serve.decision\""), std::string::npos);
  obs::MetricsRegistry::global().reset_values();
}

/// Converts a qa storm case into the daemon's request stream: the base
/// tasks join at t=0 (validate() guarantees they are Pfair-feasible, so
/// the Eq.-(2) gate admits them all and their daemon ids are 0..n-1 —
/// which is exactly what the case's leave script indexes), then the
/// join/leave storm replays in time order via advance requests.
std::string storm_requests(const qa::FuzzCase& c) {
  std::string out;
  for (const Task& t : c.tasks.tasks()) {
    Request r;
    r.op = RequestOp::kJoin;
    r.execution = t.execution;
    r.period = t.period;
    out += dump_request(r) + "\n";
  }
  std::vector<std::pair<Time, Request>> timed;
  for (const qa::JoinEvent& j : c.joins) {
    Request r;
    r.op = RequestOp::kJoin;
    r.execution = j.task.execution;
    r.period = j.task.period;
    timed.emplace_back(j.at, r);
  }
  for (const qa::LeaveEvent& l : c.leaves) {
    Request r;
    r.op = RequestOp::kLeave;
    r.task = l.task;
    timed.emplace_back(l.at, r);
  }
  std::stable_sort(timed.begin(), timed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  Time clock = 0;
  for (const auto& [at, r] : timed) {
    if (at > clock) {
      Request adv;
      adv.op = RequestOp::kAdvance;
      adv.to = at;
      out += dump_request(adv) + "\n";
      clock = at;
    }
    out += dump_request(r) + "\n";
  }
  return out;
}

TEST(Daemon, StormFuzzCasesStayMissFreeThroughTheGate) {
  // The acceptance property: whatever the admission gate lets through,
  // the Pfair simulator must schedule without a deadline miss.  Rejected
  // joins and unknown-task leaves are fine; misses are not.
  qa::GenConfig gen;
  gen.only_profile = qa::Profile::kStorm;
  gen.max_processors = 3;
  const qa::TaskSetGen source(gen, 77);
  for (std::uint64_t index = 0; index < 25; ++index) {
    const qa::FuzzCase c = source.make_case(index);
    ASSERT_EQ(qa::validate(c), "") << "case " << index;
    Daemon d(pfair_config(c.processors));
    std::istringstream in(storm_requests(c));
    std::ostringstream out;
    d.serve(in, out);
    // Every base task must have been admitted for the leave script's
    // indices to mean what the case meant.
    ASSERT_GE(d.stats().admits, c.tasks.size()) << "case " << index;
    d.simulator().run_until(c.horizon);
    EXPECT_EQ(d.simulator().metrics().deadline_misses, 0u)
        << "case " << index << " (seed 77, profile storm)";
  }
}

TEST(Daemon, GlobalEdfAdmitsStayMissFreeInAdmissionOrder) {
  // The gate judges a set in canonical (period, execution) order; the
  // daemon serves it in admission order.  Join-only sessions at time 0,
  // periods dividing 24 so H stays small and equal deadlines are
  // common: after every admit, the admitted set fed to the served
  // simulator in admission order must run to H + 1 without a miss
  // (H + 1: a miss is recorded at the successor's release).
  const std::int64_t periods[] = {2, 3, 4, 6, 8, 12, 24};
  Rng rng(2024);
  std::uint64_t exact_admits = 0;
  for (int session = 0; session < 60; ++session) {
    DaemonConfig c;
    c.kind = engine::SchedulerKind::kGlobalJob;
    c.processors = static_cast<int>(rng.uniform_int(2, 4));
    Daemon d(c);
    engine::SimulatorConfig sc;
    sc.global_job.processors = c.processors;
    std::vector<UniTask> admitted;
    for (int join = 0; join < 16; ++join) {
      const std::int64_t p = periods[rng.uniform_int(0, 6)];
      const UniTask t{std::max<std::int64_t>(
                          1, static_cast<std::int64_t>(rng.uniform(0.05, 0.6) *
                                                       static_cast<double>(p))),
                      p};
      const std::string reply = d.process_line(
          "{\"op\":\"join\",\"execution\":" + std::to_string(t.execution) +
          ",\"period\":" + std::to_string(t.period) + "}");
      if (reply.find("\"admit\":true") == std::string::npos) continue;
      if (reply.find("\"exact-gedf\"") != std::string::npos) ++exact_admits;
      admitted.push_back(t);
      Time h = 1;
      for (const UniTask& a : admitted) h = std::lcm(h, a.period);
      const auto served = engine::make_simulator(engine::SchedulerKind::kGlobalJob, sc);
      for (const UniTask& a : admitted)
        ASSERT_TRUE(served->admit(engine::task_spec(a.execution, a.period)));
      served->run_until(h + 1);
      ASSERT_EQ(served->metrics().deadline_misses, 0u)
          << "session " << session << ", m=" << c.processors << ", admit #"
          << admitted.size() << ": " << reply;
    }
  }
  // Tier 0's GFB admits hold under any tie-break; only Tier-2 admits
  // test the served order, so some must have happened.
  EXPECT_GT(exact_admits, 0u);
}

}  // namespace
}  // namespace pfair::serve
