// Tests of the benchmark's own pieces: the seeded generators, the span
// self-time arithmetic, and the failure accounting.
#include <gtest/gtest.h>

#include <numeric>

#include "gen.h"
#include "measure.h"
#include "serve/request.h"

namespace perfbench {
namespace {

TEST(Generators, SameKeySameInputs) {
  const std::uint64_t k = stream_key(7, 1, 0);
  EXPECT_EQ(churn_stream(k), churn_stream(k));
  EXPECT_EQ(digest_tasks(exact_session(k), 0),
            digest_tasks(exact_session(k), 0));
  EXPECT_EQ(digest_tasks(sweep_taskset(80, 8.0, k), 0),
            digest_tasks(sweep_taskset(80, 8.0, k), 0));
}

TEST(Generators, SeedsAndRoundsDiffer) {
  EXPECT_NE(stream_key(1, 1, 0), stream_key(2, 1, 0));
  EXPECT_NE(stream_key(1, 1, 0), stream_key(1, 2, 0));
  EXPECT_NE(stream_key(1, 1, 0), stream_key(1, 1, 1));
  EXPECT_NE(stream_key(1, 1, 0, 0), stream_key(1, 1, 0, 1));
  const std::uint64_t a = stream_key(1, 1, 0);
  const std::uint64_t b = stream_key(2, 1, 0);
  EXPECT_NE(churn_stream(a), churn_stream(b));
  EXPECT_NE(digest_tasks(exact_session(a), 0),
            digest_tasks(exact_session(b), 0));
  EXPECT_NE(digest_tasks(sweep_taskset(80, 8.0, a), 0),
            digest_tasks(sweep_taskset(80, 8.0, b), 0));
}

TEST(Generators, ChurnStreamParsesWithTheStandardMix) {
  const std::vector<std::string> lines = churn_stream(stream_key(3, 1, 0));
  ASSERT_EQ(lines.size(), kChurnRequests);
  std::size_t joins = 0;
  long long last_advance = 0;
  for (const std::string& line : lines) {
    const auto r = pfair::serve::parse_request(line);
    ASSERT_TRUE(r.has_value()) << line;
    EXPECT_EQ(pfair::serve::dump_request(*r), line);  // canonical form
    if (r->op == pfair::serve::RequestOp::kJoin) {
      ++joins;
      EXPECT_GE(r->period, 2);
      EXPECT_LE(r->period, kChurnMaxPeriod);
      EXPECT_GE(r->execution, 1);
      EXPECT_LE(r->execution, r->period);
    }
    if (r->op == pfair::serve::RequestOp::kAdvance) {
      EXPECT_GT(r->to, last_advance);
      last_advance = r->to;
    }
  }
  // 9 of 16 rolls are joins.
  EXPECT_NEAR(static_cast<double>(joins) / static_cast<double>(kChurnRequests), 9.0 / 16.0, 0.03);
}

TEST(Generators, ExactPeriodsDivideTheHyperperiod) {
  for (std::uint64_t s = 0; s < 20; ++s)
    for (const pfair::UniTask& t : exact_session(stream_key(s, 2, 0))) {
      EXPECT_EQ(kExactHyperperiod % t.period, 0);
      EXPECT_GE(t.period, kExactHyperperiod / kExactMaxJobs);
      EXPECT_TRUE(t.valid());
    }
}

TEST(Generators, SweepSetsHitTheirUtilization) {
  const auto set = sweep_taskset(320, 0.5 * 64, stream_key(4, 4, 0));
  ASSERT_EQ(set.size(), 320u);
  double u = 0.0;
  for (const pfair::UniTask& t : set) {
    EXPECT_TRUE(t.valid());
    EXPECT_GE(t.period, 10);
    EXPECT_LE(t.period, 64);
    u += t.utilization();
  }
  EXPECT_NEAR(u, 32.0, 0.05 * 32.0);
}

Span span(Layer name, std::int32_t parent, std::int64_t start, std::int64_t end) {
  return Span{name, parent, 0, start, end};
}

TEST(Spans, SelfTimeSubtractsDirectChildrenOnly) {
  // root [0,100) > parse [10,40) > decide [15,25); root > run [50,90)
  const std::vector<Span> spans = {
      span(Layer::kRequest, -1, 0, 100), span(Layer::kParse, 0, 10, 40),
      span(Layer::kDecideTier0, 1, 15, 25), span(Layer::kSimRunUntil, 0, 50, 90)};
  std::vector<double> self(kLayers, 0.0);
  add_self_times(spans, self);
  const auto ns = [&](Layer l) { return self[static_cast<std::size_t>(l)] * 1e9; };
  EXPECT_NEAR(ns(Layer::kRequest), 30.0, 1e-6);
  EXPECT_NEAR(ns(Layer::kParse), 20.0, 1e-6);
  EXPECT_NEAR(ns(Layer::kDecideTier0), 10.0, 1e-6);
  EXPECT_NEAR(ns(Layer::kSimRunUntil), 40.0, 1e-6);
  // The self times partition the root: nothing is counted twice.
  EXPECT_NEAR(std::accumulate(self.begin(), self.end(), 0.0) * 1e9, 100.0, 1e-6);
}

TEST(Spans, TracerNestsByCallOrderAndRenames) {
  Tracer tr;
  const std::int32_t root = tr.begin(Layer::kTrial, 9);
  {
    const Scope a(tr, Layer::kFactory, 9);
    const Scope b(tr, Layer::kDecideTier0, 9);
    tr.rename(b.index(), Layer::kDecideTier2);
  }
  const Scope c(tr, Layer::kPfairRunUntil, 9);
  tr.end(c.index());
  tr.end(root);
  const std::vector<Span>& s = tr.spans();
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[0].parent, -1);
  EXPECT_EQ(s[1].parent, 0);
  EXPECT_EQ(s[2].parent, 1);
  EXPECT_EQ(s[2].name, Layer::kDecideTier2);
  EXPECT_EQ(s[3].parent, 0);
  for (const Span& x : s) {
    EXPECT_EQ(x.id, 9u);
    EXPECT_LE(x.start_ns, x.end_ns);
  }
}

TEST(Accounting, SimRejectsAndErrorsFailCapacityRejectsDoNot) {
  const auto why = [](const char* line) { return reply_failure(parse_reply(line), 4); };
  EXPECT_STREQ(why(R"({"error":"unknown-task","ok":false,"op":"leave","seq":4,"task":9,"time":4})"),
               "error reply");
  EXPECT_STREQ(why(R"({"error":"bad-json","op":"error","seq":5})"), "error reply");
  EXPECT_STREQ(why(R"({"admit":false,"approx":false,"exact_events":0,"op":"join","reason":"sim-reject","seq":1,"task":-1,"tier":0,"time":1,"total":"3/2"})"),
               "sim-reject");
  // A capacity reject is a correct answer.
  EXPECT_EQ(why(R"({"admit":false,"approx":false,"exact_events":0,"op":"join","reason":"eq2","seq":2,"task":-1,"tier":0,"time":2,"total":"31/8"})"),
            nullptr);
  EXPECT_EQ(why(R"({"admit":true,"approx":false,"exact_events":0,"op":"join","reason":"eq2","seq":3,"task":0,"tier":0,"time":3,"total":"4"})"),
            nullptr);
  EXPECT_EQ(why(R"({"free_at":6,"ok":true,"op":"leave","seq":4,"task":1,"time":4})"), nullptr);
  EXPECT_EQ(why(R"({"op":"query","seq":5,"tasks":3,"time":5,"total":"7/2"})"), nullptr);
  // A committed total above m is a wrong answer, whatever the verdict.
  EXPECT_STREQ(why(R"({"admit":false,"approx":false,"exact_events":0,"op":"join","reason":"eq2","seq":33,"task":-1,"tier":0,"time":33,"total":"3548712169/832681080"})"),
               "committed total outside [0, m]");
  EXPECT_STREQ(why(R"({"op":"query","seq":6,"tasks":3,"time":6,"total":"-8048192957412737303/1000"})"),
               "committed total outside [0, m]");
}

TEST(Accounting, ReplyFields) {
  const Reply r = parse_reply(
      R"({"admit":true,"approx":false,"exact_events":12,"op":"join","reason":"exact-gedf","seq":3,"task":2,"tier":2,"time":0,"total":"5/3"})");
  EXPECT_TRUE(r.decision);
  EXPECT_TRUE(r.admit);
  EXPECT_EQ(r.tier, 2);
  EXPECT_EQ(r.reason, "exact-gedf");
  EXPECT_EQ(r.total, "5/3");
  EXPECT_TRUE(r.error.empty());
  EXPECT_FALSE(parse_reply(R"({"now":25,"op":"advance","seq":25,"time":25})").decision);
}

TEST(Accounting, WeightComparison) {
  EXPECT_TRUE(weight_in_range("4", 4));
  EXPECT_TRUE(weight_in_range("0", 4));
  EXPECT_TRUE(weight_in_range("8/2", 4));
  EXPECT_FALSE(weight_in_range("9/2", 4));
  EXPECT_FALSE(weight_in_range("-1/3", 4));
  EXPECT_FALSE(weight_in_range("", 4));
  EXPECT_FALSE(weight_in_range("4/x", 4));
  EXPECT_TRUE(weight_in_range("9223372036854775807/2305843009213693952", 4));
}

TEST(Accounting, ReportSeparatesFailedOperationsFromFailedChecks) {
  Report r;
  r.attempted = 4;
  r.defect("sim-reject", "first");
  r.defect("sim-reject", "second");
  r.defect("error reply", "e");
  EXPECT_EQ(r.defects, 3u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_TRUE(r.correct);
  ASSERT_EQ(r.defect_kinds.size(), 2u);
  EXPECT_EQ(r.defect_kinds[0].count, 2u);
  EXPECT_EQ(r.defect_kinds[0].first, "first");
  r.fail_op("process_line threw", "line");
  EXPECT_EQ(r.failed, 1u);
  EXPECT_EQ(r.defects, 3u);
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_TRUE(r.correct);
  r.check(true, "fine", [] { return std::string("unused"); });
  EXPECT_TRUE(r.correct);
  r.check(false, "digest differs", [] { return std::string("round 0"); });
  EXPECT_FALSE(r.correct);
  ASSERT_EQ(r.check_failures.size(), 1u);
  EXPECT_EQ(r.check_failures[0].first, "round 0");

  // Merging another client's report adds its operations by kind and
  // keeps the first instance seen; its failed checks stay its own.
  Report other;
  other.attempted = 5;
  other.defect("error reply", "e2");
  other.defect("committed total outside [0, m]", "t");
  other.fail_op("process_line threw", "line2");
  other.check(false, "other check", [] { return std::string(); });
  r.add_ops(other);
  EXPECT_EQ(r.attempted, 9u);
  EXPECT_EQ(r.defects, 5u);
  EXPECT_EQ(r.failed, 2u);
  ASSERT_EQ(r.defect_kinds.size(), 3u);
  EXPECT_EQ(r.defect_kinds[1].count, 2u);
  EXPECT_EQ(r.defect_kinds[1].first, "e");
  EXPECT_EQ(r.defect_kinds[2].first, "t");
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_EQ(r.failures[0].count, 2u);
  EXPECT_EQ(r.failures[0].first, "line");
  EXPECT_EQ(r.check_failures.size(), 1u);
}

TEST(Report, ResultLine) {
  Report r;
  r.attempted = 10;
  r.failed = 2;
  r.metric("setup_s", 0.25, "s");
  r.metric("throughput_per_s", 1234.5, "1/s");
  EXPECT_EQ(result_json(r),
            R"({"correct": true, "attempted": 10, "failed": 2, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}, "throughput_per_s": {"value": 1234.5, "unit": "1/s"}}})");
}

TEST(Latency, QuantilesResolveToHalfAPercent) {
  pfair::obs::Histogram h = latency_histogram();
  for (std::uint64_t v = 1; v <= 100000; ++v) h.add(static_cast<double>(v * 10));
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_NEAR(h.quantile(0.5), 500000.0, 0.005 * 500000.0);
  EXPECT_NEAR(h.quantile(0.99), 990000.0, 0.005 * 990000.0);
  pfair::obs::Histogram g = latency_histogram();
  g.add(5e10);  // 50 s
  EXPECT_EQ(g.overflow(), 0u);
  EXPECT_NEAR(g.quantile(1.0), 5e10, 0.005 * 5e10);
}

}  // namespace
}  // namespace perfbench
