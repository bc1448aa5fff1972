// obs::MetricsRegistry + obs::prof: handle stability, snapshot shape,
// and the zero-cost-when-detached / accurate-when-attached contract of
// the scoped phase timers.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "engine/parallel.h"
#include "obs/prof.h"
#include "obs/registry.h"

namespace pfair::obs {
namespace {

/// Test isolation: prof state and the global registry persist across
/// tests in one process, so every test starts from a clean slate.
class ProfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prof::set_enabled(false);
    prof::set_span_recording(false);
    prof::reset();
    MetricsRegistry::global().reset_values();
  }
  void TearDown() override {
    prof::set_enabled(false);
    prof::set_span_recording(false);
    prof::reset();
    MetricsRegistry::global().reset_values();
  }
};

TEST_F(ProfTest, CounterAndGaugeRoundTrip) {
  MetricsRegistry reg;
  Counter& c = reg.counter("x");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  Gauge& g = reg.gauge("depth");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
}

TEST_F(ProfTest, HandlesStayValidAcrossResetAndLaterRegistrations) {
  MetricsRegistry reg;
  Counter& a = reg.counter("a");
  a.add(7);
  reg.reset_values();
  EXPECT_EQ(a.value(), 0u);  // zeroed, not deallocated
  // Later registrations must not move existing nodes.
  for (int i = 0; i < 100; ++i) (void)reg.counter("other" + std::to_string(i));
  a.add(3);
  EXPECT_EQ(reg.counter("a").value(), 3u);
  EXPECT_EQ(&reg.counter("a"), &a);
}

TEST_F(ProfTest, SnapshotOmitsZerosAndIsCanonicalJson) {
  MetricsRegistry reg;
  reg.counter("hits").add(5);
  (void)reg.counter("silent");  // zero: must not appear
  reg.gauge("load").set(0.5);
  TimerStats ts;
  ts.count = 2;
  ts.total_ns = 300;
  ts.max_ns = 200;
  ts.hist = prof::sample_histogram();
  ts.hist.add(100.0);
  ts.hist.add(200.0);
  reg.record_timer("phase", ts);
  const json::Value snap = reg.snapshot();
  ASSERT_TRUE(snap.is_object());
  const json::Value* counters = snap.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->number_or("hits", -1), 5.0);
  EXPECT_EQ(counters->find("silent"), nullptr);
  const json::Value* timers = snap.find("timers");
  ASSERT_NE(timers, nullptr);
  const json::Value* phase = timers->find("phase");
  ASSERT_NE(phase, nullptr);
  EXPECT_DOUBLE_EQ(phase->number_or("count", -1), 2.0);
  EXPECT_DOUBLE_EQ(phase->number_or("avg_ns", -1), 150.0);
  EXPECT_GT(phase->number_or("p99_ns", -1), 0.0);
  // snapshot_json round-trips through the parser.
  const auto parsed = json::parse(reg.snapshot_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(*parsed == snap);
}

TEST_F(ProfTest, DetachedScopesRecordNothing) {
  ASSERT_FALSE(prof::enabled());
  { const prof::ProfScope s(prof::Phase::kKernelPhaseA, 0, 1); }
  { const prof::ProfScope s(prof::Phase::kAdmit); }
  for (const prof::PhaseTotals& t : prof::collect_totals()) {
    EXPECT_EQ(t.count, 0u);
    EXPECT_EQ(t.total_ns, 0u);
  }
  EXPECT_TRUE(prof::collect_spans().empty());
}

TEST_F(ProfTest, AttachedScopesAggregateIntoPhaseTotals) {
  prof::set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    const prof::ProfScope s(prof::Phase::kKernelMerge, -1, i);
  }
  const std::vector<prof::PhaseTotals> totals = prof::collect_totals();
  const auto& merge = totals[static_cast<std::size_t>(prof::Phase::kKernelMerge)];
  EXPECT_EQ(merge.count, 3u);
  EXPECT_GE(merge.total_ns, merge.max_ns);
  EXPECT_EQ(merge.hist.total(), 3u);
  // Other phases untouched.
  EXPECT_EQ(totals[static_cast<std::size_t>(prof::Phase::kAdmit)].count, 0u);
}

TEST_F(ProfTest, SnapshotIntoPublishesTimersUnderPhaseNames) {
  prof::set_enabled(true);
  { const prof::ProfScope s(prof::Phase::kKernelPhaseA, 2, 10); }
  { const prof::ProfScope s(prof::Phase::kAssign, -1, 10); }
  prof::snapshot_into(MetricsRegistry::global());
  const json::Value snap = MetricsRegistry::global().snapshot();
  const json::Value* timers = snap.find("timers");
  ASSERT_NE(timers, nullptr);
  EXPECT_NE(timers->find("kernel.phase_a"), nullptr);
  EXPECT_NE(timers->find("sim.assign"), nullptr);
  EXPECT_EQ(timers->find("kernel.merge"), nullptr);  // zero samples: skipped
}

TEST_F(ProfTest, SpansRecordShardSlotAndSortDeterministically) {
  prof::set_enabled(true);
  prof::set_span_recording(true);
  { const prof::ProfScope s(prof::Phase::kKernelPhaseA, 1, 5); }
  { const prof::ProfScope s(prof::Phase::kKernelPhaseA, 0, 5); }
  { const prof::ProfScope s(prof::Phase::kKernelMerge, -1, 4); }
  const std::vector<prof::Span> spans = prof::collect_spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].slot, 4);  // sorted by slot first
  EXPECT_EQ(spans[1].slot, 5);
  EXPECT_EQ(spans[1].shard, 0);  // then shard
  EXPECT_EQ(spans[2].shard, 1);
}

TEST_F(ProfTest, SpansOffByDefaultEvenWhenEnabled) {
  prof::set_enabled(true);
  { const prof::ProfScope s(prof::Phase::kAssign, -1, 0); }
  EXPECT_EQ(prof::collect_totals()[static_cast<std::size_t>(prof::Phase::kAssign)].count,
            1u);
  EXPECT_TRUE(prof::collect_spans().empty());
}

TEST_F(ProfTest, CollectionMergesAcrossThreads) {
  prof::set_enabled(true);
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([w] {
      prof::set_worker_index(w);
      for (int i = 0; i < 10; ++i) {
        const prof::ProfScope s(prof::Phase::kPoolJob, -1, i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const prof::PhaseTotals pool =
      prof::collect_totals()[static_cast<std::size_t>(prof::Phase::kPoolJob)];
  EXPECT_EQ(pool.count, 40u);
  EXPECT_EQ(pool.hist.total(), 40u);
}

TEST_F(ProfTest, ResetZeroesInPlace) {
  prof::set_enabled(true);
  prof::set_span_recording(true);
  { const prof::ProfScope s(prof::Phase::kAdmit); }
  prof::reset();
  for (const prof::PhaseTotals& t : prof::collect_totals()) EXPECT_EQ(t.count, 0u);
  EXPECT_TRUE(prof::collect_spans().empty());
  EXPECT_TRUE(prof::enabled());  // reset() does not touch the switches
}

TEST_F(ProfTest, ShortLivedPoolsTakeNoBuffersWhileDisabled) {
  const std::size_t before = prof::thread_buffers();
  for (int round = 0; round < 200; ++round) {
    engine::ThreadPool pool(2);
    pool.submit([] { const prof::ProfScope s(prof::Phase::kAdmit); });
    pool.wait();
  }
  EXPECT_EQ(prof::thread_buffers(), before);
}

TEST_F(ProfTest, BuffersBoundedByConcurrentThreadsWhileEnabled) {
  prof::set_enabled(true);
  { const prof::ProfScope s(prof::Phase::kAdmit); }  // the main thread's buffer
  const std::size_t before = prof::thread_buffers();
  constexpr int kWorkers = 4;
  for (int round = 0; round < 50; ++round) {
    engine::ThreadPool pool(kWorkers);
    for (int j = 0; j < 2 * kWorkers; ++j)
      pool.submit([] { const prof::ProfScope s(prof::Phase::kAdmit); });
    pool.wait();
  }
  // Exited workers hand their buffers to the next pool's workers.
  EXPECT_LE(prof::thread_buffers(), before + kWorkers);
  const prof::PhaseTotals admit =
      prof::collect_totals()[static_cast<std::size_t>(prof::Phase::kAdmit)];
  EXPECT_EQ(admit.count, 1u + 50u * 2u * kWorkers);
}

TEST_F(ProfTest, ExitedThreadCountsStayInTotals) {
  prof::set_enabled(true);
  std::thread([] {
    for (int i = 0; i < 10; ++i) {
      const prof::ProfScope s(prof::Phase::kPartitionPlace);
    }
  }).join();
  const prof::PhaseTotals place =
      prof::collect_totals()[static_cast<std::size_t>(prof::Phase::kPartitionPlace)];
  EXPECT_EQ(place.count, 10u);
  EXPECT_STREQ(prof::phase_name(prof::Phase::kPartitionPlace), "partition.place");
}

}  // namespace
}  // namespace pfair::obs
