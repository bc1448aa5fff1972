// Profiling determinism + Perfetto phase tracks (ISSUE 7 acceptance):
//   * the JSONL event stream of a seeded run is byte-identical with
//     profiling attached vs detached, and sharded vs unsharded;
//   * PerfettoSink output with profiling + span recording on passes
//     validate_perfetto_json and actually contains the phase tracks.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/bus.h"
#include "obs/jsonl_sink.h"
#include "obs/perfetto_sink.h"
#include "obs/prof.h"
#include "obs/registry.h"
#include "obs/trace_analysis.h"
#include "sim/pfair_sim.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace pfair {
namespace {

struct ProfRun {
  std::string jsonl;     ///< JSONL event stream
  std::string perfetto;  ///< Perfetto/Chrome JSON (empty unless requested)
};

/// One seeded run: same workload every call, so any byte difference in
/// the captured streams is caused by the configuration under test.
ProfRun run_seeded(int shards, bool prof, bool spans, bool perfetto_out) {
  obs::prof::set_enabled(prof);
  obs::prof::set_span_recording(spans);
  obs::prof::reset();

  PfairConfig cfg;
  cfg.processors = 4;
  cfg.algorithm = Algorithm::kPD2;
  cfg.shards = shards;
  PfairSimulator sim(cfg);

  ProfRun out;
  std::ostringstream jsonl_os;
  std::ostringstream perfetto_os;
  obs::JsonlSink jsonl(jsonl_os);
  obs::EventBus bus;
  bus.add_sink(&jsonl);
  std::optional<obs::PerfettoSink> perfetto;
  if (perfetto_out) {
    perfetto.emplace(perfetto_os);
    bus.add_sink(&*perfetto);
  }
  sim.attach_observer(&bus);

  Rng rng(42);
  const std::vector<UniTask> tasks = generate_uni_tasks(rng, 12, 0.7 * 4.0, 64);
  for (const UniTask& t : tasks) (void)sim.admit(engine::task_spec(t.execution, t.period));
  sim.run_until(300);
  bus.flush();

  out.jsonl = jsonl_os.str();
  out.perfetto = perfetto_os.str();
  obs::prof::set_enabled(false);
  obs::prof::set_span_recording(false);
  obs::prof::reset();
  return out;
}

TEST(PhaseTrace, JsonlStreamByteIdenticalProfOnVsOff) {
  const ProfRun off = run_seeded(1, /*prof=*/false, false, false);
  const ProfRun on = run_seeded(1, /*prof=*/true, /*spans=*/true, false);
  ASSERT_FALSE(off.jsonl.empty());
  EXPECT_EQ(off.jsonl, on.jsonl);
}

TEST(PhaseTrace, JsonlStreamByteIdenticalShardedVsUnsharded) {
  const ProfRun one = run_seeded(1, /*prof=*/true, /*spans=*/true, false);
  const ProfRun eight = run_seeded(8, /*prof=*/true, /*spans=*/true, false);
  ASSERT_FALSE(one.jsonl.empty());
  EXPECT_EQ(one.jsonl, eight.jsonl);
}

TEST(PhaseTrace, PerfettoWithPhaseTracksValidatesAcrossShardCounts) {
  for (const int shards : {1, 8}) {
    const ProfRun r = run_seeded(shards, /*prof=*/true, /*spans=*/true,
                                 /*perfetto_out=*/true);
    ASSERT_FALSE(r.perfetto.empty()) << "shards=" << shards;
    EXPECT_EQ(obs::validate_perfetto_json(r.perfetto), "") << "shards=" << shards;
    // The prof process and at least the sequential merge phase must be
    // present; per-shard Phase A tracks appear for the sharded run.
    EXPECT_NE(r.perfetto.find("\"prof\""), std::string::npos) << "shards=" << shards;
    EXPECT_NE(r.perfetto.find("kernel.merge"), std::string::npos) << "shards=" << shards;
    EXPECT_NE(r.perfetto.find("kernel.phase_a"), std::string::npos)
        << "shards=" << shards;
    if (shards == 8) {
      EXPECT_NE(r.perfetto.find("shard 1"), std::string::npos);
    }
  }
}

TEST(PhaseTrace, PerfettoOmitsProfTracksWhenDetached) {
  const ProfRun r = run_seeded(1, /*prof=*/false, false, /*perfetto_out=*/true);
  ASSERT_FALSE(r.perfetto.empty());
  EXPECT_EQ(obs::validate_perfetto_json(r.perfetto), "");
  EXPECT_EQ(r.perfetto.find("kernel.phase_a"), std::string::npos);
}

}  // namespace
}  // namespace pfair
