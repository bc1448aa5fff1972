// perfbench: the repository benchmark.
//
//   perfbench --workload serve-churn|serve-exact|sweep-kernel|sweep-wide
//             --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// With --trace 0 it measures the end-to-end metrics, with --trace 1 the
// per-layer ones (and the traced run's overhead against an untraced run
// on the same inputs).  Human-readable lines come first; the last line
// of stdout is the JSON result.  Exit status 1 when an output check
// failed, 2 on bad usage.  See README.md for the workloads and metrics.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve-churn|serve-exact|sweep-kernel|sweep-wide\n"
               "                 --seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") o.workload = val;
    else if (key == "--seed") o.seed = std::strtoull(val, nullptr, 10);
    else if (key == "--seconds") o.seconds = std::strtod(val, nullptr);
    else if (key == "--trace") o.trace = std::strcmp(val, "0") != 0;
    else if (key == "--trace-out") o.trace_out = val;
    else return usage();
  }
  if (argc % 2 == 0 || !(o.seconds > 0.0)) return usage();

  perfbench::Report r;
  if (o.workload == "serve-churn" || o.workload == "serve-exact") {
    r = perfbench::run_serve(o);
  } else if (o.workload == "sweep-kernel" || o.workload == "sweep-wide") {
    r = perfbench::run_sweep(o);
  } else {
    return usage();
  }
  r.check(r.failed + r.defects < r.attempted, "no operation succeeded",
          [] { return std::string(); });
  for (const std::string& line : r.notes) std::printf("# %s\n", line.c_str());
  for (const auto& [list, label] : {std::pair{&r.defect_kinds, "defective operations"},
                                    std::pair{&r.failures, "failed operations"},
                                    std::pair{&r.check_failures, "CHECK FAILED"}})
    for (const perfbench::Report::Tally& t : *list)
      std::printf("# %s: %llu x %s%s%s\n", label, static_cast<unsigned long long>(t.count),
                  t.what.c_str(), t.first.empty() ? "" : "; first: ", t.first.c_str());
  std::printf("%s\n", perfbench::result_json(r).c_str());
  return r.correct ? 0 : 1;
}
