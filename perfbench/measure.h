// Measurement pieces shared by the workloads: the latency histogram,
// the in-memory span tracer and its self-time arithmetic, decision-line
// classification, and the run report.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.h"

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread.  Unlike wall time it leaves out time
/// the host took the virtual CPU away (steal), which on a shared host
/// otherwise dominates the tail of a busy worker pool.
[[nodiscard]] std::int64_t thread_cpu_ns() noexcept;

/// Latency histogram in ns: exponential buckets 0.4% wide from 1 ns to
/// about 125 s.  Memory does not grow with the sample count, so a faster
/// program cannot inflate the benchmark's own RSS.
[[nodiscard]] inline pfair::obs::Histogram latency_histogram() {
  return pfair::obs::Histogram::exponential(1.0, 1.004, 6400);
}

/// Span names: the layer boundaries the traced runs time.  Roots
/// (kRequest, kTrial) enclose one request or trial; their self time is
/// glue that no layer owns.
enum class Layer : std::uint8_t {
  kRequest,
  kParse,
  kDecideTier0,
  kDecideTier1,
  kDecideTier2,
  kBookkeeping,
  kDynamics,
  kSimRunUntil,
  kTrial,
  kFactory,
  kPfairAdmit,
  kPartitionAdmit,
  kPfairRunUntil,
  kUniprocRunUntil,
  kCount,
};
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);
[[nodiscard]] const char* layer_name(Layer l) noexcept;

struct Span {
  Layer name = Layer::kRequest;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 for a root
  std::uint64_t id = 0;      ///< request or trial id, shared by its spans
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Single-thread span recorder; spans nest by call order.
class Tracer {
 public:
  std::int32_t begin(Layer name, std::uint64_t id);
  void end(std::int32_t span) noexcept;
  /// Renames an open or closed span (decide spans learn their tier on return).
  void rename(std::int32_t span, Layer name) noexcept;
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  void clear() noexcept;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, Layer name, std::uint64_t id) : t_(t), span_(t.begin(name, id)) {}
  ~Scope() { t_.end(span_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::int32_t index() const noexcept { return span_; }

 private:
  Tracer& t_;
  std::int32_t span_;
};

/// Adds each span's self time — its duration minus the durations of its
/// direct children — in seconds into self_s[layer].
void add_self_times(const std::vector<Span>& spans, std::vector<double>& self_s);

/// Writes spans as JSONL (name, start/end ns, parent, id).
void write_spans(const std::vector<Span>& spans, std::string& out);

/// The fields of one decision line the checks and the failure
/// accounting read.
struct Reply {
  bool decision = false;  ///< a join/reweight answer (has "tier")
  bool admit = false;
  int tier = -1;
  std::string_view reason;
  std::string_view error;  ///< non-empty for error replies
  std::string_view total;  ///< committed weight "num/den", when present
};
[[nodiscard]] Reply parse_reply(std::string_view line);

/// Why a reply counts as a defective operation on m processors, or nullptr
/// when it does not: an error reply, a gate admit the simulator refused
/// ("sim-reject"), or a committed total outside [0, m].  Capacity
/// rejects are correct answers.
[[nodiscard]] const char* reply_failure(const Reply& r, long long m) noexcept;

/// True when a "num/den" (or "num") weight lies in [0, m].  A negative
/// committed total is as wrong as one above m (a wrapped Rational sum
/// shows up as one).
[[nodiscard]] bool weight_in_range(std::string_view total, long long m) noexcept;

/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark invocation prints.
///
/// Three outcomes besides success.  A failed *operation* is one the
/// program did not complete: the library threw.  It is counted in
/// `failed` by kind, and the run goes on.  A *defective* operation
/// completed, but its output breaks a correctness rule: an error reply,
/// a sim-reject, a committed total outside [0, m], an admitted set or a
/// sweep leg that misses a deadline.  It is counted in `defects` by
/// kind, and the run goes on, so the share of defective outputs is
/// measured as the program stands (the ok_share metric).  A failed
/// *check* means the measurement cannot be trusted (outputs differ
/// between repeats, the traced replay disagrees with the daemon): the
/// run reports correct = false and exits nonzero.
struct Report {
  struct Tally {
    std::string what;
    std::uint64_t count = 0;
    std::string first;  ///< the first instance
  };

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t defects = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;   ///< human-readable lines, printed first
  std::vector<Tally> failures;      ///< failed operations by kind
  std::vector<Tally> defect_kinds;  ///< defective operations by kind
  std::vector<Tally> check_failures;

  /// Counts one operation of kind `what` that did not complete.
  void fail_op(const char* what, const std::string& first) {
    ++failed;
    tally(failures, what, first);
  }
  /// Counts one completed operation of kind `what` whose output is wrong.
  void defect(const char* what, const std::string& first) {
    ++defects;
    tally(defect_kinds, what, first);
  }
  /// Records a measurement check; `detail()` (called only on failure)
  /// locates the first failing instance.
  template <typename Detail>
  void check(bool ok, const char* what, Detail&& detail) {
    if (ok) return;
    correct = false;
    tally(check_failures, what, detail());
  }
  /// Adds another report's operations, failed and defective ones
  /// included, to this one (its checks and metrics are not copied).
  void add_ops(const Report& o);
  void note(const std::string& line) { notes.push_back(line); }
  void metric(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }

 private:
  static void tally(std::vector<Tally>& list, const char* what, const std::string& first);
  static void merge(std::vector<Tally>& into, const std::vector<Tally>& from);
};

/// The final result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
[[nodiscard]] std::string result_json(const Report& r);

}  // namespace perfbench
