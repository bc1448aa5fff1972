#include "obs/prof.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <deque>
#include <mutex>

#include "obs/registry.h"

namespace pfair::obs::prof {

namespace detail {
std::atomic<bool> g_enabled{false};
std::atomic<bool> g_spans{false};
}  // namespace detail

namespace {

/// sample_histogram() is exponential(32, 2, 26): bucket j (1-based)
/// covers [2^(j+4), 2^(j+5)) ns, so the hot path indexes buckets with
/// one bit scan instead of a binary search over the edge array.
/// Slot 0 = underflow (< 32 ns), 1..26 = buckets, 27 = overflow.
constexpr std::size_t kBucketSlots = 28;

std::size_t bucket_index(std::uint64_t ns) noexcept {
  if (ns < 32) return 0;
  const auto bw = static_cast<std::size_t>(std::bit_width(ns));  // >= 6
  return bw <= 31 ? bw - 5 : kBucketSlots - 1;
}

/// One phase's accumulators.  Single-writer discipline: only the owning
/// thread writes (relaxed load+store — plain moves on x86, no RMW);
/// collectors read the same atomics, so cross-thread collection is
/// race-free without any lock on the record path.  A collector running
/// *while* the owner records may see a count/total pair one sample
/// apart — snapshots are taken at quiesce points, where they are exact.
struct PhaseCell {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> total_ns{0};
  std::atomic<std::uint64_t> max_ns{0};
  std::array<std::atomic<std::uint64_t>, kBucketSlots> buckets{};
};

struct ThreadBuf {
  std::array<PhaseCell, kPhaseCount> phases{};
  std::mutex mu;  ///< guards the span log only (span recording is opt-in)
  std::vector<Span> spans;
  std::uint64_t next_seq = 0;
};

struct ProfState {
  std::mutex mu;                 ///< guards `bufs` and `free`
  std::deque<ThreadBuf> bufs;    ///< stable addresses; grows to peak concurrency
  std::vector<ThreadBuf*> free;  ///< returned by exited threads, counts intact
};

ProfState& state() {
  static ProfState s;
  return s;
}

/// The calling thread's buffer, returned to the free list at thread
/// exit.  (Thread-local destructors run before static ones, so state()
/// outlives every lease, the main thread's included.)
struct Lease {
  ThreadBuf* buf = nullptr;
  Lease() = default;
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;
  ~Lease() {
    if (buf == nullptr) return;
    ProfState& s = state();
    const std::lock_guard<std::mutex> lock(s.mu);
    s.free.push_back(buf);
  }
};

thread_local Lease tl_lease;
thread_local std::int32_t tl_worker = -1;

ThreadBuf& local_buf() {
  Lease& lease = tl_lease;
  if (lease.buf == nullptr) {
    ProfState& s = state();
    const std::lock_guard<std::mutex> lock(s.mu);
    if (s.free.empty()) {
      s.bufs.emplace_back();
      lease.buf = &s.bufs.back();
    } else {
      lease.buf = s.free.back();
      s.free.pop_back();
    }
  }
  return *lease.buf;
}

constexpr const char* kPhaseNames[kPhaseCount] = {
    "kernel.phase_a",   // kKernelPhaseA
    "kernel.merge",     // kKernelMerge
    "kernel.advance",   // kKernelAdvance
    "sim.assign",       // kAssign
    "sim.admit",        // kAdmit
    "partition.place",  // kPartitionPlace
    "pool.job",         // kPoolJob
};

}  // namespace

const char* phase_name(Phase p) noexcept {
  return kPhaseNames[static_cast<std::size_t>(p)];
}

namespace detail {

void record(Phase p, std::int32_t shard, Time slot, std::uint64_t ns) {
  ThreadBuf& b = local_buf();
  PhaseCell& c = b.phases[static_cast<std::size_t>(p)];
  c.count.store(c.count.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
  c.total_ns.store(c.total_ns.load(std::memory_order_relaxed) + ns,
                   std::memory_order_relaxed);
  if (ns > c.max_ns.load(std::memory_order_relaxed))
    c.max_ns.store(ns, std::memory_order_relaxed);
  std::atomic<std::uint64_t>& bucket = c.buckets[bucket_index(ns)];
  bucket.store(bucket.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  if (span_recording()) {
    const std::lock_guard<std::mutex> lock(b.mu);
    b.spans.push_back(Span{p, shard, tl_worker, slot, ns, b.next_seq++});
  }
}

}  // namespace detail

void set_enabled(bool on) noexcept {
  // Warm the clock so no timed scope pays its one-time calibration.
  if (on) static_cast<void>(approx_now_ns());
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void set_span_recording(bool on) noexcept {
  detail::g_spans.store(on, std::memory_order_relaxed);
}

void set_worker_index(std::int32_t index) noexcept { tl_worker = index; }

std::size_t thread_buffers() {
  ProfState& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  return s.bufs.size();
}

Histogram sample_histogram() { return Histogram::exponential(32.0, 2.0, 26); }

std::vector<PhaseTotals> collect_totals() {
  std::vector<PhaseTotals> out(kPhaseCount);
  for (PhaseTotals& t : out) t.hist = sample_histogram();
  ProfState& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  for (ThreadBuf& b : s.bufs) {
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      const PhaseCell& c = b.phases[i];
      const std::uint64_t count = c.count.load(std::memory_order_relaxed);
      if (count == 0) continue;
      out[i].count += count;
      out[i].total_ns += c.total_ns.load(std::memory_order_relaxed);
      const std::uint64_t mx = c.max_ns.load(std::memory_order_relaxed);
      if (mx > out[i].max_ns) out[i].max_ns = mx;
      // Rebuild the ns histogram from the lock-free bucket counts:
      // bucket j's lower edge 2^(j+4) lands exactly in bucket j again.
      if (const std::uint64_t n = c.buckets[0].load(std::memory_order_relaxed))
        out[i].hist.add(0.0, n);
      for (std::size_t j = 1; j + 1 < kBucketSlots; ++j) {
        if (const std::uint64_t n = c.buckets[j].load(std::memory_order_relaxed))
          out[i].hist.add(std::ldexp(32.0, static_cast<int>(j) - 1), n);
      }
      if (const std::uint64_t n =
              c.buckets[kBucketSlots - 1].load(std::memory_order_relaxed))
        out[i].hist.add(std::ldexp(32.0, 26), n);  // >= top edge: overflow
    }
  }
  return out;
}

std::vector<Span> collect_spans() {
  std::vector<Span> out;
  ProfState& s = state();
  {
    const std::lock_guard<std::mutex> lock(s.mu);
    for (ThreadBuf& b : s.bufs) {
      const std::lock_guard<std::mutex> block(b.mu);
      out.insert(out.end(), b.spans.begin(), b.spans.end());
    }
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    if (a.slot != b.slot) return a.slot < b.slot;
    if (a.shard != b.shard) return a.shard < b.shard;
    if (a.phase != b.phase) return a.phase < b.phase;
    if (a.worker != b.worker) return a.worker < b.worker;
    return a.seq < b.seq;
  });
  return out;
}

void snapshot_into(MetricsRegistry& reg) {
  const std::vector<PhaseTotals> totals = collect_totals();
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const PhaseTotals& t = totals[i];
    if (t.count == 0) continue;
    TimerStats ts;
    ts.count = t.count;
    ts.total_ns = t.total_ns;
    ts.max_ns = t.max_ns;
    ts.hist = t.hist;
    reg.record_timer(phase_name(static_cast<Phase>(i)), ts);
  }
}

void reset() {
  ProfState& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  for (ThreadBuf& b : s.bufs) {
    for (PhaseCell& c : b.phases) {
      c.count.store(0, std::memory_order_relaxed);
      c.total_ns.store(0, std::memory_order_relaxed);
      c.max_ns.store(0, std::memory_order_relaxed);
      for (std::atomic<std::uint64_t>& n : c.buckets)
        n.store(0, std::memory_order_relaxed);
    }
    const std::lock_guard<std::mutex> block(b.mu);
    b.spans.clear();
    b.next_seq = 0;
  }
}

}  // namespace pfair::obs::prof
