#include "gen.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::uint64_t Rng::next() noexcept {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  std::uint64_t v = next();
  while (v >= limit) v = next();
  return lo + static_cast<std::int64_t>(v % range);
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * (static_cast<double>(next() >> 11) * 0x1.0p-53);
}

std::uint64_t stream_key(std::uint64_t seed, std::uint64_t workload, std::uint64_t round,
                         std::uint64_t item) noexcept {
  std::uint64_t h = 0x6a09e667f3bcc909ull;
  for (const std::uint64_t part : {seed, workload, round, item}) {
    Rng mix(h ^ part);
    h = mix.next();
  }
  return h;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) noexcept {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fnv1a_u64(std::uint64_t v, std::uint64_t h) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

std::int64_t execution_for(std::int64_t period, double u) {
  const auto e = static_cast<std::int64_t>(std::llround(static_cast<double>(period) * u));
  return std::clamp<std::int64_t>(e, 1, period);
}

std::string task_line(const char* op, std::int64_t e, std::int64_t p, long long task) {
  std::string s = "{\"execution\":" + std::to_string(e) + ",\"op\":\"" + op +
                  "\",\"period\":" + std::to_string(p);
  if (task >= 0) s += ",\"task\":" + std::to_string(task);
  return s + "}";
}

}  // namespace

std::vector<std::string> churn_stream(std::uint64_t key) {
  Rng rng(key);
  std::vector<std::string> out;
  out.reserve(kChurnRequests);
  const double u_hi = std::clamp(0.25 * kChurnLoad, 0.05, 1.0);
  long long joins = 0;
  long long clock = 0;
  for (std::size_t i = 0; i < kChurnRequests; ++i) {
    const std::int64_t roll = rng.uniform_int(0, 15);
    if (roll <= 8 || joins == 0) {
      const std::int64_t p = rng.uniform_int(2, kChurnMaxPeriod);
      out.push_back(task_line("join", execution_for(p, rng.uniform(0.02, u_hi)), p, -1));
      ++joins;
    } else if (roll <= 10) {
      out.push_back("{\"op\":\"leave\",\"task\":" +
                    std::to_string(rng.uniform_int(0, joins - 1)) + "}");
    } else if (roll <= 12) {
      const long long task = rng.uniform_int(0, joins - 1);
      const std::int64_t p = rng.uniform_int(2, kChurnMaxPeriod);
      out.push_back(
          task_line("reweight", execution_for(p, rng.uniform(0.02, u_hi)), p, task));
    } else if (roll == 13) {
      out.emplace_back("{\"op\":\"query\"}");
    } else {
      clock += rng.uniform_int(1, 4);
      out.push_back("{\"op\":\"advance\",\"to\":" + std::to_string(clock) + "}");
    }
  }
  return out;
}

namespace {

std::vector<std::int64_t> exact_periods() {
  std::vector<std::int64_t> out;
  for (std::int64_t d = kExactHyperperiod / kExactMaxJobs; d <= kExactHyperperiod; ++d)
    if (kExactHyperperiod % d == 0) out.push_back(d);
  return out;
}

}  // namespace

std::vector<pfair::UniTask> exact_session(std::uint64_t key) {
  static const std::vector<std::int64_t> periods = exact_periods();
  Rng rng(key);
  std::vector<pfair::UniTask> out;
  out.reserve(kExactJoins);
  for (std::size_t i = 0; i < kExactJoins; ++i) {
    const std::int64_t p = periods[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(periods.size()) - 1))];
    out.push_back(pfair::UniTask{execution_for(p, rng.uniform(0.05, 0.6)), p});
  }
  return out;
}

std::string join_line(const pfair::UniTask& t) {
  return task_line("join", t.execution, t.period, -1);
}

std::vector<pfair::UniTask> sweep_taskset(std::size_t n, double u_cap, std::uint64_t key) {
  Rng rng(key);
  std::vector<double> u(n);
  double sum = 0.0;
  for (double& x : u) {
    x = rng.uniform(0.05, 1.0);
    sum += x;
  }
  std::vector<pfair::UniTask> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t p = rng.uniform_int(10, 64);
    out.push_back(pfair::UniTask{execution_for(p, u[i] * u_cap / sum), p});
  }
  return out;
}

std::uint64_t digest_tasks(const std::vector<pfair::UniTask>& tasks, std::uint64_t h) {
  for (const pfair::UniTask& t : tasks) {
    h = fnv1a_u64(static_cast<std::uint64_t>(t.execution), h);
    h = fnv1a_u64(static_cast<std::uint64_t>(t.period), h);
  }
  return fnv1a_u64(tasks.size(), h);
}

}  // namespace perfbench
