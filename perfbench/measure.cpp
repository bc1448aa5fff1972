#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>

namespace perfbench {

std::int64_t thread_cpu_ns() noexcept {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<std::int64_t>(t.tv_sec) * 1000000000 + t.tv_nsec;
}

const char* layer_name(Layer l) noexcept {
  switch (l) {
    case Layer::kRequest: return "request";
    case Layer::kParse: return "request.parse";
    case Layer::kDecideTier0: return "admission.decide.tier0";
    case Layer::kDecideTier1: return "admission.decide.tier1";
    case Layer::kDecideTier2: return "admission.decide.tier2";
    case Layer::kBookkeeping: return "admission.bookkeeping";
    case Layer::kDynamics: return "sim.dynamics";
    case Layer::kSimRunUntil: return "sim.run_until";
    case Layer::kTrial: return "trial";
    case Layer::kFactory: return "engine.factory";
    case Layer::kPfairAdmit: return "pfair.admit";
    case Layer::kPartitionAdmit: return "partition.admit";
    case Layer::kPfairRunUntil: return "pfair.run_until";
    case Layer::kUniprocRunUntil: return "uniproc.run_until";
    case Layer::kCount: break;
  }
  return "?";
}

std::int32_t Tracer::begin(Layer name, std::uint64_t id) {
  const auto idx = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{name, open_.empty() ? -1 : open_.back(), id, now_ns(), 0});
  open_.push_back(idx);
  return idx;
}

void Tracer::end(std::int32_t span) noexcept {
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

void Tracer::rename(std::int32_t span, Layer name) noexcept {
  spans_[static_cast<std::size_t>(span)].name = name;
}

void Tracer::clear() noexcept {
  spans_.clear();
  open_.clear();
}

void add_self_times(const std::vector<Span>& spans, std::vector<double>& self_s) {
  std::vector<std::int64_t> children(spans.size(), 0);
  for (const Span& s : spans)
    if (s.parent >= 0) children[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  if (self_s.size() < kLayers) self_s.resize(kLayers, 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t self = spans[i].end_ns - spans[i].start_ns - children[i];
    self_s[static_cast<std::size_t>(spans[i].name)] += static_cast<double>(self) * 1e-9;
  }
}

void write_spans(const std::vector<Span>& spans, std::string& out) {
  char buf[256];
  for (const Span& s : spans) {
    const int n = std::snprintf(buf, sizeof buf,
                                "{\"end_ns\":%lld,\"id\":%llu,\"name\":\"%s\",\"parent\":%d,"
                                "\"start_ns\":%lld}\n",
                                static_cast<long long>(s.end_ns),
                                static_cast<unsigned long long>(s.id), layer_name(s.name),
                                s.parent, static_cast<long long>(s.start_ns));
    if (n > 0) out.append(buf, static_cast<std::size_t>(n));
  }
}

namespace {

/// Raw value of "key" in a flat JSON object line (quotes stripped for
/// strings); empty when absent.
std::string_view field(std::string_view line, std::string_view key) {
  std::string pat;
  pat.reserve(key.size() + 3);
  pat += '"';
  pat += key;
  pat += "\":";
  const std::size_t at = line.find(pat);
  if (at == std::string_view::npos) return {};
  std::size_t i = at + pat.size();
  if (i < line.size() && line[i] == '"') {
    const std::size_t close = line.find('"', i + 1);
    if (close == std::string_view::npos) return {};
    return line.substr(i + 1, close - i - 1);
  }
  std::size_t j = i;
  while (j < line.size() && line[j] != ',' && line[j] != '}') ++j;
  return line.substr(i, j - i);
}

}  // namespace

Reply parse_reply(std::string_view line) {
  Reply r;
  r.error = field(line, "error");
  r.reason = field(line, "reason");
  r.total = field(line, "total");
  r.admit = field(line, "admit") == "true";
  const std::string_view tier = field(line, "tier");
  if (!tier.empty()) {
    r.decision = true;
    std::from_chars(tier.data(), tier.data() + tier.size(), r.tier);
  }
  return r;
}

bool weight_in_range(std::string_view total, long long m) noexcept {
  long long num = 0;
  long long den = 1;
  const char* end = total.data() + total.size();
  const auto [p, ec] = std::from_chars(total.data(), end, num);
  if (ec != std::errc() || total.empty()) return false;
  if (p != end) {
    if (*p != '/') return false;
    const auto [q, ec2] = std::from_chars(p + 1, end, den);
    if (ec2 != std::errc() || q != end || den <= 0) return false;
  }
  if (num < 0) return false;
  // num/den <= m without forming m * den (which could overflow).
  return num / den < m || (num / den == m && num % den == 0);
}

const char* reply_failure(const Reply& r, long long m) noexcept {
  if (!r.error.empty()) return "error reply";
  if (r.reason == "sim-reject") return "sim-reject";
  if (!r.total.empty() && !weight_in_range(r.total, m)) return "committed total outside [0, m]";
  return nullptr;
}

double peak_rss_mb() {
  // VmHWM belongs to this program's address space.  getrusage's
  // ru_maxrss also folds in the RSS of the process that forked us
  // before exec, such as a Python launcher.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

void Report::tally(std::vector<Tally>& list, const char* what, const std::string& first) {
  for (Tally& t : list)
    if (t.what == what) {
      ++t.count;
      return;
    }
  list.push_back(Tally{what, 1, first});
}

void Report::merge(std::vector<Tally>& into, const std::vector<Tally>& from) {
  for (const Tally& t : from) {
    const auto same = [&](const Tally& x) { return x.what == t.what; };
    const auto it = std::find_if(into.begin(), into.end(), same);
    if (it == into.end())
      into.push_back(t);
    else
      it->count += t.count;
  }
}

void Report::add_ops(const Report& o) {
  attempted += o.attempted;
  failed += o.failed;
  defects += o.defects;
  merge(failures, o.failures);
  merge(defect_kinds, o.defect_kinds);
}

std::string result_json(const Report& r) {
  std::string s = "{\"correct\": ";
  s += r.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.attempted);
  s += ", \"failed\": " + std::to_string(r.failed);
  s += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : r.metrics) {
    char num[64];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    const auto res = std::to_chars(num, num + sizeof num, v);
    if (!first) s += ", ";
    first = false;
    s += "\"" + m.name + "\": {\"value\": " + std::string(num, res.ptr) + ", \"unit\": \"" +
         m.unit + "\"}";
  }
  s += "}}";
  return s;
}

}  // namespace perfbench
