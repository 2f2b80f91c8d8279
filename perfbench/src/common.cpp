#include "common.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <thread>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // Equal neighbours (including two infinities) need no interpolation.
  if (frac == 0.0 || values[lo] == values[hi]) return values[lo];
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return 0.0;
}

namespace {
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}
}  // namespace

std::size_t online_cpus() {
  const std::size_t n = allowed_cpus().size();
  if (n > 0) return n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

const CpuSplit& cpu_split() {
  static const CpuSplit split = [] {
    CpuSplit s;
    s.library = allowed_cpus();
    if (s.library.size() > 1) {
      s.loadgen.push_back(s.library.back());
      s.library.pop_back();
    } else {
      s.loadgen = s.library;
    }
    return s;
  }();
  return split;
}

bool pin_current_thread(const std::vector<int>& cpus) {
  if (cpus.empty()) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

void Report::add(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  const auto it = index_.find(name);
  if (it != index_.end()) {
    entries_[it->second] = {name, value, unit, note};
    return;
  }
  index_[name] = entries_.size();
  entries_.push_back({name, value, unit, note});
}

void Report::print(const char* section) const {
  for (const Entry& e : entries_) {
    std::printf("%-14s %-40s %16.6g %-6s %s\n", section, e.name.c_str(),
                e.value, e.unit.c_str(), e.note.c_str());
  }
}

namespace {
thread_local std::vector<std::int64_t> t_open;  // innermost open span last

std::uint64_t thread_tag() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}
}  // namespace

Tracer::Tracer() : epoch_(Clock::now()) {}

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

std::int64_t Tracer::ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

std::int64_t Tracer::open(const char* name, const char* layer,
                          std::uint64_t request, Clock::time_point start) {
  const std::int64_t parent = t_open.empty() ? -1 : t_open.back();
  const std::int64_t t = ns(start);
  std::int64_t id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back({name, layer, t, t, parent, request, thread_tag()});
  }
  t_open.push_back(id);
  return id;
}

void Tracer::detach(std::int64_t id) {
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
}

void Tracer::close(std::int64_t id, Clock::time_point end) {
  detach(id);
  const std::int64_t t = ns(end);
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

namespace {
// Total length of the union of [start, end) intervals.
std::int64_t union_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0;
  std::int64_t cur_a = 0, cur_b = -1;
  for (const auto& [a, b] : iv) {
    if (a > cur_b) {
      if (cur_b > cur_a) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (cur_b > cur_a) covered += cur_b - cur_a;
  return covered;
}
}  // namespace

std::map<std::string, double> Tracer::self_seconds() const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<std::size_t>> children(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].parent >= 0) {
      children[static_cast<std::size_t>(all[i].parent)].push_back(i);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (const std::size_t c : children[i]) {
      const std::int64_t a = std::max(all[c].start_ns, s.start_ns);
      const std::int64_t b = std::min(all[c].end_ns, s.end_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    const std::int64_t covered = union_ns(std::move(iv));
    out[s.layer] += 1e-9 * static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return out;
}

double Tracer::covered_seconds() const {
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (const Span& s : spans()) iv.emplace_back(s.start_ns, s.end_ns);
  return 1e-9 * static_cast<double>(union_ns(std::move(iv)));
}

bool Tracer::write(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%lld,\"request\":%llu}}%s\n",
                  s.name, s.layer,
                  static_cast<unsigned long long>(s.thread % 100000),
                  1e-3 * static_cast<double>(s.start_ns),
                  1e-3 * static_cast<double>(s.end_ns - s.start_ns), i,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.request),
                  i + 1 < all.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
