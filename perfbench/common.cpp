#include "common.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <exception>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void heap_payloads() {
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
}

void mmap_payloads() { mallopt(M_MMAP_THRESHOLD, 128 << 10); }

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(v.size()))));
  return v[std::min(rank, v.size()) - 1];
}

double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

int Spans::open(const std::string& name, std::uint64_t op) {
  if (!on_) return -1;
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.op = op;
  s.t0 = host_now();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Spans::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].t1 = host_now();
  // Spans nest strictly (RAII scopes), so the closing one is innermost.
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::vector<double> Spans::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.t1 > 0.0) out.push_back(s.t1 - s.t0);
  }
  return out;
}

void Spans::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out.precision(17);
  const double base = spans_.empty() ? 0.0 : spans_.front().t0;
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_s\": " << s.t0 - base << ", \"end_s\": " << s.t1 - base
        << ", \"parent\": " << s.parent << ", \"op\": " << s.op << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

void Report::fail(const std::string& op, const std::string& why,
                  bool mismatch) {
  ++attempted_;
  ++failed_;
  if (mismatch) correct_ = false;
  std::printf("failed: %s: %s\n", op.c_str(), why.c_str());
  std::fflush(stdout);
}

bool Report::attempt(const std::string& op, const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    fail(op, std::string("exception: ") + e.what(), false);
    return false;
  }
  pass();
  return true;
}

}  // namespace perfbench
