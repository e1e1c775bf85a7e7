// Shared pieces of the end-to-end benchmark: options, operation accounting,
// metric sink, benchmark-side spans and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Host (steady-clock) seconds.
inline double host_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds of the whole process (every thread). Host costs are taken
/// in CPU time: it leaves out the time other tenants of a shared host hold
/// the cores, and with the fiber backend one thread does all the work, so
/// on an idle host it equals wall time.
double cpu_now();

/// Peak resident memory of the process so far, MiB.
double peak_rss_mb();

/// Serves every payload buffer from the heap and keeps freed memory (the
/// setting of every timed round). With glibc's default, whether a buffer
/// is mmapped (and page-faults anew on every call) depends on the sizes
/// freed before it, which made host time swing by up to 2x with the order
/// and sizes of earlier calls.
void heap_payloads();
/// Serves buffers of 128 KiB or more by mmap, so freeing one returns its
/// pages: resident memory then follows live memory, not heap layout.
void mmap_payloads();

/// Modeled latencies of equal runs on fresh machines agree only to about
/// 0.1%: the simulator keeps state per host address, so the addresses the
/// host allocator hands out move virtual time (see README.md). "Equal" is
/// therefore a relative difference within 1%.
inline bool same_model_time(double a, double b) {
  const double scale = a > b ? a : b;
  return (a > b ? a - b : b - a) <= 1e-2 * scale;
}

/// All digits of `v` (%.17g), for failure messages.
std::string fmt(double v);

double median(std::vector<double> v);
/// Nearest-rank percentile: the smallest value with at least a share `q`
/// of the samples at or below it.
double percentile(std::vector<double> v, double q);
/// The smallest sample: how host costs are taken. On a shared host,
/// neighbours slow whole stretches of rounds by up to half (sim_small_epyc2p
/// rounds swing between 19 and 38 ms in stretches of a second or more, and
/// its 10th percentile over a 15 s run moved by 40% between runs); the
/// fastest rounds show the program's own cost.
double fastest(const std::vector<double>& v);
double geomean(const std::vector<double>& v);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test hook: "bcast", "allreduce" or "svc" corrupts one output of
  /// that kind after its call, so the run must report exactly that
  /// operation as failed.
  std::string corrupt;
  /// Where the traced run writes its spans (empty: not written).
  std::string spans_out;
};

/// Benchmark-side spans around calls into the program's layers. Each span
/// records its name, host start/end, parent span and the id of the
/// operation it belongs to; all are kept in memory and written at the end.
/// Disabled spans cost one branch.
class Spans {
 public:
  struct Span {
    std::string name;
    double t0 = 0.0;
    double t1 = 0.0;
    int parent = -1;
    std::uint64_t op = 0;
  };

  explicit Spans(bool on) : on_(on) {}

  bool on() const noexcept { return on_; }

  /// Opens a span under the innermost open one; returns its id, or -1
  /// when spans are off.
  int open(const std::string& name, std::uint64_t op);
  void close(int id);

  /// Host seconds of every closed span called `name`.
  std::vector<double> durations(const std::string& name) const;
  void write_json(const std::string& path) const;

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span over one call into a layer.
class Scope {
 public:
  Scope(Spans& s, const std::string& name, std::uint64_t op = 0)
      : spans_(&s), id_(s.open(name, op)) {}
  ~Scope() { spans_->close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans* spans_;
  int id_;
};

/// Operation accounting and metrics of one workload run.
class Report {
 public:
  /// One operation that succeeded.
  void pass() { ++attempted_; }
  /// One operation that failed. `mismatch` marks a wrong output (as
  /// opposed to an exception or a shed request); either way the run goes
  /// on to the workload's end.
  void fail(const std::string& op, const std::string& why, bool mismatch);
  /// Runs `fn` as one operation; an exception it throws is a failure.
  /// Returns whether it passed.
  bool attempt(const std::string& op, const std::function<void()>& fn);

  void set(const std::string& metric, double value) {
    metrics_[metric] = value;
  }

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  bool correct() const noexcept { return correct_; }
  const std::map<std::string, double>& metrics() const noexcept {
    return metrics_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
  std::map<std::string, double> metrics_;
};

/// Workload entry points (one process runs one of them).
void run_sweep_workload(const Options& opt, Report& rep, Spans& spans);
void run_service_workload(const Options& opt, Report& rep, Spans& spans);

}  // namespace perfbench
