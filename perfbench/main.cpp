// End-to-end benchmark of the XHC reproduction: modeled collective latency,
// the host cost of producing it, and the native RealMachine leg.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--corrupt bcast|allreduce|svc] [--spans-out <file>]
//
// Prints a host fingerprint, one line per failed operation, and as its last
// line one JSON object {correct, attempted, failed, metrics}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 the per-layer ones.
// Exits 1 when any operation failed, 2 on bad arguments or a build that
// must not be timed. See README.md for the workloads and metrics.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  bool end_to_end;
};

// Keep in step with BENCHMARK.json.
constexpr MetricDef kMetrics[] = {
    {"setup_s", "s", true},
    {"host_s", "s", true},
    {"peak_rss_mb", "MB", true},
    {"bcast_us", "us", true},
    {"allreduce_us", "us", true},
    {"topo.build_ms", "ms", false},
    {"sim.machine_build_ms", "ms", false},
    {"core.component_build_ms", "ms", false},
    {"svc.admit_ms", "ms", false},
    {"svc.schedule_ms", "ms", false},
    {"sim.run_empty_us", "us", false},
    {"sim.handoff_ns", "ns", false},
    {"sim.copy_ns_per_kib", "ns/KiB", false},
    {"sim.reduce_ns_per_kib", "ns/KiB", false},
    {"sim.write_payload_ns_per_kib", "ns/KiB", false},
    {"sim.alloc_free_us", "us", false},
    {"osu.bcast_host_ms", "ms", false},
    {"osu.allreduce_host_ms", "ms", false},
    {"core.crit_wait_us.l0", "us", false},
    {"core.crit_wait_us.l1", "us", false},
    {"core.crit_wait_us.l2", "us", false},
    {"core.crit_self_us.l0", "us", false},
    {"core.crit_self_us.l1", "us", false},
    {"core.crit_self_us.l2", "us", false},
    {"sim.coh_hitm", "count/op", false},
    {"sim.coh_spin_refetch", "count/op", false},
    {"sim.coh_invalidations", "count/op", false},
    {"smsc.regcache_hits", "count", false},
    {"smsc.regcache_misses", "count", false},
    {"p2p.transfers_per_op", "count/op", false},
    {"svc.p50_us", "us", false},
    {"svc.p99_us", "us", false},
    {"svc.peak_rps", "1/s", false},
    {"svc.queued_us.p50", "us", false},
    {"svc.exec_us.p50", "us", false},
    {"svc.backoff_stalls", "count", false},
    {"svc.degradations", "count", false},
    {"mach.reduce_gbps", "GB/s", false},
    {"mach.real_run_empty_us", "us", false},
    {"mach.real_handoff_us", "us", false},
    {"obs.trace_overhead_s", "s", false},
};

constexpr const char* kWorkloads[] = {"sim_large_armn1", "sim_small_epyc2p",
                                      "svc_epyc1p", "native_host"};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--corrupt bcast|allreduce|svc] "
               "[--spans-out <file>]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        o.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        o.seed = std::stoull(val);
      } else if (key == "--seconds") {
        o.seconds = std::stod(val);
      } else if (key == "--trace") {
        if (val != "0" && val != "1") usage("--trace must be 0 or 1");
        o.trace = val == "1";
      } else if (key == "--corrupt") {
        if (val != "bcast" && val != "allreduce" && val != "svc") {
          usage("--corrupt must be bcast, allreduce or svc");
        }
        o.corrupt = val;
      } else if (key == "--spans-out") {
        o.spans_out = val;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0.0 && o.seconds <= 600.0)) {
    usage("--seconds must be in (0, 600]");
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || o.workload == w;
  if (!known) usage("unknown workload " + o.workload);
  if (!o.corrupt.empty() && (o.corrupt == "svc") != (o.workload == "svc_epyc1p")) {
    usage("--corrupt " + o.corrupt + " does not apply to " + o.workload);
  }
  return o;
}

std::string read_first(const char* path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

bool verify_build() {
#ifdef XHC_VERIFY_ENABLED
  return true;
#else
  return false;
#endif
}

std::string sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return "";
#endif
}

bool optimized() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// Prints the host fingerprint; returns false for a build whose hooks or
/// instrumentation change the hot path (it must not be timed).
bool fingerprint() {
  const char* backend = std::getenv("XHC_SIM_BACKEND");
  std::string llc = read_first("/sys/devices/system/cpu/cpu0/cache/index3/size");
  if (llc.empty()) llc = "unknown";
  const std::string san = sanitizer();
  std::printf(
      "host: {\"cpu\": \"%s\", \"nproc\": %ld, \"llc\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"optimized\": %s, "
      "\"XHC_SIM_BACKEND\": \"%s\", \"XHC_VERIFY\": %s, \"sanitizer\": "
      "\"%s\"}\n",
      json_escape(cpu_model()).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      json_escape(llc).c_str(), json_escape(compiler()).c_str(),
      PERFBENCH_BUILD_TYPE, optimized() ? "true" : "false",
      backend != nullptr ? json_escape(backend).c_str() : "",
      verify_build() ? "true" : "false", san.empty() ? "off" : san.c_str());
  return !verify_build() && san.empty() && optimized();
}

void print_result(const Options& opt, const Report& rep) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (rep.correct() ? "true" : "false")
     << ", \"attempted\": " << rep.attempted()
     << ", \"failed\": " << rep.failed() << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& m : kMetrics) {
    if (m.end_to_end == opt.trace) continue;
    const auto it = rep.metrics().find(m.name);
    // A per-layer metric the workload never calls into reads zero.
    const double v = it != rep.metrics().end() ? it->second : 0.0;
    if (!std::isfinite(v)) {
      throw std::runtime_error(std::string("metric ") + m.name +
                               " is not finite");
    }
    if (m.end_to_end && it == rep.metrics().end()) {
      throw std::runtime_error(std::string("metric ") + m.name +
                               " was not measured");
    }
    os << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << v
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int run(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  heap_payloads();
  if (!fingerprint()) {
    std::fprintf(stderr,
                 "perfbench: refusing to time a checked (XHC_VERIFY), "
                 "sanitized or unoptimized build\n");
    return 2;
  }
  std::printf("workload: %s seed %llu seconds %g trace %d\n",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  std::fflush(stdout);

  Report rep;
  Spans spans(opt.trace);
  if (opt.workload == "svc_epyc1p") {
    run_service_workload(opt, rep, spans);
  } else {
    run_sweep_workload(opt, rep, spans);
  }
  if (opt.trace && !opt.spans_out.empty()) spans.write_json(opt.spans_out);
  std::printf("operations: attempted %llu failed %llu\n",
              static_cast<unsigned long long>(rep.attempted()),
              static_cast<unsigned long long>(rep.failed()));
  std::fflush(stdout);
  print_result(opt, rep);
  return rep.failed() == 0 ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
  }
  return 1;
}
