// Per-layer measurements of the traced run: timings of single calls into
// one layer, taken from outside through the layer's public functions, and
// the reductions of the program's own observers into metric values.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "obs/critpath.h"

namespace perfbench {

/// splitmix64 finalizer: the benchmark's own input generator.
inline std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Adds one sample each of the critical path's waiting time and the self
/// time of the ranks on it, per hierarchy level (0..2) and averaged over
/// the analyzed operations, as "core.crit_wait_us.l<k>" and
/// "core.crit_self_us.l<k>".
void add_critpath(const std::vector<xhc::obs::OpReport>& ops,
                  std::map<std::string, std::vector<double>>& samples);

/// Sets the median duration (ms) of the set-up spans: topo.build,
/// sim.machine_build, core.component_build, svc.admit, svc.schedule.
void set_span_medians(const Spans& spans, Report& rep);

/// SimMachine layer probes on a fresh machine of `preset`: empty run, flag
/// handoff, data path per KiB at `sizes`, allocation.
void sim_probes(const std::string& preset,
                const std::vector<std::size_t>& sizes, Report& rep);

/// Native probes: reduce kernel throughput, empty RealMachine run and a
/// two-rank flag ping-pong.
void mach_probes(int ranks, Report& rep);

}  // namespace perfbench
