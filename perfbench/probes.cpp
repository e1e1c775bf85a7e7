#include "probes.h"

#include <algorithm>
#include <iterator>
#include <new>
#include <vector>

#include "mach/reduce_kernels.h"
#include "mach/real_machine.h"
#include "sim/sim_machine.h"
#include "topo/presets.h"

namespace perfbench {

using namespace xhc;

void add_critpath(const std::vector<obs::OpReport>& ops,
                  std::map<std::string, std::vector<double>>& samples) {
  if (ops.empty()) return;
  double wait[3] = {0, 0, 0};
  double self[3] = {0, 0, 0};
  for (const obs::OpReport& op : ops) {
    // chain[0] is the last rank's final wait; each later step is the wait
    // of the rank the one before it waited on. Between the end of its own
    // wait and the end of the wait it released, a rank on the chain works:
    // that is its self time on the critical path, booked at the level
    // where the rank it released was waiting.
    for (std::size_t i = 0; i < op.chain.size(); ++i) {
      const obs::ChainStep& step = op.chain[i];
      if (step.level < 0 || step.level > 2) continue;
      const auto l = static_cast<std::size_t>(step.level);
      const double released_from = std::max(
          op.t_start, i + 1 < op.chain.size() ? op.chain[i + 1].t_end : 0.0);
      wait[l] += step.wait_s;
      self[l] += std::max(0.0, step.t_end - released_from);
    }
  }
  const double n = static_cast<double>(ops.size());
  for (int l = 0; l < 3; ++l) {
    const std::string k = ".l" + std::to_string(l);
    samples["core.crit_wait_us" + k].push_back(wait[l] / n * 1e6);
    samples["core.crit_self_us" + k].push_back(self[l] / n * 1e6);
  }
}

void set_span_medians(const Spans& spans, Report& rep) {
  for (const char* name : {"topo.build", "sim.machine_build",
                           "core.component_build", "svc.admit",
                           "svc.schedule"}) {
    const std::vector<double> d = spans.durations(name);
    if (!d.empty()) rep.set(std::string(name) + "_ms", median(d) * 1e3);
  }
}

namespace {

/// Two flags on their own cache lines, owned by `a` and `b`.
struct FlagPair {
  FlagPair(mach::Machine& m, int a, int b)
      : m_(&m),
        fa(new (m.alloc(a, 64)) mach::Flag),
        fb(new (m.alloc(b, 64)) mach::Flag) {}
  ~FlagPair() {
    m_->free(fa);
    m_->free(fb);
  }
  FlagPair(const FlagPair&) = delete;
  FlagPair& operator=(const FlagPair&) = delete;

  mach::Machine* m_;
  mach::Flag* fa;
  mach::Flag* fb;
};

/// Host seconds per flag_store -> flag_wait_ge round trip between ranks 0
/// and 1, timed inside rank 0; median of five runs.
double handoff_s(mach::Machine& m) {
  constexpr std::uint64_t kTrips = 2000;
  FlagPair f(m, 0, 1);
  std::vector<double> per;
  for (std::uint64_t rep = 0; rep < 5; ++rep) {
    double secs = 0.0;
    m.run([&](mach::Ctx& ctx) {
      const std::uint64_t base = rep * kTrips;
      if (ctx.rank() == 0) {
        const double t0 = host_now();
        for (std::uint64_t i = 1; i <= kTrips; ++i) {
          ctx.flag_store(*f.fa, base + i);
          ctx.flag_wait_ge(*f.fb, base + i);
        }
        secs = host_now() - t0;
      } else if (ctx.rank() == 1) {
        for (std::uint64_t i = 1; i <= kTrips; ++i) {
          ctx.flag_wait_ge(*f.fa, base + i);
          ctx.flag_store(*f.fb, base + i);
        }
      }
    });
    per.push_back(secs / static_cast<double>(kTrips));
  }
  return median(per);
}

double empty_run_s(mach::Machine& m) {
  std::vector<double> t;
  for (int i = 0; i < 21; ++i) {
    const double t0 = host_now();
    m.run([](mach::Ctx&) {});
    t.push_back(host_now() - t0);
  }
  return median(t);
}

}  // namespace

void sim_probes(const std::string& preset,
                const std::vector<std::size_t>& sizes, Report& rep) {
  topo::Topology topo = topo::by_name(preset);
  const int n = topo.n_cores();
  sim::SimMachine m(std::move(topo), n);
  rep.set("sim.run_empty_us", empty_run_s(m) * 1e6);
  rep.set("sim.handoff_ns", handoff_s(m) * 1e9);

  // Data path at the workload's sizes: rank 0 moves bytes out of a buffer
  // owned by the last rank (the other socket on two-socket presets).
  const std::size_t max_bytes = *std::max_element(sizes.begin(), sizes.end());
  mach::Buffer src(m, n - 1, max_bytes);
  mach::Buffer dst(m, 0, max_bytes);
  std::vector<double> copy_ns;
  std::vector<double> reduce_ns;
  std::vector<double> write_ns;
  for (const std::size_t bytes : sizes) {
    const std::size_t calls =
        std::clamp<std::size_t>((16u << 20) / bytes, 8, 2048);
    const double kib = static_cast<double>(calls * bytes) / 1024.0;
    const std::size_t count = std::max<std::size_t>(bytes / 4, 1);
    double tc = 0.0;
    double tr = 0.0;
    double tw = 0.0;
    m.run([&](mach::Ctx& ctx) {
      if (ctx.rank() != 0) return;
      double t0 = host_now();
      for (std::size_t i = 0; i < calls; ++i) {
        ctx.copy(dst.get(), src.get(), bytes);
      }
      tc = host_now() - t0;
      t0 = host_now();
      for (std::size_t i = 0; i < calls; ++i) {
        ctx.reduce(dst.get(), src.get(), count, mach::DType::kF32,
                   mach::ROp::kSum);
      }
      tr = host_now() - t0;
      t0 = host_now();
      for (std::size_t i = 0; i < calls; ++i) {
        ctx.write_payload(dst.get(), bytes, i);
      }
      tw = host_now() - t0;
    });
    copy_ns.push_back(tc * 1e9 / kib);
    reduce_ns.push_back(tr * 1e9 / kib);
    write_ns.push_back(tw * 1e9 / kib);
  }
  rep.set("sim.copy_ns_per_kib", geomean(copy_ns));
  rep.set("sim.reduce_ns_per_kib", geomean(reduce_ns));
  rep.set("sim.write_payload_ns_per_kib", geomean(write_ns));

  std::vector<double> t;
  for (int i = 0; i < 51; ++i) {
    const double t0 = host_now();
    m.free(m.alloc(n - 1, max_bytes));
    t.push_back(host_now() - t0);
  }
  rep.set("sim.alloc_free_us", median(t) * 1e6);
}

void mach_probes(int ranks, Report& rep) {
  double gbps = 0.0;
  const std::size_t sizes[] = {64u << 10, 1u << 20};
  for (const std::size_t bytes : sizes) {
    const std::size_t count = bytes / 4;
    std::vector<float> dst(count, 1.0f);
    std::vector<float> src(count, 0.5f);
    std::vector<double> rates;
    for (int rep_i = 0; rep_i < 5; ++rep_i) {
      std::size_t reps = 0;
      const double t0 = host_now();
      double t1 = t0;
      while (t1 - t0 < 0.01) {
        mach::reduce_apply(dst.data(), src.data(), count, mach::DType::kF32,
                           mach::ROp::kSum);
        ++reps;
        t1 = host_now();
      }
      rates.push_back(static_cast<double>(reps * bytes) / (t1 - t0) / 1e9);
    }
    gbps += median(rates) / static_cast<double>(std::size(sizes));
  }
  rep.set("mach.reduce_gbps", gbps);

  mach::RealMachine m(topo::by_name("mini8"), ranks);
  rep.set("mach.real_run_empty_us", empty_run_s(m) * 1e6);
  mach::RealMachine pair(topo::by_name("mini8"), 2);
  rep.set("mach.real_handoff_us", handoff_s(pair) * 1e6);
}

}  // namespace perfbench
