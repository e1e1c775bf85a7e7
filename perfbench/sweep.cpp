// Collective sweep workloads: sim_large_armn1, sim_small_epyc2p (modeled
// latency on a SimMachine) and native_host (wall-clock latency on a
// RealMachine). The timed pass drives the figure benches' osu::*_sweep
// entry point with payload verification off; an untimed check pass then
// verifies outputs against the benchmark's own computations.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "coll/registry.h"
#include "common.h"
#include "mach/real_machine.h"
#include "obs/coh.h"
#include "obs/critpath.h"
#include "obs/observer.h"
#include "osu/harness.h"
#include "p2p/counters.h"
#include "probes.h"
#include "sim/sim_machine.h"
#include "topo/hierarchy.h"
#include "topo/presets.h"

namespace perfbench {
namespace {

using namespace xhc;

struct Plan {
  std::string preset;  ///< topology preset
  bool native = false;
  int ranks = 0;       ///< 0: one rank per core of the preset
  std::vector<std::size_t> sizes;
  osu::Config timed;   ///< harness settings of one timed call
};

/// A message size drawn from the seed just above `base`: up to base/64
/// more bytes in steps of four (whole f32 elements), so every size stays in
/// its size class and protocol path.
std::size_t seeded_size(std::size_t base, std::uint64_t seed) {
  const std::size_t steps = std::max<std::size_t>(base / 256, 1) + 1;
  return base + 4 * static_cast<std::size_t>(mix64(seed ^ base) % steps);
}

Plan plan_for(const Options& opt) {
  const std::string& workload = opt.workload;
  Plan p;
  p.timed.verify = false;
  if (workload == "sim_large_armn1") {
    // Above the 128 KiB large-message threshold (striped bcast, RS+AG
    // allreduce). Larger points only add payload bytes and memory: 160
    // ranks at 4 MiB need about 1.7 GB.
    p.preset = "armn1";
    p.sizes = {256u << 10, 512u << 10};
  } else if (workload == "sim_small_epyc2p") {
    // The figure axis up to 16 KiB: CICO and latency paths.
    p.preset = "epyc2p";
    for (std::size_t s = 4; s <= (16u << 10); s *= 4) p.sizes.push_back(s);
  } else {
    // Real threads: at most three ranks, so one core of a four-core host
    // stays free. mini8 gives the three ranks a two-level hierarchy.
    p.native = true;
    p.preset = "mini8";
    const long cores = static_cast<long>(std::thread::hardware_concurrency());
    p.ranks = static_cast<int>(std::clamp(cores - 1, 2L, 3L));
    p.sizes = {8, 1u << 10, 64u << 10, 1u << 20};
    p.timed.iters = 4;
  }
  if (!p.native) {
    // Modeled latency is exact for given inputs, so the seed moves the
    // sizes. Native sizes stay put: real copies of lengths off a cache-line
    // multiple run up to twice as slow, which would swamp the metric.
    for (std::size_t& b : p.sizes) b = seeded_size(b, opt.seed);
  }
  return p;
}

struct Point {
  bool allreduce = false;
  std::size_t bytes = 0;
  std::string label() const {
    return std::string(allreduce ? "allreduce." : "bcast.") +
           std::to_string(bytes);
  }
};

/// A built machine and xhc component: one set-up.
struct Stage {
  std::unique_ptr<mach::Machine> machine;
  std::unique_ptr<coll::Component> comp;
};

Stage build_stage(const Plan& plan, bool traced, Spans& spans) {
  Stage st;
  coll::Tuning tuning;
  tuning.trace = traced;
  int n = 0;
  topo::Topology topo = [&] {
    Scope s(spans, "topo.build");
    topo::Topology t = topo::by_name(plan.preset);
    n = plan.ranks > 0 ? plan.ranks : t.n_cores();
    if (spans.on()) {
      // Built only so the span times the topo layer; the component builds
      // its own, and untraced runs leave it out of setup_s.
      const topo::RankMap map(t, n, topo::MapPolicy::kCore);
      const topo::Hierarchy h(t, map,
                              topo::parse_sensitivity(tuning.sensitivity), 0);
      (void)h;
    }
    return t;
  }();
  {
    Scope s(spans, plan.native ? "mach.machine_build" : "sim.machine_build");
    if (plan.native) {
      st.machine = std::make_unique<mach::RealMachine>(std::move(topo), n);
    } else {
      st.machine = std::make_unique<sim::SimMachine>(std::move(topo), n);
    }
  }
  {
    Scope s(spans, "core.component_build");
    st.comp = coll::make_component("xhc", *st.machine, tuning);
  }
  {
    // One small call of each collective: lazy machine state (scheduler,
    // fiber stacks, first allocations) is built before anything is timed.
    Scope s(spans, "osu.warmup");
    osu::Config warm;
    warm.warmup = 0;
    warm.iters = 1;
    warm.verify = false;
    osu::bcast_sweep(*st.machine, *st.comp, {4096}, warm);
    osu::allreduce_sweep(*st.machine, *st.comp, {4096}, warm);
  }
  return st;
}

/// Adds one traced round's per-layer samples from the program's own
/// observers: coherence model, registration cache, traffic counter and the
/// critical paths of the recorded spans.
void collect_traced(const Stage& st, const obs::Observer& o,
                    const p2p::TrafficCounter& traffic, double calls,
                    std::map<std::string, std::vector<double>>& layers) {
  obs::CohReport coh;
  if (st.machine->coh_report(&coh)) {
    layers["sim.coh_hitm"].push_back(static_cast<double>(coh.totals.hitm) /
                                     calls);
    layers["sim.coh_spin_refetch"].push_back(
        static_cast<double>(coh.totals.spin_refetches) / calls);
    layers["sim.coh_invalidations"].push_back(
        static_cast<double>(coh.totals.invalidations) / calls);
  }
  if (const auto rc = st.comp->reg_cache_stats()) {
    layers["smsc.regcache_hits"].push_back(static_cast<double>(rc->hits));
    layers["smsc.regcache_misses"].push_back(static_cast<double>(rc->misses));
  }
  layers["p2p.transfers_per_op"].push_back(
      static_cast<double>(traffic.total()) / calls);
  add_critpath(obs::analyze_critical_paths(o.trace()), layers);
}

/// Deterministic payload byte of the check pass.
std::uint8_t payload_byte(std::uint64_t seed, std::size_t i) {
  return static_cast<std::uint8_t>(mix64(seed + i / 8) >> (8 * (i % 8)));
}

/// Allreduce operand of the check pass: an exact multiple of 1/256 in
/// [-1, 1). Sums of up to 2^15 such values are exact in f32 (16 bits of
/// mantissa suffice), so every summation order must give the reference sum.
float operand(std::uint64_t seed, int rank, std::size_t i) {
  const std::uint64_t z =
      mix64(seed ^ (static_cast<std::uint64_t>(rank) << 40) ^ i);
  return static_cast<float>(static_cast<int>(z & 511u) - 256) / 256.0f;
}

/// One checked operation: runs `call`, then `verify`, which returns what is
/// wrong with the output ("" when it is right). Counts exactly one outcome.
void checked(Report& rep, const std::string& op,
             const std::function<void()>& call,
             const std::function<std::string()>& verify) {
  try {
    call();
  } catch (const std::exception& e) {
    rep.fail(op, std::string("exception: ") + e.what(), false);
    return;
  }
  const std::string wrong = verify();
  if (wrong.empty()) {
    rep.pass();
  } else {
    rep.fail(op, wrong, true);
  }
}

/// Runs one bcast and one allreduce per size with payloads made from the
/// seed, and checks every rank's output against the benchmark's own
/// reference. One operation per (collective, size).
void check_payloads(const Plan& plan, const Options& opt, Stage& st,
                    Report& rep) {
  mach::Machine& m = *st.machine;
  const int n = m.n_ranks();
  const int root = static_cast<int>(opt.seed % static_cast<std::uint64_t>(n));
  bool corrupt_bcast = opt.corrupt == "bcast";
  bool corrupt_allreduce = opt.corrupt == "allreduce";
  for (const std::size_t bytes : plan.sizes) {
    const std::uint64_t seed = mix64(opt.seed * 0x100000001b3ull + bytes);
    std::vector<mach::Buffer> bufs;
    for (int r = 0; r < n; ++r) bufs.emplace_back(m, r, bytes);
    const auto run_bcast = [&] {
      m.run([&](mach::Ctx& ctx) {
        auto* b = static_cast<std::uint8_t*>(
            bufs[static_cast<std::size_t>(ctx.rank())].get());
        if (ctx.rank() == root) {
          for (std::size_t i = 0; i < bytes; ++i) b[i] = payload_byte(seed, i);
        }
        st.comp->bcast(ctx, b, bytes, root);
      });
    };
    const auto verify_bcast = [&]() -> std::string {
      if (corrupt_bcast) {
        bufs.back().bytes()[bytes / 2] ^= std::byte{0x5a};
        corrupt_bcast = false;
      }
      for (int r = 0; r < n; ++r) {
        const auto* b = reinterpret_cast<const std::uint8_t*>(
            bufs[static_cast<std::size_t>(r)].get());
        for (std::size_t i = 0; i < bytes; ++i) {
          if (b[i] != payload_byte(seed, i)) {
            return "rank " + std::to_string(r) + " byte " + std::to_string(i) +
                   " differs from the root's";
          }
        }
      }
      return "";
    };
    checked(rep, "check.bcast." + std::to_string(bytes), run_bcast,
            verify_bcast);

    const std::size_t count = std::max<std::size_t>(bytes / 4, 1);
    std::vector<mach::Buffer> sb;
    std::vector<mach::Buffer> rb;
    for (int r = 0; r < n; ++r) {
      sb.emplace_back(m, r, count * 4);
      rb.emplace_back(m, r, count * 4);
    }
    const auto run_allreduce = [&] {
      m.run([&](mach::Ctx& ctx) {
        const auto r = static_cast<std::size_t>(ctx.rank());
        auto* s = static_cast<float*>(sb[r].get());
        for (std::size_t i = 0; i < count; ++i) {
          s[i] = operand(seed, ctx.rank(), i);
        }
        st.comp->allreduce(ctx, s, rb[r].get(), count, mach::DType::kF32,
                           mach::ROp::kSum);
      });
    };
    const auto verify_allreduce = [&]() -> std::string {
      if (corrupt_allreduce) {
        static_cast<float*>(rb.front().get())[count - 1] += 1.0f;
        corrupt_allreduce = false;
      }
      std::vector<double> want(count, 0.0);
      for (int r = 0; r < n; ++r) {
        for (std::size_t i = 0; i < count; ++i) {
          want[i] += static_cast<double>(operand(seed, r, i));
        }
      }
      for (int r = 0; r < n; ++r) {
        const auto* got =
            static_cast<const float*>(rb[static_cast<std::size_t>(r)].get());
        for (std::size_t i = 0; i < count; ++i) {
          if (static_cast<double>(got[i]) != want[i]) {
            return "rank " + std::to_string(r) + " element " +
                   std::to_string(i) + " is " + fmt(got[i]) + ", want " +
                   fmt(want[i]);
          }
        }
      }
      return "";
    };
    checked(rep, "check.allreduce." + std::to_string(count * 4),
            run_allreduce, verify_allreduce);
  }
}

}  // namespace

void run_sweep_workload(const Options& opt, Report& rep, Spans& spans) {
  const Plan plan = plan_for(opt);
  std::vector<Point> points;
  for (const bool ar : {false, true}) {
    for (const std::size_t b : plan.sizes) points.push_back({ar, b});
  }
  const std::size_t np = points.size();
  std::printf("inputs: %s ranks %d root %d warmup %d iters %d sizes",
              plan.preset.c_str(),
              plan.ranks > 0 ? plan.ranks : topo::by_name(plan.preset).n_cores(),
              plan.timed.root, plan.timed.warmup, plan.timed.iters);
  for (const std::size_t b : plan.sizes) std::printf(" %zu", b);
  std::printf("\n");
  const double calls_per_round = static_cast<double>(
      np * static_cast<std::size_t>(plan.timed.warmup + plan.timed.iters));

  std::vector<double> setup;
  // host[p] and lat[p]: one entry per sampled round.
  std::vector<std::vector<double>> host(np);
  std::vector<std::vector<double>> lat(np);
  std::vector<double> first_lat(np);  // modeled latency of round 0
  std::vector<double> round_host[2];   // [traced] -> per-round host totals
  std::map<std::string, std::vector<double>> layers;

  Stage native_stage;
  if (plan.native) {
    // The RealMachine is reused across rounds; set-up is sampled 15 times.
    // Traced runs build it with tracing on; untraced rounds of such a run
    // attach no observer.
    for (int i = 0; i < 15; ++i) {
      // The component frees into its machine: drop it first.
      native_stage.comp.reset();
      native_stage.machine.reset();
      const double t0 = cpu_now();
      native_stage = build_stage(plan, opt.trace, spans);
      setup.push_back(cpu_now() - t0);
    }
  }

  const double t_start = host_now();
  std::uint64_t op_id = 0;
  for (int round = 0;; ++round) {
    const bool traced = opt.trace && round % 2 == 1;
    // Round 0 takes peak_rss_mb with payload buffers mmapped, so every free
    // returns its pages and the peak is the live peak. Served from the heap,
    // freed buffers stay pinned behind the simulator's per-address state,
    // and any earlier allocation moved the armn1 peak between 210 and
    // 323 MB. Its host times (page faults on every call) are not sampled.
    const bool sampled = round > 0 && !traced;
    if (round == 0) mmap_payloads();
    Stage fresh;
    if (!plan.native) {
      // A fresh machine per round: the virtual clock, caches and
      // registration state start equal, so every round's modeled latencies
      // must repeat.
      const double t0 = cpu_now();
      fresh = build_stage(plan, traced, spans);
      if (sampled) setup.push_back(cpu_now() - t0);
    }
    Stage& st = plan.native ? native_stage : fresh;
    std::unique_ptr<obs::Observer> observer;
    p2p::TrafficCounter traffic(&st.machine->topology(), &st.machine->map());
    osu::Config cfg = plan.timed;
    if (traced) {
      observer = std::make_unique<obs::Observer>(st.machine->n_ranks(),
                                                 std::size_t{1} << 12);
      cfg.observer = observer.get();
      st.machine->set_coh_tracking(true);
      st.comp->set_traffic_counter(&traffic);
    }

    Scope round_span(spans, traced ? "round.traced" : "round");
    double total = 0.0;
    for (std::size_t p = 0; p < np; ++p) {
      const Point& pt = points[p];
      double us = 0.0;
      double secs = 0.0;
      const bool ok = rep.attempt("timed." + pt.label(), [&] {
        Scope s(spans,
                pt.allreduce ? "osu.allreduce_sweep" : "osu.bcast_sweep",
                ++op_id);
        const double t0 = cpu_now();
        const auto res =
            pt.allreduce
                ? osu::allreduce_sweep(*st.machine, *st.comp, {pt.bytes}, cfg)
                : osu::bcast_sweep(*st.machine, *st.comp, {pt.bytes}, cfg);
        secs = cpu_now() - t0;
        us = res.at(0).avg_us;
      });
      total += secs;
      if (!ok) continue;
      if (sampled) {
        host[p].push_back(secs);
        lat[p].push_back(us);
      }
      if (plan.native) continue;
      if (round == 0) {
        first_lat[p] = us;
      } else if (!same_model_time(us, first_lat[p])) {
        rep.fail("repeat." + pt.label(),
                 "modeled latency " + fmt(us) +
                     " us differs from the first round's " +
                     fmt(first_lat[p]) + " us",
                 true);
      }
    }
    if (round > 0) round_host[traced ? 1 : 0].push_back(total);
    if (round == 0) {
      // Later rounds only reuse freed memory, and how much of it the
      // allocator keeps depends on how many rounds fit in the run.
      rep.set("peak_rss_mb", peak_rss_mb());
      heap_payloads();
    }
    if (traced) {
      collect_traced(st, *observer, traffic, calls_per_round, layers);
      st.comp->set_traffic_counter(nullptr);
      st.comp->set_observer(nullptr);
    }
    const int min_rounds = plan.native ? 3 : 5;
    if (round + 1 >= min_rounds && host_now() - t_start >= opt.seconds &&
        (!opt.trace || round % 2 == 1)) {
      break;
    }
  }

  // --- check pass (untimed) ------------------------------------------------
  if (!plan.native) {
    // Virtual time must not depend on payload bytes: the harness's own
    // verification on a fresh machine must give the same latencies. On the
    // two-socket presets every call must also take at least the time its
    // bytes need to cross the socket link once.
    Stage st = build_stage(plan, false, spans);
    osu::Config cfg = plan.timed;
    cfg.verify = true;
    const mach::Machine& m = *st.machine;
    const double xbw =
        static_cast<const sim::SimMachine&>(m).params().xsocket_bw;
    const bool two_socket = m.topology().n_sockets() >= 2;
    for (std::size_t p = 0; p < np; ++p) {
      const Point& pt = points[p];
      const std::string op = "verify." + pt.label();
      double us = 0.0;
      try {
        const auto res =
            pt.allreduce
                ? osu::allreduce_sweep(*st.machine, *st.comp, {pt.bytes}, cfg)
                : osu::bcast_sweep(*st.machine, *st.comp, {pt.bytes}, cfg);
        us = res.at(0).avg_us;
      } catch (const std::exception& e) {
        rep.fail(op, std::string("exception: ") + e.what(), false);
        continue;
      }
      const double off = median(lat[p]);
      if (!same_model_time(us, off)) {
        rep.fail(op,
                 "latency with verification on is " + fmt(us) + " us, off " +
                     fmt(off) + " us",
                 true);
      } else if (two_socket && us * 1e-6 < static_cast<double>(pt.bytes) / xbw) {
        rep.fail(op,
                 std::to_string(us) +
                     " us is below bytes / xsocket_bw = " +
                     std::to_string(static_cast<double>(pt.bytes) / xbw * 1e6) +
                     " us",
                 true);
      } else {
        rep.pass();
      }
    }
    check_payloads(plan, opt, st, rep);
  } else {
    check_payloads(plan, opt, native_stage, rep);
  }

  // --- metrics -------------------------------------------------------------
  std::vector<double> bcast_lat;
  std::vector<double> allreduce_lat;
  double host_s = 0.0;
  for (std::size_t p = 0; p < np; ++p) {
    host_s += fastest(host[p]);
    // Modeled latencies repeat, so their median is the round's value; wall
    // latencies take the fast rounds, like host costs.
    const double l = plan.native ? percentile(lat[p], 0.1) : median(lat[p]);
    (points[p].allreduce ? allreduce_lat : bcast_lat).push_back(l);
  }
  rep.set("setup_s", fastest(setup));
  rep.set("host_s", host_s);
  rep.set("bcast_us", geomean(bcast_lat));
  rep.set("allreduce_us", geomean(allreduce_lat));
  if (!opt.trace) return;

  set_span_medians(spans, rep);
  double bh = 0.0;
  double ah = 0.0;
  for (std::size_t p = 0; p < np; ++p) {
    (points[p].allreduce ? ah : bh) += fastest(host[p]) * 1e3;
  }
  rep.set("osu.bcast_host_ms", bh / static_cast<double>(plan.sizes.size()));
  rep.set("osu.allreduce_host_ms",
          ah / static_cast<double>(plan.sizes.size()));
  for (const auto& [k, v] : layers) rep.set(k, median(v));
  rep.set("obs.trace_overhead_s",
          fastest(round_host[1]) - fastest(round_host[0]));
  if (plan.native) {
    mach_probes(plan.ranks, rep);
  } else {
    sim_probes(plan.preset, plan.sizes, rep);
  }
}

}  // namespace perfbench
