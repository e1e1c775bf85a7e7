// svc_epyc1p: the multi-tenant service on a SimMachine epyc1p. Each round
// serves one seeded open-loop schedule twice on fresh machines: once at a
// nominal rate below capacity, then with the whole schedule arriving at
// once under an unbounded queue and deadline. Latencies are exact, from the
// per-request records of svc::Telemetry (windows off, so virtual time is
// the same as without it).
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "coll/tuning.h"
#include "common.h"
#include "obs/coh.h"
#include "obs/critpath.h"
#include "p2p/counters.h"
#include "probes.h"
#include "sim/sim_machine.h"
#include "svc/loadgen.h"
#include "svc/registry.h"
#include "svc/telemetry.h"
#include "topo/hierarchy.h"
#include "topo/presets.h"

namespace perfbench {
namespace {

using namespace xhc;

constexpr const char* kPreset = "epyc1p";
constexpr double kNominalRate = 2e4;  // requests per modeled second
// Seed of the request mix (ops, sizes, roots): fixed, so every run serves
// the same work and host time does not move with --seed.
constexpr std::uint64_t kMixSeed = 1;

svc::LoadgenConfig load_config() {
  svc::LoadgenConfig cfg;
  cfg.n_comms = 8;
  cfg.requests = 1500;
  cfg.arrival_rate = kNominalRate;
  cfg.seed = kMixSeed;
  cfg.integrity = true;
  cfg.min_bytes = 8;
  cfg.max_bytes = 64u << 10;
  return cfg;
}

/// Redraws the arrival process from `seed`: each communicator's requests
/// keep their stream order and get exponential inter-arrivals at
/// rate / n_comms; the global order and ids are then rebuilt the way
/// svc::make_schedule builds them.
void draw_arrivals(std::vector<svc::Request>& schedule, int n_comms,
                   double rate, std::uint64_t seed) {
  const auto nc = static_cast<std::size_t>(n_comms);
  std::vector<double> t(nc, 0.0);
  std::vector<std::uint64_t> state(nc);
  for (std::size_t c = 0; c < nc; ++c) state[c] = mix64(seed * 0x10001 + c);
  const double per_comm = rate / static_cast<double>(n_comms);
  // The schedule is in arrival order, so each communicator's requests come
  // in stream-index order.
  for (svc::Request& r : schedule) {
    const auto c = static_cast<std::size_t>(r.comm);
    state[c] = mix64(state[c]);
    const double u = static_cast<double>(state[c] >> 11) * 0x1.0p-53;
    t[c] += -std::log(1.0 - u) / per_comm;
    r.arrival = t[c];
  }
  std::sort(schedule.begin(), schedule.end(),
            [](const svc::Request& a, const svc::Request& b) {
              if (a.arrival != b.arrival) return a.arrival < b.arrival;
              if (a.comm != b.comm) return a.comm < b.comm;
              return a.index < b.index;
            });
  for (std::size_t i = 0; i < schedule.size(); ++i) schedule[i].id = i;
}

/// One served schedule and what the checks and metrics need from it.
struct Pass {
  svc::LoadgenResult result;
  std::vector<svc::Request> schedule;
  std::vector<svc::ReqRecord> records;
  double host_s = 0.0;
  double setup_s = 0.0;
  int degradations = 0;
};

Pass serve(const Options& opt, bool peak, bool traced, Spans& spans,
           std::map<std::string, std::vector<double>>* layers) {
  Pass out;
  const double t_setup = cpu_now();
  coll::Tuning tuning;
  tuning.trace = traced;
  topo::Topology topo = [&] {
    Scope s(spans, "topo.build");
    topo::Topology t = topo::by_name(kPreset);
    if (spans.on()) {
      // Built only so the span times the topo layer; the components build
      // their own, and untraced runs leave it out of setup_s.
      const topo::RankMap map(t, t.n_cores(), topo::MapPolicy::kCore);
      const topo::Hierarchy h(t, map,
                              topo::parse_sensitivity(tuning.sensitivity), 0);
      (void)h;
    }
    return t;
  }();
  std::unique_ptr<sim::SimMachine> m;
  {
    Scope s(spans, "sim.machine_build");
    const int n = topo.n_cores();
    m = std::make_unique<sim::SimMachine>(std::move(topo), n);
  }
  svc::LoadgenConfig cfg = load_config();
  svc::Budget budget;
  // Room for every tenant at full segment size even if each spanned the
  // node, so admission never degrades; the peak pass lifts the queue and
  // deadline bounds so nothing is shed.
  budget.segment_bytes =
      static_cast<std::size_t>(m->n_ranks()) *
      static_cast<std::size_t>(cfg.n_comms) *
      (tuning.cico_segment_bytes + svc::Arbiter::kCtlBytesPerRank);
  if (peak) {
    budget.queue_capacity = cfg.requests;
    budget.deadline = 1e9;
  }
  svc::Arbiter arbiter(budget);
  svc::CommRegistry reg(*m, arbiter);
  {
    Scope s(spans, "svc.admit");
    for (const svc::CommSpec& spec :
         svc::make_comm_plan(m->n_ranks(), cfg, tuning)) {
      reg.create(spec);
    }
  }
  {
    Scope s(spans, "svc.schedule");
    out.schedule = svc::make_schedule(cfg, reg);
    draw_arrivals(out.schedule, cfg.n_comms, cfg.arrival_rate, opt.seed);
    if (peak) {
      for (svc::Request& r : out.schedule) r.arrival = 0.0;
    }
  }
  svc::Telemetry tele(*m, svc::TelemetryConfig{}, cfg.requests);
  cfg.telemetry = &tele;
  std::vector<std::unique_ptr<p2p::TrafficCounter>> traffic;
  if (traced) {
    m->set_coh_tracking(true);
    for (int c = 0; c < reg.n_comms(); ++c) {
      svc::Communicator& comm = reg.comm(c);
      traffic.push_back(std::make_unique<p2p::TrafficCounter>(
          &comm.machine().topology(), &comm.machine().map()));
      comm.component().set_traffic_counter(traffic.back().get());
    }
  }
  out.setup_s = cpu_now() - t_setup;

  {
    Scope s(spans, peak ? "svc.run_loadgen.peak" : "svc.run_loadgen");
    const double t0 = cpu_now();
    out.result = svc::run_loadgen(reg, out.schedule, cfg);
    out.host_s = cpu_now() - t0;
  }
  out.records = tele.records();
  for (int c = 0; c < reg.n_comms(); ++c) {
    if (!reg.comm(c).degradation().empty()) ++out.degradations;
  }
  if (traced && layers != nullptr) {
    const double ops = static_cast<double>(out.result.completed);
    obs::CohReport coh;
    if (m->coh_report(&coh)) {
      (*layers)["sim.coh_hitm"].push_back(
          static_cast<double>(coh.totals.hitm) / ops);
      (*layers)["sim.coh_spin_refetch"].push_back(
          static_cast<double>(coh.totals.spin_refetches) / ops);
      (*layers)["sim.coh_invalidations"].push_back(
          static_cast<double>(coh.totals.invalidations) / ops);
    }
    double hits = 0.0;
    double misses = 0.0;
    double transfers = 0.0;
    for (int c = 0; c < reg.n_comms(); ++c) {
      if (const auto rc = reg.comm(c).component().reg_cache_stats()) {
        hits += static_cast<double>(rc->hits);
        misses += static_cast<double>(rc->misses);
      }
      transfers += static_cast<double>(traffic[static_cast<std::size_t>(c)]
                                           ->total());
      reg.comm(c).component().set_traffic_counter(nullptr);
    }
    (*layers)["smsc.regcache_hits"].push_back(hits);
    (*layers)["smsc.regcache_misses"].push_back(misses);
    (*layers)["p2p.transfers_per_op"].push_back(transfers / ops);
    // Communicator 0 spans every rank; its spans carry the node's
    // critical paths.
    add_critpath(obs::analyze_critical_paths(tele.observer(0)->trace()),
                 *layers);
  }
  return out;
}

/// Checks one pass: every scheduled request completed exactly once, no
/// earlier than its arrival and its verdict, with no integrity failure. One operation per request plus
/// one for the pass's totals.
void check_pass(const std::string& label, const Pass& p, bool corrupt,
                Report& rep) {
  std::vector<svc::ReqRecord> records = p.records;
  if (corrupt && !records.empty()) {
    // Self-test: a completion stamped before the request's arrival.
    const std::size_t victim = records.size() / 2;
    records[victim].end_time = p.schedule[victim].arrival - 1e-6;
  }
  std::vector<int> seen(records.size(), 0);
  for (const svc::Request& r : p.schedule) {
    const std::string op = label + ".request." + std::to_string(r.id);
    if (r.id >= records.size()) {
      rep.fail(op, "request id outside the record log", true);
      continue;
    }
    ++seen[r.id];
    const svc::ReqRecord& rec = records[r.id];
    if (seen[r.id] != 1) {
      rep.fail(op, "scheduled more than once", true);
    } else if (rec.outcome != svc::ReqOutcome::kCompleted) {
      rep.fail(op, std::string("outcome ") + svc::to_string(rec.outcome),
               false);
    } else if (!(rec.end_time >= r.arrival &&
                 rec.end_time >= rec.verdict_time)) {
      // The verdict itself may precede the arrival by an ulp (see
      // README.md), so only the completion is held to the arrival.
      rep.fail(op,
               "arrival " + fmt(r.arrival) + " verdict " +
                   fmt(rec.verdict_time) + " end " + fmt(rec.end_time) +
                   " out of order",
               true);
    } else {
      rep.pass();
    }
  }
  const svc::LoadgenResult& res = p.result;
  const std::uint64_t n = p.schedule.size();
  if (res.completed != n || res.shed != 0 || res.integrity_failures != 0) {
    rep.fail(label + ".totals",
             "completed " + std::to_string(res.completed) + " of " +
                 std::to_string(n) + ", shed " + std::to_string(res.shed) +
                 ", integrity failures " +
                 std::to_string(res.integrity_failures),
             res.integrity_failures != 0);
  } else {
    rep.pass();
  }
}

std::vector<double> latencies(const Pass& p) {
  std::vector<double> v;
  for (const svc::Request& r : p.schedule) {
    v.push_back(p.records[r.id].end_time - r.arrival);
  }
  return v;
}

void check_repeat(const std::string& label, const Pass& now,
                  const Pass& first, Report& rep) {
  const std::vector<double> a = latencies(now);
  const std::vector<double> b = latencies(first);
  if (same_model_time(geomean(a), geomean(b)) &&
      same_model_time(percentile(a, 0.99), percentile(b, 0.99))) {
    rep.pass();
  } else {
    rep.fail(label, "request latencies differ from the first round's", true);
  }
}

}  // namespace

void run_service_workload(const Options& opt, Report& rep, Spans& spans) {
  std::vector<double> setup;
  std::vector<double> nominal_host;
  std::vector<double> peak_host;
  std::vector<double> round_host[2];
  std::map<std::string, std::vector<double>> layers;
  Pass first_nominal;
  Pass first_peak;

  const double t_start = host_now();
  for (int round = 0;; ++round) {
    const bool traced = opt.trace && round % 2 == 1;
    Scope round_span(spans, traced ? "round.traced" : "round");
    Pass nominal = serve(opt, false, traced, spans, &layers);
    Pass peak = serve(opt, true, traced, spans, &layers);
    setup.push_back(nominal.setup_s);
    setup.push_back(peak.setup_s);
    round_host[traced ? 1 : 0].push_back(nominal.host_s + peak.host_s);
    if (round == 0) rep.set("peak_rss_mb", peak_rss_mb());
    if (!traced) {
      nominal_host.push_back(nominal.host_s);
      peak_host.push_back(peak.host_s);
    }
    // Every round's requests are checked; the self-test corrupts one
    // record of the first round only.
    check_pass("nominal", nominal, round == 0 && opt.corrupt == "svc", rep);
    check_pass("peak", peak, false, rep);
    if (round == 0) {
      first_nominal = std::move(nominal);
      first_peak = std::move(peak);
    } else {
      // Fresh machines and the same schedule: modeled times must repeat.
      check_repeat("repeat.nominal", nominal, first_nominal, rep);
      check_repeat("repeat.peak", peak, first_peak, rep);
    }
    if (round + 1 >= 3 && host_now() - t_start >= opt.seconds &&
        (!opt.trace || round % 2 == 1)) {
      break;
    }
  }

  const double makespan = first_peak.result.makespan;
  const double peak_rps =
      makespan > 0.0
          ? static_cast<double>(first_peak.result.completed) / makespan
          : 0.0;
  if (peak_rps < kNominalRate) {
    rep.fail("peak.rate",
             "peak " + std::to_string(peak_rps) +
                 " requests/s is below the nominal rate",
             true);
  } else {
    rep.pass();
  }

  std::vector<double> bcast;
  std::vector<double> allreduce;
  std::vector<double> queued;
  std::vector<double> exec;
  for (const svc::Request& r : first_nominal.schedule) {
    const svc::ReqRecord& rec = first_nominal.records[r.id];
    const double us = (rec.end_time - r.arrival) * 1e6;
    if (r.op == svc::OpClass::kBcast) bcast.push_back(us);
    if (r.op == svc::OpClass::kAllreduce) allreduce.push_back(us);
    queued.push_back((rec.verdict_time - r.arrival) * 1e6);
    exec.push_back((rec.end_time - rec.verdict_time) * 1e6);
  }
  rep.set("setup_s", fastest(setup));
  rep.set("host_s",
          fastest(nominal_host) + fastest(peak_host));
  // Medians: the request mix (and so each class's tail) moves with the
  // seed; the median request does not.
  rep.set("bcast_us", median(bcast));
  rep.set("allreduce_us", median(allreduce));
  if (!opt.trace) return;

  const std::vector<double> lat = latencies(first_nominal);
  rep.set("svc.p50_us", percentile(lat, 0.50) * 1e6);
  rep.set("svc.p99_us", percentile(lat, 0.99) * 1e6);
  rep.set("svc.peak_rps", peak_rps);
  rep.set("svc.queued_us.p50", percentile(queued, 0.50));
  rep.set("svc.exec_us.p50", percentile(exec, 0.50));
  rep.set("svc.backoff_stalls",
          static_cast<double>(first_nominal.result.backoff_stalls));
  rep.set("svc.degradations", static_cast<double>(first_nominal.degradations));
  set_span_medians(spans, rep);
  for (const auto& [k, v] : layers) rep.set(k, median(v));
  rep.set("obs.trace_overhead_s",
          fastest(round_host[1]) - fastest(round_host[0]));
  sim_probes(kPreset, {64, 4u << 10, 64u << 10}, rep);
}

}  // namespace perfbench
