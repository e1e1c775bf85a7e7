// Fig. 11 — MPI_Allreduce latency vs message size, all components, all
// three systems (osu_allreduce_mb, float sum; paper §V-D2).
//
// Expected shapes: XHC-tree leads broadly; tuned's recursive doubling is
// competitive for tiny messages; XHC-flat and XBRC behave similarly (both
// flat single-copy reducers) and fall behind on the larger systems; ucc is
// the closest competitor in the 128 KB–1 MB band; sm collapses on ARM-N1.
#include "bench/bench_common.h"

static int run(int argc, char** argv) {
  using namespace xhc;
  const auto args = bench::BenchArgs::parse(argc, argv);
  const auto sizes = bench::figure_sizes(args.quick, args.large);
  const auto comps = coll::allreduce_component_names();
  const auto systems = args.systems();

  // Independent (system, component) sim points dispatched over the worker
  // pool; tables are assembled by index so output matches sequential runs.
  std::vector<std::vector<std::vector<osu::SizeResult>>> results(
      systems.size(), std::vector<std::vector<osu::SizeResult>>(comps.size()));
  std::vector<std::unique_ptr<obs::Observer>> observers(systems.size());
  std::vector<std::vector<obs::NamedHist>> hists(systems.size() *
                                                 comps.size());

  osu::run_points(
      systems.size() * comps.size(), args.effective_jobs(),
      [&](std::size_t i) {
        const std::size_t si = i / comps.size();
        const std::size_t ci = i % comps.size();
        auto machine = bench::make_system(systems[si]);
        coll::Tuning tuning;
        args.apply_tuning(tuning);
        auto comp = coll::make_component(comps[ci], *machine, tuning);
        osu::Config cfg;
        cfg.warmup = 1;
        cfg.iters = args.quick ? 1 : 2;
        cfg.verify = args.verify;
        if (args.observe()) {
          // Observability forces effective_jobs()==1, so sharing one
          // Observer across a system's components stays race-free.
          if (!observers[si]) {
            observers[si] = std::make_unique<obs::Observer>(machine->n_ranks());
          }
          cfg.observer = observers[si].get();
        }
        if (args.hist_on()) cfg.size_hists = &hists[i];
        const bench::MachineProbes probes(args, *machine, cfg.observer);
        results[si][ci] = osu::allreduce_sweep(*machine, *comp, sizes, cfg);
      });

  for (std::size_t si = 0; si < systems.size(); ++si) {
    util::Table table([&] {
      std::vector<std::string> header{"Size"};
      for (const auto c : comps) header.emplace_back(c);
      return header;
    }());
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      std::vector<std::string> row{util::Table::fmt_bytes(sizes[i])};
      for (std::size_t ci = 0; ci < comps.size(); ++ci) {
        row.push_back(bench::us(results[si][ci][i].avg_us));
      }
      table.add_row(std::move(row));
    }
    std::string title = "Fig. 11: MPI_Allreduce latency (us), ";
    title += systems[si];
    bench::emit(args, table, title);
    if (args.hist_on()) {
      std::vector<std::pair<std::string, std::vector<obs::NamedHist>>>
          per_comp;
      for (std::size_t ci = 0; ci < comps.size(); ++ci) {
        per_comp.emplace_back(std::string(comps[ci]),
                              std::move(hists[si * comps.size() + ci]));
      }
      bench::emit_hists(args, std::string(systems[si]), per_comp,
                        observers[si].get());
    }
    if (observers[si]) {
      bench::emit_observability(args, *observers[si],
                                std::string(systems[si]));
      bench::emit_critpath(args, *observers[si], std::string(systems[si]));
    }
  }
  return 0;
}

int main(int argc, char** argv) {
  return xhc::osu::guarded_main([&] { return run(argc, argv); });
}
