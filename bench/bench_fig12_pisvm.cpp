// Fig. 12 — PiSvM training time per component, three systems.
//
// The proxy replays PiSvM's bcast-dominated communication (kernel-matrix
// working-set rows + control words). Expected: XHC-tree at least matches
// tuned on the Epycs and clearly wins on ARM-N1; SMHC keeps up on Epyc-1P
// but falls behind on the larger systems (paper §V-D3). Registration-cache
// hit ratios should exceed 99% (§V-D3).
#include "apps/pisvm.h"
#include "bench/bench_common.h"

static int run(int argc, char** argv) {
  using namespace xhc;
  const auto args = bench::BenchArgs::parse(argc, argv);

  util::Table table({"System", "Component", "Total (ms)", "In-coll (ms)",
                     "RegCache hit%"});
  for (const auto system : args.systems()) {
    for (const char* comp_name : {"xhc", "tuned", "ucc", "smhc"}) {
      auto machine = bench::make_system(system);
      auto comp = coll::make_component(comp_name, *machine);
      apps::PisvmConfig cfg;
      // 120 iterations keep the sweep CI-sized; the collective share (and
      // therefore the component ranking) is iteration-count invariant.
      cfg.iterations = args.quick ? 40 : 120;
      const apps::AppResult res = apps::run_pisvm(*machine, *comp, cfg);
      std::string hit = "-";
      if (const auto stats = comp->reg_cache_stats()) {
        hit = util::Table::fmt_double(stats->hit_ratio() * 100.0, 1);
      }
      table.add_row({std::string(system), comp_name,
                     util::Table::fmt_double(res.total_time * 1e3, 2),
                     util::Table::fmt_double(res.collective_time * 1e3, 2),
                     hit});
    }
  }
  bench::emit(args, table, "Fig. 12: PiSvM proxy performance");
  return 0;
}

int main(int argc, char** argv) {
  return xhc::osu::guarded_main([&] { return run(argc, argv); });
}
