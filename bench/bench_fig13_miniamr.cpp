// Fig. 13 — miniAMR ("expanding sphere") per component, two configurations.
//
//   (a) default: 4 refinement levels, small (tens of bytes) allreduces —
//       differences are marginal on the Epycs and visible on ARM-N1;
//   (b) 1K refinement levels, refine every timestep, ~1 KB allreduces —
//       XHC wins clearly and XBRC struggles (paper §V-D3).
#include "apps/miniamr.h"
#include "bench/bench_common.h"

static int run(int argc, char** argv) {
  using namespace xhc;
  const auto args = bench::BenchArgs::parse(argc, argv);

  const struct {
    const char* label;
    apps::MiniAmrConfig config;
  } configs[] = {
      {"4 refinement levels", apps::miniamr_default()},
      {"1K refinement levels", apps::miniamr_1k_levels()},
  };

  const auto systems = args.systems();
  for (const auto& [label, base_config] : configs) {
    util::Table table(
        {"System", "Component", "Total (ms)", "In-coll (ms)", "Calls"});
    for (const auto system : systems) {
      for (const char* comp_name : {"xhc", "tuned", "ucc", "xbrc"}) {
        auto machine = bench::make_system(system);
        auto comp = coll::make_component(comp_name, *machine);
        apps::MiniAmrConfig cfg = base_config;
        // An eighth of the paper's timesteps keeps the three-system sweep
        // CI-sized; per-step behaviour (and the ranking) is unchanged.
        cfg.timesteps /= args.quick ? 20 : 8;
        const apps::AppResult res = apps::run_miniamr(*machine, *comp, cfg);
        table.add_row({std::string(system), comp_name,
                       util::Table::fmt_double(res.total_time * 1e3, 2),
                       util::Table::fmt_double(res.collective_time * 1e3, 2),
                       std::to_string(res.collective_calls)});
      }
    }
    bench::emit(args, table,
                std::string("Fig. 13: miniAMR proxy, ") + label);
  }
  return 0;
}

int main(int argc, char** argv) {
  return xhc::osu::guarded_main([&] { return run(argc, argv); });
}
