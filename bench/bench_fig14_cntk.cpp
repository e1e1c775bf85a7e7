// Fig. 14 — CNTK AlexNet training (one scaled epoch) per component.
//
// Data-parallel SGD allreduces large layered gradient tensors after every
// minibatch. Expected: XHC-tree reduces epoch time over tuned/ucc/xbrc with
// the largest margin on ARM-N1, and the time spent *inside* Allreduce drops
// by a multiple even where the end-to-end win is modest (paper §V-D3).
// Gradient buffers are reused every minibatch, so XPMEM registration-cache
// hit ratios exceed 99%.
#include "apps/cntk.h"
#include "bench/bench_common.h"

static int run(int argc, char** argv) {
  using namespace xhc;
  const auto args = bench::BenchArgs::parse(argc, argv);

  util::Table table({"System", "Component", "Epoch (ms)", "In-coll (ms)",
                     "RegCache hit%"});
  for (const auto system : args.systems()) {
    for (const char* comp_name : {"xhc", "tuned", "ucc", "xbrc"}) {
      auto machine = bench::make_system(system);
      auto comp = coll::make_component(comp_name, *machine);
      apps::CntkConfig cfg;
      // 4 minibatches x 4 MB of gradients keep the sweep CI-sized (see
      // DESIGN.md §5 on the ranking-neutral scaling).
      cfg.minibatches = args.quick ? 2 : 4;
      cfg.layer_bytes = args.quick
                            ? std::vector<std::size_t>{512 * 1024,
                                                       2 * 1024 * 1024}
                            : std::vector<std::size_t>{1024 * 1024,
                                                       2 * 1024 * 1024,
                                                       1024 * 1024};
      const apps::AppResult res = apps::run_cntk(*machine, *comp, cfg);
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
  bench::emit(args, table, "Fig. 14: CNTK AlexNet proxy (one scaled epoch)");
  return 0;
}

int main(int argc, char** argv) {
  return xhc::osu::guarded_main([&] { return run(argc, argv); });
}
