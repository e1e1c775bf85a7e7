// Protocol checker tests (src/check/):
//   * analyzer — every preset x op x size-class schedule, and every tuning
//     variant the component offers, records clean, and the reports are
//     byte-deterministic,
//   * mutation kill score — every seeded protocol bug yields the predicted
//     finding (property, flag, rank), and the threshold bugs are killed
//     statically even though a default-schedule execution stays green,
//   * exploration — the sleep-set DFS exhausts the tiny topologies with no
//     failing interleaving, both on recorded models and on the real
//     collectives (CICO bcast, latency allreduce, RS+AG, striped bcast),
//     and finds the seeded deadlock when one exists.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "check/analyzer.h"
#include "check/explore.h"
#include "check/interp.h"
#include "check/mutate.h"
#include "check/schedule_model.h"
#include "coll/tuning.h"
#include "core/xhc_component.h"
#include "mach/machine.h"
#include "sim/sim_machine.h"
#include "topo/presets.h"
#include "util/prng.h"
#include "verify/verify.h"

namespace xhc {
namespace {

using check::Op;

/// One recorded operation: topology, tuning, op, size and root.
struct Spec {
  const char* label;
  std::function<topo::Topology()> topo;
  std::function<void(coll::Tuning&)> tune;
  Op op;
  std::size_t bytes;
  int root;
};

/// Names a Spec in test listings by its label.
void PrintTo(const Spec& spec, std::ostream* os) { *os << spec.label; }

/// A simulated machine and a fresh component, built from a Spec.
struct Rig {
  explicit Rig(const Spec& spec, const char* name = "check")
      : machine(spec.topo(), spec.topo().n_cores()),
        comp(machine, tuning_of(spec), name) {}

  static coll::Tuning tuning_of(const Spec& spec) {
    coll::Tuning t;
    if (spec.tune) spec.tune(t);
    return t;
  }
  check::ScheduleModel record(const Spec& spec) {
    return check::record_schedule(machine, comp, spec.op, spec.bytes,
                                  spec.root);
  }

  sim::SimMachine machine;
  core::XhcComponent comp;
};

// ---------------------------------------------------------------------------
// Analyzer sweep: every preset x op x size class is clean + deterministic
// ---------------------------------------------------------------------------

TEST(CheckAnalyzer, SweepAllPresetsClean) {
  struct Target {
    std::string name;
    topo::Topology t;
  };
  std::vector<Target> targets;
  for (const char* name : {"epyc1p", "epyc2p", "armn1", "mini8", "mini16"}) {
    targets.push_back({name, topo::by_name(name)});
  }
  targets.push_back({"flat4", topo::flat(4)});
  targets.push_back({"flat8", topo::flat(8)});
  targets.push_back({"grid12", topo::grid("grid12", 2, 3, 2, 2)});

  const Op ops[] = {Op::kBcast, Op::kAllreduce, Op::kReduce, Op::kBarrier};
  for (Target& tg : targets) {
    const int n = tg.t.n_cores();
    sim::SimMachine machine(tg.t, n);
    const auto record = [&](Op op, std::size_t bytes, int root) {
      core::XhcComponent comp(machine, coll::Tuning{}, "sweep");
      return check::analyze(check::record_schedule(machine, comp, op, bytes,
                                                   root),
                            machine.verify_ledger());
    };
    for (const Op op : ops) {
      std::vector<std::size_t> sizes = {512, 32768, 262144};
      if (op == Op::kBarrier) sizes = {0};
      for (const std::size_t bytes : sizes) {
        std::vector<int> roots = {0};
        if (op == Op::kBcast || op == Op::kReduce) roots.push_back(n - 1);
        for (const int root : roots) {
          const check::AnalysisReport rep = record(op, bytes, root);
          EXPECT_TRUE(rep.clean())
              << tg.name << " root=" << root << "\n" << rep.text();
          // Byte-determinism: a second recording on another fresh component
          // renders the identical text and JSON.
          const check::AnalysisReport rep2 = record(op, bytes, root);
          EXPECT_EQ(rep.text(), rep2.text()) << tg.name;
          EXPECT_EQ(rep.json(), rep2.json()) << tg.name;
        }
      }
    }
  }
}

/// The tuning variants and shapes the component offers beyond the preset
/// sweep's defaults: every one records a clean schedule.
TEST(CheckAnalyzer, TunedConfigurationsClean) {
  const auto mini8 = [] { return topo::mini8(); };
  const auto multi_shared = [](coll::Tuning& t) {
    t.flag_layout = coll::FlagLayout::kMultiSharedLine;
  };
  const auto multi_sep = [](coll::Tuning& t) {
    t.flag_layout = coll::FlagLayout::kMultiSeparateLines;
  };
  const auto atomic = [](coll::Tuning& t) {
    t.sync = coll::SyncMethod::kAtomicFetchAdd;
  };
  const auto stripe = [](coll::Tuning& t) { t.stripe_threshold = 4096; };
  const auto rs_ag = [](coll::Tuning& t) { t.rs_ag_threshold = 4096; };
  const std::vector<Spec> specs = {
      {"bcast/multi-shared", mini8, multi_shared, Op::kBcast, 40000, 0},
      {"bcast/multi-sep", mini8, multi_sep, Op::kBcast, 40000, 0},
      {"allreduce/multi-sep", mini8, multi_sep, Op::kAllreduce, 40000, 0},
      {"bcast/atomic/cico", mini8, atomic, Op::kBcast, 512, 0},
      {"bcast/atomic", mini8, atomic, Op::kBcast, 40000, 0},
      {"allreduce/atomic", mini8, atomic, Op::kAllreduce, 40000, 0},
      {"bcast/striped", mini8, stripe, Op::kBcast, 16384, 0},
      {"bcast/striped/root6", mini8, stripe, Op::kBcast, 16384, 6},
      {"allreduce/rs_ag/flat8", [] { return topo::flat(8); }, rs_ag,
       Op::kAllreduce, 16384, 0},
      {"allreduce/rs_ag/mini8", mini8, rs_ag, Op::kAllreduce, 16384, 0},
      {"reduce/root0", mini8, nullptr, Op::kReduce, 40000, 0},
      {"reduce/root1/cico", mini8, nullptr, Op::kReduce, 512, 1},
      {"reduce/root2", mini8, nullptr, Op::kReduce, 40000, 2},
      {"barrier/flat4", [] { return topo::flat(4); }, nullptr, Op::kBarrier, 0,
       0},
      {"barrier/mini16", [] { return topo::mini16(); }, nullptr, Op::kBarrier,
       0, 0},
  };
  for (const Spec& spec : specs) {
    Rig rig(spec);
    const check::AnalysisReport rep =
        check::analyze(rig.record(spec), rig.machine.verify_ledger());
    EXPECT_TRUE(rep.clean()) << spec.label << "\n" << rep.text();
    EXPECT_GT(rep.n_waits, 0U) << spec.label;
  }
}

// ---------------------------------------------------------------------------
// Mutation harness: 100% kill score with precise expectations
// ---------------------------------------------------------------------------

std::vector<Spec> mutation_specs() {
  return {
      {"bcast_lat", [] { return topo::mini8(); }, nullptr, Op::kBcast, 40000,
       0},
      {"bcast_stripe", [] { return topo::mini8(); },
       [](coll::Tuning& t) { t.stripe_threshold = 4096; }, Op::kBcast, 16384,
       0},
      {"allreduce_lat", [] { return topo::mini8(); }, nullptr, Op::kAllreduce,
       40000, 0},
      {"allreduce_rs_ag", [] { return topo::flat(8); },
       [](coll::Tuning& t) { t.rs_ag_threshold = 4096; }, Op::kAllreduce,
       16384, 0},
      {"reduce", [] { return topo::mini8(); }, nullptr, Op::kReduce, 40000, 2},
      {"barrier", [] { return topo::mini8(); }, nullptr, Op::kBarrier, 0, 0},
  };
}

class CheckMutants : public ::testing::TestWithParam<check::MutationKind> {};

TEST_P(CheckMutants, EverySeededMutantIsKilled) {
  const check::MutationKind kind = GetParam();
  const std::uint64_t seeds[] = {1, 2, 3, 5, 8, 13};
  int applied = 0;
  int killed = 0;
  for (const Spec& spec : mutation_specs()) {
    Rig rig(spec, "mut");
    const sim::SimMachine& machine = rig.machine;
    const check::ScheduleModel base = rig.record(spec);
    ASSERT_TRUE(check::analyze(base, machine.verify_ledger()).clean())
        << spec.label << ": baseline schedule must be clean";
    for (const std::uint64_t seed : seeds) {
      check::ScheduleModel m = base;
      const check::MutantInfo info =
          check::apply_mutation(m, kind, seed, machine.verify_ledger());
      if (!info.applied) continue;
      ++applied;
      const check::AnalysisReport rep =
          check::analyze(m, machine.verify_ledger());
      const bool hit =
          std::any_of(rep.findings.begin(), rep.findings.end(),
                      [&](const check::Finding& f) { return info.killed_by(f); });
      if (hit) ++killed;
      EXPECT_TRUE(hit) << spec.label << " seed=" << seed << " "
                       << check::to_string(kind) << ": " << info.detail
                       << "\nexpected flag=" << info.flag
                       << " rank=" << info.rank << "\n"
                       << rep.text();
    }
  }
  EXPECT_GT(applied, 0) << "no candidate site in any model for "
                        << check::to_string(kind);
  EXPECT_EQ(killed, applied) << "kill score below 100% for "
                             << check::to_string(kind);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, CheckMutants,
    ::testing::Values(check::MutationKind::kThresholdLow,
                      check::MutationKind::kThresholdHigh,
                      check::MutationKind::kDroppedPublish,
                      check::MutationKind::kSwappedStageOrder,
                      check::MutationKind::kWidenedWriter),
    [](const ::testing::TestParamInfo<check::MutationKind>& info) {
      switch (info.param) {
        case check::MutationKind::kThresholdLow:
          return "ThresholdLow";
        case check::MutationKind::kThresholdHigh:
          return "ThresholdHigh";
        case check::MutationKind::kDroppedPublish:
          return "DroppedPublish";
        case check::MutationKind::kSwappedStageOrder:
          return "SwappedStageOrder";
        case check::MutationKind::kWidenedWriter:
          return "WidenedWriter";
      }
      return "Unknown";
    });

/// The reason the static pass exists: a lowered wait threshold terminates,
/// keeps the writer discipline intact and (under the default schedule)
/// usually even delivers correct-looking payloads — every signal the
/// runtime suite's canonical execution gates on stays green. The analyzer
/// must kill it anyway.
TEST(CheckMutants, StaticPassCatchesWhatDefaultRunMisses) {
  const Spec spec{"bcast", [] { return topo::mini8(); }, nullptr, Op::kBcast,
                  40000, 0};
  Rig rig(spec, "blind");
  sim::SimMachine& machine = rig.machine;
  const check::ScheduleModel base = rig.record(spec);

  const check::InterpResult good =
      check::run_model(base, machine, machine.verify_ledger());
  ASSERT_TRUE(good.ok()) << (good.errors.empty() ? "unexpected model failure"
                                                 : good.errors.front());

  bool demonstrated = false;
  for (std::uint64_t seed = 1; seed <= 32 && !demonstrated; ++seed) {
    check::ScheduleModel m = base;
    const check::MutantInfo info = check::apply_mutation(
        m, check::MutationKind::kThresholdLow, seed, machine.verify_ledger());
    if (!info.applied) continue;
    const check::AnalysisReport rep =
        check::analyze(m, machine.verify_ledger());
    const bool static_kill =
        std::any_of(rep.findings.begin(), rep.findings.end(),
                    [&](const check::Finding& f) { return info.killed_by(f); });
    EXPECT_TRUE(static_kill) << info.detail << "\n" << rep.text();
    const check::InterpResult run =
        check::run_model(m, machine, machine.verify_ledger());
    // Termination + ledger discipline — all the default execution can
    // observe without the abstract coverage oracle — stay green.
    if (static_kill && run.completed && !run.deadlock &&
        run.violations.empty()) {
      demonstrated = true;
    }
  }
  EXPECT_TRUE(demonstrated)
      << "no threshold-low mutant survived the default-schedule run";
}

// ---------------------------------------------------------------------------
// Interleaving exploration
// ---------------------------------------------------------------------------

TEST(CheckExplorer, ExhaustsTinyModelTopologies) {
  for (const int n : {2, 3, 4}) {
    for (const Op op : {Op::kBarrier, Op::kBcast}) {
      const Spec spec{"tiny", [n] { return topo::flat(n); }, nullptr, op,
                      op == Op::kBcast ? 512U : 0U, 0};
      Rig rig(spec, "explore");
      sim::SimMachine& machine = rig.machine;
      const check::ScheduleModel model = rig.record(spec);
      const check::Runner run =
          [&](const sim::VirtualScheduler::PickHook& hook,
              mach::Probe* probe) {
            const check::InterpResult res = check::run_model(
                model, machine, machine.verify_ledger(), hook, probe);
            check::RunOutcome out;
            if (!res.ok()) {
              out.failed = true;
              out.diag = !res.errors.empty() ? res.errors.front()
                         : !res.violations.empty()
                             ? res.violations.front().describe()
                             : "model run failed";
            }
            return out;
          };
      check::ExploreOptions opts;
      opts.max_branch_depth = n < 4 ? 8 : 6;
      opts.max_executions = 6000;
      const check::ExploreStats st = check::explore(run, opts);
      EXPECT_TRUE(st.exhausted)
          << "flat(" << n << ") " << check::to_string(op)
          << ": executions=" << st.executions;
      EXPECT_EQ(st.failures, 0)
          << "flat(" << n << ") " << check::to_string(op) << ": "
          << (st.witnesses.empty() ? "" : st.witnesses.front());
      EXPECT_GE(st.executions, 1);
    }
  }
}

TEST(CheckExplorer, RealBcastPayloadUnderAllSchedules) {
  const std::size_t kBytes = 512;
  sim::SimMachine machine(topo::flat(4), 4);
  core::XhcComponent comp(machine, coll::Tuning{}, "explore-real");
  std::vector<mach::Buffer> buf;
  for (int r = 0; r < 4; ++r) buf.emplace_back(machine, r, kBytes);
  std::vector<unsigned char> ref(kBytes);
  util::fill_pattern(ref.data(), kBytes, 7);

  const check::Runner run = [&](const sim::VirtualScheduler::PickHook& hook,
                                mach::Probe* probe) {
    for (int r = 1; r < 4; ++r) std::memset(buf[r].get(), 0, kBytes);
    std::memcpy(buf[0].get(), ref.data(), kBytes);
    machine.set_pick_hook(hook);
    machine.attach(probe);
    check::RunOutcome out;
    try {
      machine.run([&](mach::Ctx& ctx) {
        comp.bcast(ctx, buf[static_cast<std::size_t>(ctx.rank())].get(),
                   kBytes, 0);
      });
      for (int r = 0; r < 4; ++r) {
        if (std::memcmp(buf[r].get(), ref.data(), kBytes) != 0) {
          out.failed = true;
          out.diag = "payload mismatch on rank " + std::to_string(r);
          break;
        }
      }
    } catch (const std::exception& e) {
      out.failed = true;
      out.diag = e.what();
    }
    machine.set_pick_hook(nullptr);
    machine.detach(probe);
    return out;
  };

  check::ExploreOptions opts;
  opts.max_branch_depth = 4;
  opts.max_executions = 1200;
  const check::ExploreStats st = check::explore(run, opts);
  EXPECT_TRUE(st.exhausted) << "executions=" << st.executions;
  EXPECT_EQ(st.failures, 0)
      << (st.witnesses.empty() ? "" : st.witnesses.front());
  EXPECT_GT(st.branch_points, 0);
}

/// A recorded model with flag names in place of addresses, so recordings
/// on different machines compare equal exactly when their streams do.
std::string render(const check::ScheduleModel& m, const verify::Ledger& names) {
  std::ostringstream os;
  const auto ranges = [&os](char tag, const std::vector<check::DataRange>& v) {
    for (const check::DataRange& d : v) {
      os << ' ' << tag << d.buf << '[' << d.lo << ',' << d.hi << ")@"
         << d.epoch;
    }
  };
  for (int r = 0; r < m.n_ranks; ++r) {
    for (const check::Event& e : m.per_rank[static_cast<std::size_t>(r)]) {
      os << 'r' << r << ' ' << e.site << ' ' << names.flag_name(e.flag) << ' '
         << e.value;
      ranges('w', e.writes);
      ranges('n', e.needs);
      os << '\n';
    }
  }
  return os.str();
}

/// Real-code exploration of the large-message and pipelined XHC paths on
/// mini8, the largest small topology whose depth-4 tree the DFS exhausts
/// (mini16's does not within 5000 executions). Every execution records the
/// operation on a fresh machine and component: it must deliver the exact
/// payload (record_schedule checks it) and the same per-rank streams, with
/// the same coverage, as the default schedule.
class CheckExplorerPaths : public ::testing::TestWithParam<Spec> {};

TEST_P(CheckExplorerPaths, RecordedRunIsScheduleIndependent) {
  const Spec& spec = GetParam();
  const auto once = [&](const sim::VirtualScheduler::PickHook& hook,
                        mach::Probe* probe) {
    Rig rig(spec, "explore");
    rig.machine.set_pick_hook(hook);
    mach::ScopedProbe scoped(rig.machine, probe);
    return render(rig.record(spec), rig.machine.verify_ledger());
  };
  const std::string want = once(nullptr, nullptr);
  const check::Runner run = [&](const sim::VirtualScheduler::PickHook& hook,
                                mach::Probe* probe) {
    check::RunOutcome out;
    try {
      if (once(hook, probe) != want) {
        out.failed = true;
        out.diag = "recorded streams differ from the default schedule's";
      }
    } catch (const std::exception& e) {
      out.failed = true;
      out.diag = e.what();
    }
    return out;
  };
  check::ExploreOptions opts;
  opts.max_branch_depth = 4;
  opts.max_executions = 2000;
  const check::ExploreStats st = check::explore(run, opts);
  EXPECT_TRUE(st.exhausted) << "executions=" << st.executions;
  EXPECT_EQ(st.failures, 0)
      << (st.witnesses.empty() ? "" : st.witnesses.front());
  EXPECT_GT(st.branch_points, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Mini8, CheckExplorerPaths,
    ::testing::Values(
        Spec{"AllreduceLatency", [] { return topo::mini8(); },
             [](coll::Tuning& t) { t.chunk_bytes = {1024}; }, Op::kAllreduce,
             4096, 0},
        Spec{"RsAg", [] { return topo::mini8(); },
             [](coll::Tuning& t) {
               t.rs_ag_threshold = 1024;
               t.large_chunk_bytes = {1024};
             },
             Op::kAllreduce, 4096, 0},
        Spec{"StripedBcast", [] { return topo::mini8(); },
             [](coll::Tuning& t) {
               t.stripe_threshold = 1024;
               t.large_chunk_bytes = {1024};
             },
             Op::kBcast, 4096, 0}),
    [](const ::testing::TestParamInfo<Spec>& info) {
      return std::string(info.param.label);
    });

TEST(CheckExplorer, FindsSeededDeadlock) {
  const Spec spec{"bcast", [] { return topo::flat(4); }, nullptr, Op::kBcast,
                  40000, 0};
  Rig rig(spec, "dead");
  const sim::SimMachine& origin = rig.machine;
  const check::ScheduleModel base = rig.record(spec);

  check::ScheduleModel mutant;
  check::MutantInfo info;
  for (std::uint64_t seed = 1; seed <= 16 && !info.applied; ++seed) {
    check::ScheduleModel m = base;
    const check::MutantInfo i2 =
        check::apply_mutation(m, check::MutationKind::kSwappedStageOrder, seed,
                              origin.verify_ledger());
    if (i2.applied) {
      mutant = std::move(m);
      info = i2;
    }
  }
  ASSERT_TRUE(info.applied) << "no stage-order site on flat(4) bcast";

  const check::AnalysisReport rep =
      check::analyze(mutant, origin.verify_ledger());
  EXPECT_TRUE(std::any_of(
      rep.findings.begin(), rep.findings.end(),
      [&](const check::Finding& f) { return info.killed_by(f); }))
      << info.detail << "\n" << rep.text();

  // A deadlocked machine is not reusable, so each execution gets a fresh
  // one; the origin's ledger still resolves the model's flag names.
  const check::Runner run = [&](const sim::VirtualScheduler::PickHook& hook,
                                mach::Probe* probe) {
    sim::SimMachine fresh(topo::flat(4), 4);
    const check::InterpResult res =
        check::run_model(mutant, fresh, origin.verify_ledger(), hook, probe);
    check::RunOutcome out;
    if (!res.ok()) {
      out.failed = true;
      out.diag = res.errors.empty() ? "model run failed" : res.errors.front();
    }
    return out;
  };
  check::ExploreOptions opts;
  opts.max_branch_depth = 3;
  opts.max_executions = 24;
  opts.random_walks = 4;
  const check::ExploreStats st = check::explore(run, opts);
  EXPECT_GT(st.failures, 0) << "explorer missed the seeded deadlock";
}

}  // namespace
}  // namespace xhc
