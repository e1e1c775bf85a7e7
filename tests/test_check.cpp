// Protocol checker tests (src/check/):
//   * conformance — the statically extracted ScheduleModel matches, flag by
//     flag and value by value, the event stream the real collective emits,
//   * analyzer sweep — every preset x op x size-class schedule is clean and
//     the reports are byte-deterministic,
//   * mutation kill score — every seeded protocol bug yields the predicted
//     finding (property, flag, rank), and the threshold bugs are killed
//     statically even though a default-schedule execution stays green,
//   * exploration — the sleep-set DFS exhausts the tiny topologies with no
//     failing interleaving, and finds the seeded deadlock when one exists.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
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

// ---------------------------------------------------------------------------
// Conformance: model vs. real event stream
// ---------------------------------------------------------------------------

/// The flag operations the schedule model carries (it has no reads).
enum class FlagOp : unsigned char { kStore, kRmw, kWaitEnter };

struct FlagRec {
  const mach::Flag* flag = nullptr;
  FlagOp op = FlagOp::kStore;
  std::uint64_t value = 0;
};

/// Records every store / wait-entry / RMW per rank. Ranks write disjoint
/// vectors and the probe runs under the scheduler token, so no locking.
class OpRecorder final : public mach::Probe {
 public:
  explicit OpRecorder(int n) : per_rank(static_cast<std::size_t>(n)) {}
  std::vector<std::vector<FlagRec>> per_rank;

  void on_store(const mach::Flag* f, int rank, std::uint64_t value,
                double) override {
    add(rank, {f, FlagOp::kStore, value});
  }
  void on_rmw(const mach::Flag* f, int rank, std::uint64_t result,
              double) override {
    add(rank, {f, FlagOp::kRmw, result});
  }
  void on_wait_enter(const mach::Flag* f, int rank,
                     std::uint64_t threshold) override {
    add(rank, {f, FlagOp::kWaitEnter, threshold});
  }

 private:
  void add(int rank, FlagRec rec) {
    per_rank[static_cast<std::size_t>(rank)].push_back(rec);
  }
};

const char* flag_op_name(FlagOp op) {
  switch (op) {
    case FlagOp::kStore:
      return "store";
    case FlagOp::kRmw:
      return "rmw";
    case FlagOp::kWaitEnter:
      return "wait";
  }
  return "?";
}

FlagOp expected_op(check::EvKind k) {
  switch (k) {
    case check::EvKind::kPublish:
      return FlagOp::kStore;
    case check::EvKind::kWait:
      return FlagOp::kWaitEnter;
    case check::EvKind::kRmw:
      return FlagOp::kRmw;
  }
  return FlagOp::kStore;
}

/// Builds a fresh machine + component, extracts the first-op model, runs
/// the same op once for real, and compares the streams position by
/// position. Values are compared for publishes and waits; RMWs compare by
/// position only (the model stores the delta, the probe the result).
void expect_conformance(const std::string& label, topo::Topology topo,
                        const coll::Tuning& tuning, Op op, std::size_t bytes,
                        int root) {
  const int n = topo.n_cores();
  sim::SimMachine machine(std::move(topo), n);
  core::XhcComponent comp(machine, tuning, "conf");
  const check::ScheduleModel model =
      check::extract_schedule(comp, op, bytes, root);
  ASSERT_EQ(model.n_ranks, n) << label;

  std::vector<mach::Buffer> sbuf, rbuf;
  std::vector<unsigned char> ref(bytes);
  util::fill_pattern(ref.data(), bytes, 42);
  if (bytes > 0) {
    for (int r = 0; r < n; ++r) {
      rbuf.emplace_back(machine, r, bytes);
      if (op != Op::kBcast) {
        sbuf.emplace_back(machine, r, bytes);
        util::fill_pattern(sbuf.back().get(), bytes,
                           1000 + static_cast<std::uint64_t>(r));
      }
    }
    if (op == Op::kBcast) {
      std::memcpy(rbuf[static_cast<std::size_t>(root)].get(), ref.data(),
                  bytes);
    }
  }

  OpRecorder rec(n);
  machine.attach(&rec);
  machine.run([&](mach::Ctx& ctx) {
    const int r = ctx.rank();
    switch (op) {
      case Op::kBcast:
        comp.bcast(ctx, rbuf[static_cast<std::size_t>(r)].get(), bytes, root);
        break;
      case Op::kAllreduce:
        comp.allreduce(ctx, sbuf[static_cast<std::size_t>(r)].get(),
                       rbuf[static_cast<std::size_t>(r)].get(), bytes / 8,
                       mach::DType::kF64, mach::ROp::kSum);
        break;
      case Op::kReduce:
        comp.reduce(ctx, sbuf[static_cast<std::size_t>(r)].get(),
                    rbuf[static_cast<std::size_t>(r)].get(), bytes / 8,
                    mach::DType::kF64, mach::ROp::kSum, root);
        break;
      case Op::kBarrier:
        comp.barrier(ctx);
        break;
    }
  });
  machine.detach(&rec);

  if (op == Op::kBcast) {
    for (int r = 0; r < n; ++r) {
      EXPECT_EQ(0, std::memcmp(rbuf[static_cast<std::size_t>(r)].get(),
                               ref.data(), bytes))
          << label << ": payload mismatch on rank " << r;
    }
  }

  const verify::Ledger& led = machine.verify_ledger();
  for (int r = 0; r < n; ++r) {
    const auto& want = model.per_rank[static_cast<std::size_t>(r)];
    const auto& got = rec.per_rank[static_cast<std::size_t>(r)];
    const std::size_t common = std::min(want.size(), got.size());
    for (std::size_t i = 0; i < common; ++i) {
      const check::Event& w = want[i];
      const FlagRec& g = got[i];
      const bool same = g.flag == w.flag && g.op == expected_op(w.kind) &&
                        (w.kind == check::EvKind::kRmw || g.value == w.value);
      if (!same) {
        ADD_FAILURE() << label << " r" << r << " event " << i
                      << ": model wants " << flag_op_name(expected_op(w.kind))
                      << " " << led.flag_name(w.flag) << " value " << w.value
                      << " (site " << w.site << "), run did "
                      << flag_op_name(g.op) << " " << led.flag_name(g.flag)
                      << " value " << g.value;
        return;  // first divergence is the informative one
      }
    }
    ASSERT_EQ(want.size(), got.size())
        << label << " r" << r << ": model has " << want.size()
        << " events, the run produced " << got.size()
        << " (streams agree on the common prefix)";
  }
}

TEST(CheckConformance, BcastCico) {
  expect_conformance("bcast/cico/root0", topo::mini8(), coll::Tuning{},
                     Op::kBcast, 512, 0);
  expect_conformance("bcast/cico/root3", topo::mini8(), coll::Tuning{},
                     Op::kBcast, 512, 3);
}

TEST(CheckConformance, BcastPipelined) {
  expect_conformance("bcast/pipelined", topo::mini8(), coll::Tuning{},
                     Op::kBcast, 40000, 0);
  expect_conformance("bcast/pipelined/root5", topo::mini8(), coll::Tuning{},
                     Op::kBcast, 40000, 5);
  expect_conformance("bcast/pipelined/mini16", topo::mini16(), coll::Tuning{},
                     Op::kBcast, 40000, 0);
}

TEST(CheckConformance, BcastFlagLayouts) {
  coll::Tuning t;
  t.flag_layout = coll::FlagLayout::kMultiSharedLine;
  expect_conformance("bcast/multi-shared", topo::mini8(), t, Op::kBcast, 40000,
                     0);
  t.flag_layout = coll::FlagLayout::kMultiSeparateLines;
  expect_conformance("bcast/multi-sep", topo::mini8(), t, Op::kBcast, 40000,
                     0);
}

TEST(CheckConformance, BcastAtomicSync) {
  coll::Tuning t;
  t.sync = coll::SyncMethod::kAtomicFetchAdd;
  expect_conformance("bcast/atomic/cico", topo::mini8(), t, Op::kBcast, 512,
                     0);
  expect_conformance("bcast/atomic", topo::mini8(), t, Op::kBcast, 40000, 0);
}

TEST(CheckConformance, BcastStriped) {
  coll::Tuning t;
  t.stripe_threshold = 4096;
  expect_conformance("bcast/striped", topo::mini8(), t, Op::kBcast, 16384, 0);
  expect_conformance("bcast/striped/root6", topo::mini8(), t, Op::kBcast,
                     16384, 6);
}

TEST(CheckConformance, Allreduce) {
  expect_conformance("allreduce/cico", topo::mini8(), coll::Tuning{},
                     Op::kAllreduce, 512, 0);
  expect_conformance("allreduce/pipelined", topo::mini8(), coll::Tuning{},
                     Op::kAllreduce, 40000, 0);
}

TEST(CheckConformance, AllreduceRsAg) {
  coll::Tuning t;
  t.rs_ag_threshold = 4096;
  expect_conformance("allreduce/rs_ag/flat8", topo::flat(8), t,
                     Op::kAllreduce, 16384, 0);
  expect_conformance("allreduce/rs_ag/mini8", topo::mini8(), t,
                     Op::kAllreduce, 16384, 0);
}

TEST(CheckConformance, Reduce) {
  expect_conformance("reduce/root0", topo::mini8(), coll::Tuning{},
                     Op::kReduce, 40000, 0);
  expect_conformance("reduce/root2", topo::mini8(), coll::Tuning{},
                     Op::kReduce, 40000, 2);
  expect_conformance("reduce/cico", topo::mini8(), coll::Tuning{},
                     Op::kReduce, 512, 1);
}

TEST(CheckConformance, Barrier) {
  expect_conformance("barrier/mini8", topo::mini8(), coll::Tuning{},
                     Op::kBarrier, 0, 0);
  expect_conformance("barrier/mini16", topo::mini16(), coll::Tuning{},
                     Op::kBarrier, 0, 0);
  expect_conformance("barrier/flat4", topo::flat(4), coll::Tuning{},
                     Op::kBarrier, 0, 0);
}

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
    core::XhcComponent comp(machine, coll::Tuning{}, "sweep");
    for (const Op op : ops) {
      std::vector<std::size_t> sizes = {512, 32768, 262144};
      if (op == Op::kBarrier) sizes = {0};
      for (const std::size_t bytes : sizes) {
        std::vector<int> roots = {0};
        if (op == Op::kBcast || op == Op::kReduce) roots.push_back(n - 1);
        for (const int root : roots) {
          const check::ScheduleModel model =
              check::extract_schedule(comp, op, bytes, root);
          const check::AnalysisReport rep =
              check::analyze(model, machine.verify_ledger());
          EXPECT_TRUE(rep.clean())
              << tg.name << " root=" << root << "\n" << rep.text();
          // Byte-determinism: a second extraction + analysis renders the
          // identical text and JSON.
          const check::AnalysisReport rep2 = check::analyze(
              check::extract_schedule(comp, op, bytes, root),
              machine.verify_ledger());
          EXPECT_EQ(rep.text(), rep2.text()) << tg.name;
          EXPECT_EQ(rep.json(), rep2.json()) << tg.name;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Mutation harness: 100% kill score with precise expectations
// ---------------------------------------------------------------------------

struct MutSpec {
  const char* label;
  std::function<topo::Topology()> topo;
  std::function<void(coll::Tuning&)> tune;
  Op op;
  std::size_t bytes;
  int root;
};

std::vector<MutSpec> mutation_specs() {
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
  for (const MutSpec& spec : mutation_specs()) {
    topo::Topology t = spec.topo();
    const int n = t.n_cores();
    sim::SimMachine machine(std::move(t), n);
    coll::Tuning tuning;
    if (spec.tune) spec.tune(tuning);
    core::XhcComponent comp(machine, tuning, "mut");
    const check::ScheduleModel base =
        check::extract_schedule(comp, spec.op, spec.bytes, spec.root);
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
  sim::SimMachine machine(topo::mini8(), 8);
  core::XhcComponent comp(machine, coll::Tuning{}, "blind");
  const check::ScheduleModel base =
      check::extract_schedule(comp, Op::kBcast, 40000, 0);

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
    sim::SimMachine machine(topo::flat(n), n);
    core::XhcComponent comp(machine, coll::Tuning{}, "explore");
    for (const Op op : {Op::kBarrier, Op::kBcast}) {
      const std::size_t bytes = op == Op::kBcast ? 512 : 0;
      const check::ScheduleModel model =
          check::extract_schedule(comp, op, bytes, 0);
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

TEST(CheckExplorer, FindsSeededDeadlock) {
  sim::SimMachine origin(topo::flat(4), 4);
  core::XhcComponent comp(origin, coll::Tuning{}, "dead");
  const check::ScheduleModel base =
      check::extract_schedule(comp, Op::kBcast, 40000, 0);

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
