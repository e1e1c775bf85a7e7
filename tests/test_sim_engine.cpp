// Machine-level contract of the virtual-time engine: identical runs must
// produce bit-identical per-rank completion timestamps, a 160-rank run must
// fit on one host thread, a deadlock must surface through SimMachine with a
// readable report, a freed flag's history must not leak into the next
// occupant of its address, and attached probes (mach/probe.h) must observe
// without perturbing virtual time. The scheduler-level unit tests live in
// test_sim_core.cpp; these exercise the full machine + collective stack.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "coll/registry.h"
#include "mach/probe.h"
#include "obs/hist.h"
#include "obs/wait_feed.h"
#include "sim/sim_machine.h"
#include "topo/presets.h"
#include "util/prng.h"

namespace xhc {
namespace {

/// Runs one xhc bcast on the given system and returns the per-rank
/// completion timestamps. Verifies the payload landed everywhere.
std::vector<double> bcast_rank_times(const topo::Topology& system,
                                     std::size_t bytes) {
  topo::Topology topo = system;
  const int n = topo.n_cores();
  sim::SimMachine machine(std::move(topo), n);
  auto comp = coll::make_component("xhc", machine);
  std::vector<mach::Buffer> bufs;
  for (int r = 0; r < n; ++r) bufs.emplace_back(machine, r, bytes);
  util::fill_pattern(bufs[0].get(), bytes, 0xD5);

  const auto res = machine.run([&](mach::Ctx& ctx) {
    comp->bcast(ctx, bufs[static_cast<std::size_t>(ctx.rank())].get(), bytes,
                /*root=*/0);
  });

  std::vector<std::byte> expect(bytes);
  util::fill_pattern(expect.data(), bytes, 0xD5);
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(std::memcmp(bufs[static_cast<std::size_t>(r)].get(),
                          expect.data(), bytes),
              0)
        << "payload mismatch at rank " << r;
  }
  EXPECT_EQ(res.rank_time.size(), static_cast<std::size_t>(n));
  return res.rank_time;
}

// The same 64-rank simulation run twice must reproduce every per-rank
// completion timestamp exactly — host scheduling must not leak in.
TEST(EngineDeterminism, RepeatedRunsBitIdentical) {
  const auto first = bcast_rank_times(topo::epyc2p(), 8192);
  const auto second = bcast_rank_times(topo::epyc2p(), 8192);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t r = 0; r < first.size(); ++r) {
    EXPECT_EQ(first[r], second[r]) << "rank " << r;  // exact, not near
  }
}

// Every rank must block forever for a deadlock to be declared; the error
// must name the condition so a hung model is debuggable from the message.
TEST(EngineDeterminism, DeadlockReportedThroughMachine) {
  topo::Topology topo = topo::mini8();
  sim::SimMachine machine(std::move(topo), 8);
  mach::Flag never_set;
  try {
    machine.run([&](mach::Ctx& ctx) { ctx.flag_wait_ge(never_set, 1); });
    FAIL() << "deadlocked run returned normally";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos)
        << "actual message: " << e.what();
  }
}

// A freed flag's publish history must go with it: a fresh flag allocated
// at the same address starts at zero, so its waits resume only after a new
// store. (glibc carves the small aligned request out of the freed 4 KiB
// chunk, so the new flag lands at the old address; under ASan's quarantine
// it does not, and the check holds trivially.)
TEST(EngineDeterminism, FreedFlagHistoryDoesNotSatisfyReusedAddress) {
  sim::SimMachine machine(topo::mini8(), 2);
  auto* old_flag = static_cast<mach::Flag*>(machine.alloc(0, 4096));
  machine.run([&](mach::Ctx& ctx) {
    if (ctx.rank() == 0) ctx.flag_store(*old_flag, 5);
  });
  machine.free(old_flag);

  auto* flag = static_cast<mach::Flag*>(machine.alloc(0, 64));
  double stored = 0.0;
  double resumed = 0.0;
  machine.run([&](mach::Ctx& ctx) {
    if (ctx.rank() == 0) {
      ctx.charge(1e-3);
      stored = ctx.now();
      ctx.flag_store(*flag, 1);
    } else {
      ctx.flag_wait_ge(*flag, 1);
      resumed = ctx.now();
    }
  });
  EXPECT_GT(resumed, stored) << "the wait resumed on the freed flag's 5";
  machine.free(flag);
}

/// Logs every probe event; two logs compare equal only when they saw the
/// same calls with the same arguments in the same order.
class EventLog final : public mach::Probe {
 public:
  struct Event {
    char kind = 0;
    int rank = 0;
    const void* addr = nullptr;
    std::uint64_t value = 0;
    double t = 0.0;
    double blocked = 0.0;
    bool operator==(const Event&) const = default;
  };
  std::vector<Event> events;

  void on_store(const mach::Flag* f, int rank, std::uint64_t v,
                double t) override {
    events.push_back({'s', rank, f, v, t, 0.0});
  }
  void on_rmw(const mach::Flag* f, int rank, std::uint64_t v,
              double t) override {
    events.push_back({'m', rank, f, v, t, 0.0});
  }
  void on_observe(const mach::Flag* f, int rank, std::uint64_t v,
                  double t) override {
    events.push_back({'o', rank, f, v, t, 0.0});
  }
  void on_wait_enter(const mach::Flag* f, int rank,
                     std::uint64_t threshold) override {
    events.push_back({'e', rank, f, threshold, 0.0, 0.0});
  }
  void on_wait_resume(const mach::Flag* f, int rank, std::uint64_t threshold,
                      double t, double blocked) override {
    events.push_back({'r', rank, f, threshold, t, blocked});
  }
  void on_data(int rank, const void* p, std::size_t n, bool write) override {
    events.push_back({write ? 'W' : 'R', rank, p, n, 0.0, 0.0});
  }
};

/// xhc bcast + allreduce sweep on mini16 across the latency, pipelined and
/// large-message (RS+AG, striped) size classes: every rank's completion
/// time of every operation, then the machine's final virtual clock. The
/// buffers are allocated once, at the largest size, and outlive the sweep:
/// the smsc exposure and registration caches are keyed by address and
/// survive Machine::free, so a harness that frees and reallocates per size
/// would make the timings depend on which addresses the allocator reuses,
/// that is on the process's heap history rather than on the probes.
std::vector<double> probed_sweep(const std::vector<mach::Probe*>& probes,
                                 bool ledger) {
  constexpr int kRanks = 16;
  sim::SimMachine machine(topo::mini16(), kRanks);
  auto comp = coll::make_component("xhc", machine);
  if (ledger) machine.attach(&machine.verify_ledger());
  for (mach::Probe* p : probes) machine.attach(p);
  const std::vector<std::size_t> sizes{4, 1024, 65536, 262144};
  const std::size_t max_bytes = sizes.back();
  std::vector<mach::Buffer> bbuf;
  std::vector<mach::Buffer> sbuf;
  std::vector<mach::Buffer> rbuf;
  for (int r = 0; r < kRanks; ++r) {
    bbuf.emplace_back(machine, r, max_bytes);
    sbuf.emplace_back(machine, r, max_bytes);
    rbuf.emplace_back(machine, r, max_bytes);
  }
  std::vector<double> out;
  const auto record = [&out](const mach::RunResult& res) {
    out.insert(out.end(), res.rank_time.begin(), res.rank_time.end());
  };
  for (const std::size_t bytes : sizes) {
    record(machine.run([&](mach::Ctx& ctx) {
      const auto r = static_cast<std::size_t>(ctx.rank());
      if (r == 0) ctx.write_payload(bbuf[0].get(), bytes, bytes);
      comp->bcast(ctx, bbuf[r].get(), bytes, /*root=*/0);
    }));
    const std::size_t count = bytes / sizeof(float);
    record(machine.run([&](mach::Ctx& ctx) {
      const auto r = static_cast<std::size_t>(ctx.rank());
      ctx.write_payload(sbuf[r].get(), bytes, bytes + r);
      comp->allreduce(ctx, sbuf[r].get(), rbuf[r].get(), count,
                      mach::DType::kF32, mach::ROp::kSum);
    }));
  }
  out.push_back(machine.epoch());
  if (ledger) {
    EXPECT_GT(machine.verify_ledger().summary().stores_checked, 0u);
    EXPECT_EQ(machine.verify_ledger().summary().violations, 0u);
  }
  for (mach::Probe* p : probes) machine.detach(p);
  return out;
}

TEST(EngineProbes, AttachedProbesLeaveVirtualTimeBitIdentical) {
  const std::vector<double> bare = probed_sweep({}, /*ledger=*/false);
  obs::HistSet hists(16);
  obs::WaitFeed feed(&hists);
  EventLog log;
  const std::vector<double> probed = probed_sweep({&feed, &log}, true);
  ASSERT_EQ(bare.size(), probed.size());
  for (std::size_t i = 0; i < bare.size(); ++i) {
    EXPECT_EQ(bare[i], probed[i]) << "point " << i;  // exact, not near
  }
  EXPECT_GT(hists.merged(obs::HistKind::kFlagWait).count(), 0u);
  EXPECT_FALSE(log.events.empty());
}

TEST(EngineProbes, EveryProbeSeesTheSameEvents) {
  EventLog first;
  EventLog second;
  (void)probed_sweep({&first, &second}, /*ledger=*/false);
  EXPECT_GT(first.events.size(), 1000u);
  for (const char kind : {'s', 'e', 'r', 'R', 'W'}) {
    EXPECT_TRUE(std::any_of(
        first.events.begin(), first.events.end(),
        [&](const EventLog::Event& e) { return e.kind == kind; }))
        << "no '" << kind << "' event";
  }
  EXPECT_TRUE(first.events == second.events);
}

// 160 fibers on one host thread (armn1, the largest paper system): stacks,
// heap scheduling and payload movement all at full scale.
TEST(FiberStress, ArmN1FullScaleBcast) {
  const auto times = bcast_rank_times(topo::armn1(), 64 * 1024);
  ASSERT_EQ(times.size(), 160u);
  for (std::size_t r = 0; r < times.size(); ++r) {
    EXPECT_GT(times[r], 0.0) << "rank " << r;
  }
}

}  // namespace
}  // namespace xhc
