// Machine-level contract of the virtual-time engine: identical runs must
// produce bit-identical per-rank completion timestamps, a 160-rank run must
// fit on one host thread, and a deadlock must surface through SimMachine
// with a readable report. The scheduler-level unit tests live in
// test_sim_core.cpp; these exercise the full machine + collective stack.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "coll/registry.h"
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
