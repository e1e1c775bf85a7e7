// Tests for the pt2pt fabric: eager and rendezvous protocols, in-order tag
// matching, fragmentation, sendrecv exchanges, and traffic accounting.
#include <gtest/gtest.h>

#include <cstring>

#include "mach/real_machine.h"
#include "p2p/fabric.h"
#include "sim/sim_machine.h"
#include "topo/presets.h"
#include "util/check.h"
#include "util/prng.h"

namespace xhc::p2p {
namespace {

void fill(void* p, std::size_t n, std::uint64_t seed) {
  util::fill_pattern(p, n, seed);
}

bool same(const void* a, const void* b, std::size_t n) {
  return std::memcmp(a, b, n) == 0;
}

class FabricTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FabricTest, SendRecvRoundTripReal) {
  const std::size_t bytes = GetParam();
  mach::RealMachine m(topo::mini8(), 2);
  Fabric fabric(m, {});
  mach::Buffer src(m, 0, bytes);
  mach::Buffer dst(m, 1, bytes);
  fill(src.get(), bytes, 9);
  m.run([&](mach::Ctx& ctx) {
    if (ctx.rank() == 0) {
      fabric.send(ctx, 1, 42, src.get(), bytes);
    } else {
      fabric.recv(ctx, 0, 42, dst.get(), bytes);
    }
  });
  EXPECT_TRUE(same(src.get(), dst.get(), bytes));
}

TEST_P(FabricTest, SendRecvRoundTripSim) {
  const std::size_t bytes = GetParam();
  sim::SimMachine m(topo::mini8(), 2);
  m.attach(&m.verify_ledger());
  Fabric fabric(m, {});
  mach::Buffer src(m, 0, bytes);
  mach::Buffer dst(m, 1, bytes);
  fill(src.get(), bytes, 11);
  m.run([&](mach::Ctx& ctx) {
    if (ctx.rank() == 0) {
      fabric.send(ctx, 1, 7, src.get(), bytes);
    } else {
      fabric.recv(ctx, 0, 7, dst.get(), bytes);
    }
  });
  EXPECT_TRUE(same(src.get(), dst.get(), bytes));
}

// Cover eager (< 4 KB), the eager/rendezvous boundary, rendezvous, and the
// CICO fragmentation path sizes.
INSTANTIATE_TEST_SUITE_P(Sizes, FabricTest,
                         ::testing::Values(1, 64, 4096, 4097, 65536,
                                           1u << 20));

TEST(Fabric, BackToBackMessagesStayOrdered) {
  mach::RealMachine m(topo::mini8(), 2);
  Fabric fabric(m, {});
  constexpr int kMessages = 64;  // exceeds the ring depth several times
  std::vector<mach::Buffer> out;
  std::vector<mach::Buffer> in;
  for (int i = 0; i < kMessages; ++i) {
    out.emplace_back(m, 0, 128);
    in.emplace_back(m, 1, 128);
    fill(out.back().get(), 128, static_cast<std::uint64_t>(i));
  }
  m.run([&](mach::Ctx& ctx) {
    for (int i = 0; i < kMessages; ++i) {
      if (ctx.rank() == 0) {
        fabric.send(ctx, 1, i, out[static_cast<std::size_t>(i)].get(), 128);
      } else {
        fabric.recv(ctx, 0, i, in[static_cast<std::size_t>(i)].get(), 128);
      }
    }
  });
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_TRUE(same(out[static_cast<std::size_t>(i)].get(),
                     in[static_cast<std::size_t>(i)].get(), 128))
        << "message " << i;
  }
}

TEST(Fabric, CicoMechanismFragmentsLargeMessages) {
  sim::SimMachine m(topo::mini8(), 2);
  m.attach(&m.verify_ledger());
  Fabric::Config cfg;
  cfg.mechanism = smsc::Mechanism::kCico;
  Fabric fabric(m, cfg);
  constexpr std::size_t kBytes = 200 * 1024;  // far above one ring
  mach::Buffer src(m, 0, kBytes);
  mach::Buffer dst(m, 1, kBytes);
  fill(src.get(), kBytes, 5);
  m.run([&](mach::Ctx& ctx) {
    if (ctx.rank() == 0) {
      fabric.send(ctx, 1, 3, src.get(), kBytes);
    } else {
      fabric.recv(ctx, 0, 3, dst.get(), kBytes);
    }
  });
  EXPECT_TRUE(same(src.get(), dst.get(), kBytes));
}

TEST(Fabric, SendRecvExchangeDoesNotDeadlock) {
  for (const std::size_t bytes : {std::size_t{256}, std::size_t{1} << 20}) {
    mach::RealMachine m(topo::mini8(), 2);
    Fabric fabric(m, {});
    mach::Buffer a_out(m, 0, bytes);
    mach::Buffer a_in(m, 0, bytes);
    mach::Buffer b_out(m, 1, bytes);
    mach::Buffer b_in(m, 1, bytes);
    fill(a_out.get(), bytes, 1);
    fill(b_out.get(), bytes, 2);
    m.run([&](mach::Ctx& ctx) {
      if (ctx.rank() == 0) {
        fabric.sendrecv(ctx, 1, a_out.get(), bytes, 1, a_in.get(), bytes, 9);
      } else {
        fabric.sendrecv(ctx, 0, b_out.get(), bytes, 0, b_in.get(), bytes, 9);
      }
    });
    EXPECT_TRUE(same(a_in.get(), b_out.get(), bytes));
    EXPECT_TRUE(same(b_in.get(), a_out.get(), bytes));
  }
}

TEST(Fabric, SendRecvExchangeCicoInterleaves) {
  // Both sides stream > ring capacity simultaneously; the interleaved
  // fragment schedule must not deadlock on the bounded rings.
  sim::SimMachine m(topo::mini8(), 2);
  m.attach(&m.verify_ledger());
  Fabric::Config cfg;
  cfg.mechanism = smsc::Mechanism::kCico;
  Fabric fabric(m, cfg);
  constexpr std::size_t kBytes = 256 * 1024;
  mach::Buffer a_out(m, 0, kBytes);
  mach::Buffer a_in(m, 0, kBytes);
  mach::Buffer b_out(m, 1, kBytes);
  mach::Buffer b_in(m, 1, kBytes);
  fill(a_out.get(), kBytes, 1);
  fill(b_out.get(), kBytes, 2);
  m.run([&](mach::Ctx& ctx) {
    if (ctx.rank() == 0) {
      fabric.sendrecv(ctx, 1, a_out.get(), kBytes, 1, a_in.get(), kBytes, 4);
    } else {
      fabric.sendrecv(ctx, 0, b_out.get(), kBytes, 0, b_in.get(), kBytes, 4);
    }
  });
  EXPECT_TRUE(same(a_in.get(), b_out.get(), kBytes));
  EXPECT_TRUE(same(b_in.get(), a_out.get(), kBytes));
}

TEST(Fabric, TagMismatchIsDetected) {
  mach::RealMachine m(topo::mini8(), 2);
  Fabric fabric(m, {});
  mach::Buffer src(m, 0, 64);
  mach::Buffer dst(m, 1, 64);
  EXPECT_THROW(m.run([&](mach::Ctx& ctx) {
    if (ctx.rank() == 0) {
      fabric.send(ctx, 1, 1, src.get(), 64);
    } else {
      fabric.recv(ctx, 0, 2, dst.get(), 64);  // wrong tag
    }
  }),
               util::Error);
}

TEST(Fabric, SelfSendRejected) {
  mach::RealMachine m(topo::mini8(), 2);
  Fabric fabric(m, {});
  mach::Buffer buf(m, 0, 64);
  EXPECT_THROW(m.run([&](mach::Ctx& ctx) {
    if (ctx.rank() == 0) fabric.send(ctx, 0, 0, buf.get(), 64);
  }),
               util::Error);
}

TEST(Fabric, CountersClassifyDistance) {
  sim::SimMachine m(topo::epyc2p(), 64);
  m.attach(&m.verify_ledger());
  Fabric fabric(m, {});
  mach::Buffer b0(m, 0, 64);
  mach::Buffer b1(m, 1, 64);
  mach::Buffer b8(m, 8, 64);
  mach::Buffer b32(m, 32, 64);
  m.run([&](mach::Ctx& ctx) {
    switch (ctx.rank()) {
      case 0:
        fabric.send(ctx, 1, 0, b0.get(), 64);   // intra-NUMA
        fabric.send(ctx, 8, 1, b0.get(), 64);   // cross-NUMA
        fabric.send(ctx, 32, 2, b0.get(), 64);  // cross-socket
        break;
      case 1:
        fabric.recv(ctx, 0, 0, b1.get(), 64);
        break;
      case 8:
        fabric.recv(ctx, 0, 1, b8.get(), 64);
        break;
      case 32:
        fabric.recv(ctx, 0, 2, b32.get(), 64);
        break;
      default:
        break;
    }
  });
  EXPECT_EQ(fabric.counters().intra_numa(), 1u);
  EXPECT_EQ(fabric.counters().inter_numa(), 1u);
  EXPECT_EQ(fabric.counters().inter_socket(), 1u);
  EXPECT_EQ(fabric.counters().total(), 3u);
}

TEST(Fabric, RendezvousUsesRegistrationCache) {
  // Repeated large sends of the same buffer should get cheaper after the
  // first (mapping reuse) — observable through virtual time.
  sim::SimMachine m(topo::mini8(), 2);
  m.attach(&m.verify_ledger());
  Fabric fabric(m, {});
  constexpr std::size_t kBytes = 1 << 20;
  mach::Buffer src(m, 0, kBytes);
  mach::Buffer dst(m, 1, kBytes);
  std::vector<double> durations;
  m.run([&](mach::Ctx& ctx) {
    for (int i = 0; i < 2; ++i) {
      ctx.barrier();
      const double t0 = ctx.now();
      if (ctx.rank() == 0) {
        fabric.send(ctx, 1, i, src.get(), kBytes);
      } else {
        fabric.recv(ctx, 0, i, dst.get(), kBytes);
        durations.push_back(ctx.now() - t0);
      }
    }
  });
  ASSERT_EQ(durations.size(), 2u);
  EXPECT_LT(durations[1], durations[0]);
}

TEST(TrafficCounter, ClassifiesRecordsByDistanceAndResets) {
  // epyc2p: 2 sockets x 4 NUMA x 8 cores; kCore maps rank r to core r, so
  // ranks 0/1 share a NUMA node, 0/8 share only the socket, and 0/32 sit on
  // different sockets — one pair per topo::Distance class.
  topo::Topology topo = topo::epyc2p();
  topo::RankMap map(topo, topo.n_cores(), topo::MapPolicy::kCore);
  TrafficCounter counter(&topo, &map);

  ASSERT_EQ(map.distance(topo, 0, 1), topo::Distance::kLlcLocal);
  ASSERT_EQ(map.distance(topo, 0, 4), topo::Distance::kIntraNuma);
  ASSERT_EQ(map.distance(topo, 0, 8), topo::Distance::kCrossNuma);
  ASSERT_EQ(map.distance(topo, 0, 32), topo::Distance::kCrossSocket);

  counter.record(0, 1);  // LLC-local and intra-NUMA share one bucket
  counter.record(4, 0);  // direction must not matter
  counter.record(0, 8);
  counter.record(0, 32);
  counter.record(32, 0);
  counter.record(63, 0);
  EXPECT_EQ(counter.intra_numa(), 2u);
  EXPECT_EQ(counter.inter_numa(), 1u);
  EXPECT_EQ(counter.inter_socket(), 3u);
  EXPECT_EQ(counter.total(), 6u);

  counter.reset();
  EXPECT_EQ(counter.intra_numa(), 0u);
  EXPECT_EQ(counter.inter_numa(), 0u);
  EXPECT_EQ(counter.inter_socket(), 0u);
  EXPECT_EQ(counter.total(), 0u);

  counter.record(0, 8);  // counting resumes cleanly after a reset
  EXPECT_EQ(counter.inter_numa(), 1u);
  EXPECT_EQ(counter.total(), 1u);
}

}  // namespace
}  // namespace xhc::p2p
