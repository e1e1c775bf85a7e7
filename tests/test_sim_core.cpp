// Unit tests for the simulator building blocks: the congestion ledger, the
// buffer cache model, the cache-line model, and the virtual-time scheduler.
#include <gtest/gtest.h>

#include <optional>

#include "sim/cache_model.h"
#include "sim/line_model.h"
#include "sim/params.h"
#include "sim/resources.h"
#include "sim/scheduler.h"
#include "topo/presets.h"
#include "util/check.h"

namespace xhc::sim {
namespace {

// ---------------------------------------------------------------------------
// ResourceLedger

TEST(Ledger, FullShareWhenIdle) {
  ResourceLedger ledger;
  ledger.set_capacity({ResKind::kNumaChannel, 0}, 100.0);
  EXPECT_DOUBLE_EQ(ledger.share({ResKind::kNumaChannel, 0}, 0.0), 100.0);
}

TEST(Ledger, FairShareWithInFlight) {
  ResourceLedger ledger;
  const ResId res{ResKind::kNumaChannel, 0};
  ledger.set_capacity(res, 100.0);
  ledger.book(res, 0.0, 10.0);
  ledger.book(res, 0.0, 10.0);
  EXPECT_DOUBLE_EQ(ledger.share(res, 5.0), 100.0 / 3.0);
  EXPECT_EQ(ledger.active(res, 5.0), 2);
}

TEST(Ledger, ExpiresFinishedTransfers) {
  ResourceLedger ledger;
  const ResId res{ResKind::kXSocketLink, 0};
  ledger.set_capacity(res, 50.0);
  ledger.book(res, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(ledger.share(res, 2.0), 50.0);
  EXPECT_EQ(ledger.active(res, 2.0), 0);
}

TEST(Ledger, DistinctResourcesIndependent) {
  ResourceLedger ledger;
  ledger.set_capacity({ResKind::kNumaChannel, 0}, 100.0);
  ledger.set_capacity({ResKind::kNumaChannel, 1}, 100.0);
  ledger.book({ResKind::kNumaChannel, 0}, 0.0, 10.0);
  EXPECT_DOUBLE_EQ(ledger.share({ResKind::kNumaChannel, 1}, 1.0), 100.0);
}

TEST(Ledger, UnknownResourceIsAnError) {
  ResourceLedger ledger;
  EXPECT_THROW(ledger.share({ResKind::kSlc, 0}, 0.0), util::Error);
}

// ---------------------------------------------------------------------------
// CacheModel

class CacheModelTest : public ::testing::Test {
 protected:
  CacheModelTest()
      : topo_(topo::epyc1p()), params_(epyc_like_params()),
        cache_(&topo_, &params_) {}
  topo::Topology topo_;
  SimParams params_;
  CacheModel cache_;
};

TEST_F(CacheModelTest, UnwrittenBlockServedFromHomeMemory) {
  cache_.add_block(1, 4096, /*home_numa=*/2);
  const ServeInfo info = cache_.on_read(1, /*reader_core=*/0, 4096);
  EXPECT_EQ(info.kind, ServeKind::kMemory);
  EXPECT_EQ(info.src_numa, 2);
  EXPECT_EQ(info.distance, topo::Distance::kCrossNuma);
}

TEST_F(CacheModelTest, ProducerLlcServesAfterWrite) {
  cache_.add_block(1, 4096, 0);
  cache_.on_write(1, /*writer_core=*/0);
  const ServeInfo info = cache_.on_read(1, /*reader_core=*/4, 4096);
  EXPECT_EQ(info.kind, ServeKind::kProducerLlc);
  EXPECT_EQ(info.src_llc, 0);
}

TEST_F(CacheModelTest, FullReadEstablishesLocalResidency) {
  cache_.add_block(1, 4096, 0);
  cache_.on_write(1, 0);
  (void)cache_.on_read(1, /*reader_core=*/8, 4096);  // full block
  const ServeInfo again = cache_.on_read(1, 8, 4096);
  EXPECT_EQ(again.kind, ServeKind::kLocalLlc);
}

TEST_F(CacheModelTest, PartialReadsDoNotGrantResidencyUntilCovered) {
  cache_.add_block(1, 64 * 1024, 0);
  cache_.on_write(1, 0);
  // Chunked pull: residency only after a block's worth of bytes moved.
  for (int i = 0; i < 3; ++i) {
    EXPECT_NE(cache_.on_read(1, 8, 16 * 1024).kind, ServeKind::kLocalLlc);
  }
  (void)cache_.on_read(1, 8, 16 * 1024);  // 64 KB total now
  EXPECT_EQ(cache_.on_read(1, 8, 16 * 1024).kind, ServeKind::kLocalLlc);
}

TEST_F(CacheModelTest, WriteInvalidatesResidency) {
  cache_.add_block(1, 4096, 0);
  cache_.on_write(1, 0);
  (void)cache_.on_read(1, 8, 4096);
  cache_.on_write(1, 0);  // new version
  EXPECT_NE(cache_.on_read(1, 8, 4096).kind, ServeKind::kLocalLlc);
  EXPECT_EQ(cache_.version(1), 2u);
}

TEST_F(CacheModelTest, LargeBlocksNeverCached) {
  // 4 MB does not fit an 8 MB LLC under the group-share rule.
  cache_.add_block(1, 4u << 20, 0);
  cache_.on_write(1, 0);
  const ServeInfo info = cache_.on_read(1, 1, 4u << 20);
  EXPECT_EQ(info.kind, ServeKind::kMemory);
  EXPECT_NE(cache_.on_read(1, 1, 4u << 20).kind, ServeKind::kLocalLlc);
}

TEST(CacheModelArm, SlcResidency) {
  topo::Topology arm = topo::armn1();
  SimParams params = armn1_params();
  CacheModel cache(&arm, &params);
  cache.add_block(1, 4096, 0);
  cache.on_write(1, 0);
  // First reader pulls it through; afterwards the SLC holds it for everyone.
  EXPECT_EQ(cache.on_read(1, 30, 4096).kind, ServeKind::kMemory);
  EXPECT_EQ(cache.on_read(1, 100, 4096).kind, ServeKind::kSlc);
  EXPECT_EQ(cache.on_read(1, 30, 4096).kind, ServeKind::kSlc);
}

// ---------------------------------------------------------------------------
// LineModel

/// Synthetic address on cache line `id` (the model keys on line_of(addr)).
const void* ln(int id) {
  return reinterpret_cast<const void*>(static_cast<std::uintptr_t>(id) * 64);
}

class LineModelTest : public ::testing::Test {
 protected:
  LineModelTest()
      : topo_(topo::epyc1p()), params_(epyc_like_params()),
        lines_(&topo_, &params_) {}
  topo::Topology topo_;
  SimParams params_;
  LineModel lines_;
};

TEST_F(LineModelTest, ColdReadIsLocalHit) {
  EXPECT_DOUBLE_EQ(lines_.read(ln(1), 0, 1.0), 1.0 + params_.line_hit);
}

TEST_F(LineModelTest, OwnerReadsOwnLineCheaply) {
  lines_.write(ln(1), 0, 0.0);
  EXPECT_DOUBLE_EQ(lines_.read(ln(1), 0, 1.0), 1.0 + params_.line_hit);
}

TEST_F(LineModelTest, GroupPeerAssist) {
  // After one core of an LLC group fetches a dirty line, its group peers
  // read at LLC latency (paper §V-D1's implicit hardware assist).
  lines_.write(ln(1), 0, 0.0);
  const double first = lines_.read(ln(1), /*core=*/8, 1.0);  // remote fetch
  EXPECT_GT(first - 1.0, params_.line_lat_llc);
  const double peer = lines_.read(ln(1), /*core=*/9, 1.0);  // 8, 9 share L3
  EXPECT_NEAR(peer - 1.0, params_.line_lat_llc, 1e-12);
}

TEST_F(LineModelTest, ConcurrentDirtyFetchesSerializeAtOwnerPort) {
  lines_.write(ln(1), 0, 0.0);
  lines_.write(ln(2), 0, 0.0);
  // Two different lines, both dirty at core 0: the second fetch queues
  // behind the first on core 0's port (Fig. 10, separated flags).
  const double a = lines_.read(ln(1), 8, 1.0);
  const double b = lines_.read(ln(2), 12, 1.0);
  EXPECT_GT(b, a);  // same issue time, but the second queued at the port
}

TEST_F(LineModelTest, RmwSerializesOwnership) {
  const double t1 = lines_.rmw(ln(1), 0, 0.0);
  const double t2 = lines_.rmw(ln(1), 4, 0.0);
  const double t3 = lines_.rmw(ln(1), 8, 0.0);
  EXPECT_GT(t2, t1);
  EXPECT_GT(t3, t2);
  EXPECT_GE(t3, 2 * params_.rmw_service);
}

TEST_F(LineModelTest, WriteInvalidatesSharers) {
  lines_.write(ln(1), 0, 0.0);
  (void)lines_.read(ln(1), 8, 1.0);
  // Re-write pays the invalidation premium.
  const double w = lines_.write(ln(1), 0, 2.0);
  EXPECT_DOUBLE_EQ(w, 2.0 + params_.store_cost + params_.inval_cost);
  // And the sharer must re-fetch.
  const double r = lines_.read(ln(1), 9, 3.0);
  EXPECT_GT(r - 3.0, params_.line_lat_llc);
}

TEST(LineModelArm, EveryCoreFetchesFromSlc) {
  topo::Topology arm = topo::armn1();
  SimParams params = armn1_params();
  LineModel lines(&arm, &params);
  lines.write(ln(1), 0, 0.0);
  (void)lines.read(ln(1), 10, 1.0);
  // No peer assist on the SLC machine: another core still pays the full
  // SLC fetch and serializes on the line.
  const double t2 = lines.read(ln(1), 11, 1.0);
  const double t3 = lines.read(ln(1), 12, 1.0);
  EXPECT_GE(t2 - 1.0, params.line_lat_numa - 1e-12);
  EXPECT_GT(t3, t2);
}

// ---------------------------------------------------------------------------
// VirtualScheduler

TEST(SchedulerTest, RunsMinimumTimeFirst) {
  auto sched = VirtualScheduler::create(2, 0.0);
  std::vector<int> order;
  sched->run([&](int r) {
    const double step = r == 0 ? 3.0 : 1.0;
    for (int i = 0; i < 3; ++i) {
      order.push_back(r);
      sched->advance(r, step);
    }
  });
  // Rank 1 advances in smaller steps, so after rank 0's first step the
  // scheduler must run rank 1 several times. Event order is deterministic:
  // 0(t=0) 1(0) 1(1) 1(2) then 0(3)...
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order[0], 0);  // tie at t=0 broken by rank: rank 0 first
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 1);
  EXPECT_EQ(order[3], 1);
}

TEST(SchedulerTest, WaitUntilResumesAtPredicateTime) {
  auto sched = VirtualScheduler::create(2, 0.0);
  std::optional<double> publish_time;
  double resumed_at = -1.0;
  sched->run([&](int r) {
    if (r == 0) {
      resumed_at =
          sched->wait_until(0, &publish_time, [&] { return publish_time; });
    } else {
      sched->advance(1, 5.0);
      publish_time = 7.0;
      sched->notify(&publish_time);
      sched->advance(1, 1.0);
    }
  });
  EXPECT_DOUBLE_EQ(resumed_at, 7.0);
}

TEST(SchedulerTest, DeadlockIsDetected) {
  auto sched = VirtualScheduler::create(2, 0.0);
  try {
    sched->run([&](int r) {
      int never = 0;
      sched->wait_until(r, &never,
                        []() -> std::optional<double> { return std::nullopt; });
    });
    FAIL() << "expected a deadlock report";
  } catch (const util::Error& e) {
    // The chronologically-first error is the deadlock report itself, not
    // the secondary aborts of the unwound peers.
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos)
        << e.what();
  }
}

TEST(SchedulerTest, DeadlockAfterFinishIsDetected) {
  // Rank 1 finishes while rank 0 is still parked on a never-signaled
  // channel: the finish-side pick must raise the deadlock report too.
  auto sched = VirtualScheduler::create(2, 0.0);
  try {
    sched->run([&](int r) {
      if (r == 0) {
        int never = 0;
        sched->wait_until(0, &never, []() -> std::optional<double> {
          return std::nullopt;
        });
      } else {
        sched->advance(1, 1.0);
      }
    });
    FAIL() << "expected a deadlock report";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos)
        << e.what();
  }
}

TEST(SchedulerTest, BarrierReleasesAtMaxArrival) {
  auto sched = VirtualScheduler::create(3, 0.0);
  std::vector<double> after(3);
  sched->run([&](int r) {
    const double pre[] = {1.0, 4.0, 2.0};
    sched->advance(r, pre[r]);
    sched->barrier(r, 0.5);
    after[static_cast<std::size_t>(r)] = sched->now(r);
  });
  for (const double t : after) EXPECT_DOUBLE_EQ(t, 4.5);
}

TEST(SchedulerTest, AbortUnblocksEveryone) {
  auto sched = VirtualScheduler::create(2, 0.0);
  int unwound = 0;
  EXPECT_THROW(sched->run([&](int r) {
                 if (r == 0) {
                   int never = 0;
                   try {
                     sched->wait_until(0, &never,
                                       []() -> std::optional<double> {
                                         return std::nullopt;
                                       });
                   } catch (...) {
                     ++unwound;
                     throw;
                   }
                 } else {
                   sched->abort_all();
                   ++unwound;
                 }
               }),
               util::Error);
  EXPECT_EQ(unwound, 2);
}

TEST(SchedulerTest, RankExceptionAbortsAndRethrows) {
  auto sched = VirtualScheduler::create(3, 0.0);
  try {
    sched->run([&](int r) {
      if (r == 1) throw util::Error("boom from rank 1");
      int never = 0;
      sched->wait_until(r, &never,
                        []() -> std::optional<double> { return std::nullopt; });
    });
    FAIL() << "expected the rank exception";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos)
        << e.what();
  }
}

TEST(SchedulerTest, ManyRanksHeapOrdering) {
  // Staggered advances over enough ranks to exercise real heap reshuffles:
  // rank r repeatedly advances by (r % 7) + 1; the global event sequence
  // must follow the (vtime, rank) total order.
  constexpr int kN = 64;
  auto sched = VirtualScheduler::create(kN, 0.0);
  std::vector<std::pair<double, int>> events;
  sched->run([&](int r) {
    for (int i = 0; i < 8; ++i) {
      events.emplace_back(sched->now(r), r);
      sched->advance(r, static_cast<double>(r % 7 + 1));
    }
  });
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kN * 8));
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1], events[i])
        << "out-of-order events at index " << i;
  }
}

}  // namespace
}  // namespace xhc::sim
