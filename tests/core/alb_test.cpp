// Access Lookaside Buffer regression suite (ISSUE 5 tentpole): a hit
// must NEVER serve state the protocol has withdrawn. Each test drives
// one invalidation route between two accesses of the same object on the
// same thread — exactly the shape where a stale cached (id -> pointer)
// entry would be returned — and asserts the second access went back
// through the locked path (slow_path_checks) and observed fresh state.
#include <gtest/gtest.h>

#include <vector>

#include "core/api.hpp"

namespace lots::core {
namespace {

TEST(Alb, RepeatAccessesHitAndSkipTheShardLock) {
  Config c;
  c.nprocs = 1;
  Runtime rt(c);
  rt.run([](int) {
    Pointer<int> a;
    a.alloc(1024);
    a[0] = 7;  // slow path: map + twin; populates the ALB entry
    auto& node = Runtime::self();
    const uint64_t locks0 = node.stats().shard_lock_acquires.load();
    const uint64_t hits0 = node.stats().alb_hits.load();
    for (int i = 0; i < 100; ++i) ASSERT_EQ(a[0], 7);
    EXPECT_GE(node.stats().alb_hits.load(), hits0 + 100);
    EXPECT_EQ(node.stats().shard_lock_acquires.load(), locks0);
  });
}

TEST(Alb, DisabledConfigNeverHits) {
  Config c;
  c.nprocs = 1;
  c.alb = false;
  Runtime rt(c);
  rt.run([](int) {
    Pointer<int> a;
    a.alloc(64);
    a[0] = 1;
    for (int i = 0; i < 10; ++i) ASSERT_EQ(a[0], 1);
    EXPECT_EQ(Runtime::self().stats().alb_hits.load(), 0u);
  });
}

TEST(Alb, ForceSwapOutBetweenAccessesDefeatsTheCachedHit) {
  // Same interval (no sync in between): only the shard generation bump
  // can defeat the entry. The freed DMM block is re-occupied by a filler
  // object and overwritten, so a stale pointer would read garbage.
  Config c;
  c.nprocs = 1;
  Runtime rt(c);
  rt.run([](int) {
    Pointer<int> a;
    a.alloc(1024);
    a[0] = 7;
    ASSERT_EQ(a[0], 7);  // cached hit
    auto& node = Runtime::self();
    const uint64_t slow0 = node.stats().slow_path_checks.load();
    node.force_swap_out(a.id());
    ASSERT_FALSE(node.is_mapped(a.id()));
    Pointer<int> filler;  // same size: first-fit lands on a's old block
    filler.alloc(1024);
    for (int i = 0; i < 1024; ++i) filler[static_cast<size_t>(i)] = -1;
    ASSERT_EQ(a[0], 7) << "stale ALB hit served a dead mapping";
    EXPECT_GT(node.stats().slow_path_checks.load(), slow0)
        << "the re-access never went back through the locked path";
    EXPECT_TRUE(node.is_mapped(a.id()));
  });
}

TEST(Alb, RemoteInvalidationBetweenAccessesDefeatsTheCachedHit) {
  // Barrier write-invalidate: rank 1 caches a hit on its copy, rank 0
  // overwrites, the barrier invalidates rank 1's copy. The next access
  // must refetch — a stale hit would read the old value.
  Config c;
  c.nprocs = 2;
  Runtime rt(c);
  rt.run([](int rank) {
    Pointer<int> v;
    v.alloc(64);
    if (rank == 0) v[0] = 1;
    lots::barrier();
    ASSERT_EQ(v[0], 1);  // both ranks warm (rank 1 fetches + caches)
    ASSERT_EQ(v[0], 1);  // cached hit on rank 1
    lots::barrier();
    if (rank == 0) v[0] = 2;
    lots::barrier();
    ASSERT_EQ(v[0], 2) << "rank " << rank << " read an invalidated copy";
    lots::barrier();
  });
  NodeStats total;
  rt.aggregate_stats(total);
  EXPECT_GT(total.alb_hits.load(), 0u);
  EXPECT_GT(total.invalidations.load(), 0u);
}

TEST(Alb, LockChainUpdatesAreNeverMaskedByCachedHits) {
  // Homeless write-update under locks: every acquire bumps the interval
  // epoch, flushing the whole ALB, so a critical-section read sees the
  // grant's chain even though the object was cached moments before.
  Config c;
  c.nprocs = 2;
  Runtime rt(c);
  constexpr int kRounds = 20;
  rt.run([](int) {
    Pointer<int> counter;
    counter.alloc(16);
    lots::barrier();
    for (int round = 0; round < kRounds; ++round) {
      lots::acquire(3);
      counter[0] = counter[0] + 1;
      lots::release(3);
      // Unsynchronized repeat reads between sections: hit fodder.
      (void)counter[0];
      (void)counter[0];
    }
    lots::barrier();
    ASSERT_EQ(counter[0], 2 * kRounds);
    lots::barrier();
  });
}

TEST(Alb, EvictionDefeatsTheCachedHit) {
  // Capacity eviction (not a forced swap-out): pressure objects push the
  // cached one out of the DMM; the next access must remap it.
  Config c;
  c.nprocs = 1;
  c.dmm_bytes = 512u << 10;
  Runtime rt(c);
  rt.run([](int) {
    auto& node = Runtime::self();
    Pointer<int> a;
    a.alloc(32 * 1024);  // 128 KB
    a[0] = 13;
    ASSERT_EQ(a[0], 13);  // cached
    // 8 pressure objects of 128 KB against a 512 KB window: a must go.
    std::vector<Pointer<int>> pressure(8);
    for (auto& p : pressure) p.alloc(32 * 1024);
    for (auto& p : pressure) {
      for (int i = 0; i < 32 * 1024; i += 1024) p[static_cast<size_t>(i)] = i;
    }
    ASSERT_FALSE(node.is_mapped(a.id())) << "pressure never evicted the victim";
    const uint64_t slow0 = node.stats().slow_path_checks.load();
    ASSERT_EQ(a[0], 13) << "stale ALB hit served an evicted object";
    EXPECT_GT(node.stats().slow_path_checks.load(), slow0);
  });
}

TEST(Alb, HitsMaintainTheStatementPinRing) {
  // The eviction hard-pin guarantee must survive lock-free hits: an ALB
  // hit re-pins its object in the thread's stmt_pin ring. Geometry: A,
  // C1, C2 are 96 KB each against a 272 KB DMM (any two fit, three do
  // not); eight 4 KB b-objects roll A out of the 8-slot ring, then an
  // ALB hit on A re-pins it. Mapping C2 then finds A (the only mapped,
  // unpinned-by-recency candidate) statement-pinned -> the documented
  // "cannot evict" UsageError. The control run below, identical except
  // for the re-pinning hit, evicts A and succeeds.
  auto run_case = [](bool repin_a) {
    Config c;
    c.nprocs = 1;
    c.dmm_bytes = 272u << 10;
    bool threw = false;
    Runtime rt(c);
    rt.run([&](int) {
      auto& node = Runtime::self();
      Pointer<int> a;
      a.alloc(24 * 1024);  // 96 KB
      a[0] = 5;
      std::vector<Pointer<int>> b(8);
      for (auto& p : b) {
        p.alloc(1024);  // 4 KB
        p[0] = 1;       // pins p, rolling A out of the ring
        node.force_swap_out(p.id());
      }
      if (repin_a) {
        ASSERT_EQ(a[0], 5);  // ALB hit: must re-pin A
      }
      Pointer<int> c1, c2;
      c1.alloc(24 * 1024);
      c1[0] = 1;
      c2.alloc(24 * 1024);
      try {
        c2[0] = 1;  // needs 96 KB: must evict A or fail on A's pin
      } catch (const UsageError& e) {
        threw = true;
      }
      if (!repin_a) {
        EXPECT_FALSE(threw) << "control: unpinned A should have been evicted";
        EXPECT_FALSE(node.is_mapped(a.id()));
      }
    });
    return threw;
  };
  EXPECT_TRUE(run_case(/*repin_a=*/true))
      << "an ALB hit failed to hard-pin its object against eviction";
  EXPECT_FALSE(run_case(/*repin_a=*/false));
}

TEST(Alb, OnlyAOneAppThreadNodeDropsTheHitFence) {
  // With one app thread the evictor is the only thread that pins, so its
  // hits pay a compiler fence (a seq_cst fence is a third to a half of a
  // hit). A node with siblings must keep the fence pair.
  for (const int threads : {1, 2}) {
    Config c;
    c.nprocs = 2;
    c.threads_per_node = threads;
    Runtime rt(c);
    for (int r = 0; r < 2; ++r) {
      EXPECT_EQ(rt.node(r).one_app_thread(), threads == 1) << threads << " threads, rank " << r;
    }
  }
}

TEST(Alb, PendingLandingDefeatsTheCachedHit) {
  // kWriteInvalidateOnly lock mode: a release pushes updates to the
  // object's home while the holder's siblings may have it cached; the
  // notice invalidation (and any pending landing) bumps the generation.
  Config c;
  c.nprocs = 2;
  c.protocol = ProtocolMode::kWriteInvalidateOnly;
  Runtime rt(c);
  rt.run([](int rank) {
    Pointer<int> v;
    v.alloc(64);
    lots::barrier();
    for (int round = 0; round < 10; ++round) {
      lots::acquire(1);
      v[0] = v[0] + 1;
      lots::release(1);
    }
    lots::barrier();
    ASSERT_EQ(v[0], 20) << "rank " << rank;
    lots::barrier();
  });
}

}  // namespace
}  // namespace lots::core
