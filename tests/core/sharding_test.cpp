// Concurrency semantics of the striped object directory: the app and
// service threads of one node work on disjoint objects without
// serializing behind a whole-node lock, and nothing is lost when they
// overlap.
#include <gtest/gtest.h>

#include <thread>

#include "core/api.hpp"

namespace lots::core {
namespace {

Config shard_cfg(int nprocs) {
  Config c;
  c.nprocs = nprocs;
  c.dmm_bytes = 8u << 20;
  return c;
}

TEST(Sharding, ConfigControlsStripeCount) {
  Runtime rt(shard_cfg(1));
  EXPECT_EQ(rt.node(0).directory().shard_count(), ObjectDirectory::kDefaultShards);
}

TEST(Sharding, ShardLockAcquisitionsAreCounted) {
  // With the ALB disabled, every access check takes exactly one stripe
  // lock; with it enabled (the default), repeat accesses hit the
  // lookaside buffer and skip the lock entirely.
  Config locked = shard_cfg(1);
  locked.alb = false;
  Runtime rt(locked);
  rt.run([](int) {
    Pointer<int> a;
    a.alloc(64);
    a[0] = 1;
    a[1] = 2;
    a[2] = 3;
  });
  EXPECT_GE(rt.node(0).stats().shard_lock_acquires.load(), 3u);
  EXPECT_EQ(rt.node(0).stats().alb_hits.load(), 0u);

  Runtime rt_alb(shard_cfg(1));
  rt_alb.run([](int) {
    Pointer<int> a;
    a.alloc(64);
    a[0] = 1;
    a[1] = 2;
    a[2] = 3;
  });
  EXPECT_GE(rt_alb.node(0).stats().alb_hits.load(), 2u);
  EXPECT_LT(rt_alb.node(0).stats().shard_lock_acquires.load(),
            rt.node(0).stats().shard_lock_acquires.load());
}

TEST(Sharding, DirectoryStripesSpreadObjects) {
  ObjectDirectory d(8);
  for (int i = 0; i < 64; ++i) d.create(8, 0);
  // Sequential ids round-robin across stripes, so every stripe holds
  // some objects.
  bool all_spread = true;
  for (ObjectId id = 1; id <= 8; ++id) {
    all_spread = all_spread && d.shard_of(id) != d.shard_of(id + 1);
  }
  EXPECT_TRUE(all_spread);
  EXPECT_EQ(d.count(), 64u);
}

// The hammer: every rank writes its own object of set A while reading
// (and therefore remotely fetching) the other ranks' objects of set B
// written in the previous round, alternating sets each round. The
// cross-reads land as kObjFetch work on the writers' service threads
// while their app threads are mid-write on DISJOINT objects — exactly
// the app/service overlap the striped directory exists for. Any lost
// update or torn read fails the value assertions.
TEST(Sharding, FetchWhileAccessingDisjointObjectsStriped) {
  constexpr int kProcs = 4;
  constexpr int kInts = 2048;  // 8 KB per object
  constexpr int kRounds = 6;
  Runtime rt(shard_cfg(kProcs));
  rt.run([&](int rank) {
    std::vector<Pointer<int>> a(kProcs), b(kProcs);
    for (auto& p : a) p.alloc(kInts);
    for (auto& p : b) p.alloc(kInts);
    lots::barrier();
    // Round 0 seeds both sets.
    for (int i = 0; i < kInts; ++i) {
      a[static_cast<size_t>(rank)][static_cast<size_t>(i)] = rank * 1000000 + i;
      b[static_cast<size_t>(rank)][static_cast<size_t>(i)] = rank * 1000000 + i;
    }
    lots::barrier();
    for (int round = 1; round <= kRounds; ++round) {
      auto& cur = (round % 2 == 0) ? a : b;
      auto& prev = (round % 2 == 0) ? b : a;
      const int prev_round = round - 1;
      const int prev_stamp = prev_round <= 0 ? 0 : prev_round;
      // Interleave local writes (app thread, cur set) with remote reads
      // (prev set -> fetches served by peers' service threads).
      for (int i = 0; i < kInts; ++i) {
        cur[static_cast<size_t>(rank)][static_cast<size_t>(i)] =
            rank * 1000000 + round * 10000 + i % 97;
        if (i % 16 == 0) {
          const int peer = (rank + 1 + i / 16) % kProcs;
          const int expect = prev_stamp == 0 ? peer * 1000000 + i
                                             : peer * 1000000 + prev_stamp * 10000 + i % 97;
          ASSERT_EQ(prev[static_cast<size_t>(peer)][static_cast<size_t>(i)], expect)
              << "lost update: round " << round << " peer " << peer << " idx " << i;
        }
      }
      lots::barrier();
    }
    // Final cross-check of the last round's writes from every node.
    auto& last = (kRounds % 2 == 0) ? a : b;
    for (int r = 0; r < kProcs; ++r) {
      for (int i = 0; i < kInts; i += 13) {
        ASSERT_EQ(last[static_cast<size_t>(r)][static_cast<size_t>(i)],
                  r * 1000000 + kRounds * 10000 + i % 97);
      }
    }
    lots::barrier();
  });
}

TEST(Sharding, LockTrafficOverlapsAccessChecks) {
  // Lock-grant application (app thread, per-record shard locks) racing
  // the migratory counter against plain barrier-coherent writes.
  Runtime rt(shard_cfg(4));
  rt.run([](int rank) {
    Pointer<int> counter, local;
    counter.alloc(16);
    local.alloc(4096);
    lots::barrier();
    for (int round = 0; round < 20; ++round) {
      lots::acquire(11);
      for (int i = 0; i < 16; ++i) counter[i] = counter[i] + 1;
      lots::release(11);
      for (int i = 0; i < 4096; i += 31) {
        local[static_cast<size_t>(i)] = rank * 100 + round;
      }
    }
    lots::barrier();
    for (int i = 0; i < 16; ++i) ASSERT_EQ(counter[i], 80);
  });
}

TEST(Sharding, LocalWritesStayCoalescedAcrossManyIntervals) {
  // N lock intervals on one object must not grow what the node keeps of
  // its writes by N records: every release flush marks the same bitmap
  // slot (one bit per word), so lock-heavy programs cannot balloon
  // memory between barriers.
  Runtime rt(shard_cfg(2));
  rt.run([](int rank) {
    Pointer<int> x;
    x.alloc(256);
    lots::barrier();
    auto marks = [&] {
      Node& n = Runtime::self();
      auto lk = n.directory().lock_shard(x.id());
      return n.directory().get(x.id()).marks;
    };
    size_t first_slot = ObjectMeta::kNoMarks;
    for (int round = 0; round < 30; ++round) {
      lots::acquire(3);
      if (rank == 0) {
        for (int i = 0; i < 256; ++i) x[i] = round * 1000 + i;
      }
      lots::release(3);
      if (rank == 0 && round == 0) first_slot = marks();
    }
    if (rank == 0) {
      EXPECT_NE(first_slot, ObjectMeta::kNoMarks) << "a release must mark what it wrote";
      EXPECT_EQ(marks(), first_slot) << "every interval must reuse the object's one mark slot";
    }
    lots::barrier();
    for (int i = 0; i < 256; ++i) ASSERT_EQ(x[i], 29 * 1000 + i);
  });
}

TEST(Sharding, BarrierDiffTrafficIsBatchedPerPeer) {
  // Acceptance: phase-2 diff delivery coalesces every record owed to a
  // peer into one kDiffBatch message per sync operation. Two writers on
  // disjoint halves of MANY objects -> each writer owes the home one
  // batch, regardless of the object count.
  Runtime rt(shard_cfg(2));
  rt.run([](int rank) {
    constexpr int kObjs = 24;
    std::vector<Pointer<int>> objs(kObjs);
    for (auto& o : objs) o.alloc(64);
    // Both ranks write every object: all objects become multi-writer, so
    // every non-home writer pushes diffs at the barrier.
    for (int k = 0; k < kObjs; ++k) {
      for (int i = 0; i < 32; ++i) {
        objs[static_cast<size_t>(k)][static_cast<size_t>(rank == 0 ? i : 63 - i)] =
            rank * 500 + k;
      }
    }
    lots::barrier();
    lots::barrier();
  });
  NodeStats total;
  rt.aggregate_stats(total);
  const uint64_t batches = total.diff_batch_msgs.load();
  const uint64_t records = total.diff_records_batched.load();
  EXPECT_GT(records, 0u);
  // 24 modified objects per writer, but each writer sent at most one
  // batch per peer per barrier (2 nodes, 2 memory barriers).
  EXPECT_LE(batches, 4u) << "diff traffic not batched per peer";
  EXPECT_GE(records, batches) << "batches must carry the per-object records";
}

}  // namespace
}  // namespace lots::core
