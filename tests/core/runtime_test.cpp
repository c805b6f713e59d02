// Runtime mechanics: allocation, the access check, the dynamic memory
// mapper (swap in/out, eviction, pinning), LOTS-x mode, Pointer API.
#include "core/runtime.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <stdexcept>

#include "core/api.hpp"

namespace lots::core {
namespace {

Config small_config(int nprocs = 1) {
  Config c;
  c.nprocs = nprocs;
  c.dmm_bytes = 1u << 20;  // 1 MB DMM: eviction kicks in quickly
  return c;
}

TEST(RuntimeBasics, SingleNodeAllocAndAccess) {
  Runtime rt(small_config());
  rt.run([](int) {
    Pointer<int> a;
    a.alloc(100);
    for (int i = 0; i < 100; ++i) a[i] = i * i;
    for (int i = 0; i < 100; ++i) ASSERT_EQ(a[i], i * i);
    EXPECT_EQ(a.size(), 100u);
  });
}

TEST(RuntimeBasics, ObjectIdsAreDeterministicAcrossNodes) {
  Runtime rt(small_config(4));
  std::array<std::array<ObjectId, 3>, 4> ids{};
  rt.run([&](int rank) {
    for (int k = 0; k < 3; ++k) {
      Pointer<double> p;
      p.alloc(10);
      ids[static_cast<size_t>(rank)][static_cast<size_t>(k)] = p.id();
    }
  });
  for (int r = 1; r < 4; ++r) EXPECT_EQ(ids[static_cast<size_t>(r)], ids[0]);
}

TEST(RuntimeBasics, RoundRobinInitialHomes) {
  Runtime rt(small_config(4));
  rt.run([&](int rank) {
    Pointer<int> a, b, c;
    a.alloc(4);
    b.alloc(4);
    c.alloc(4);
    if (rank == 0) {
      Node& n = Runtime::self();
      EXPECT_EQ(n.home_of(a.id()), static_cast<int32_t>(a.id() % 4));
      EXPECT_EQ(n.home_of(b.id()), static_cast<int32_t>(b.id() % 4));
      EXPECT_EQ(n.home_of(c.id()), static_cast<int32_t>(c.id() % 4));
    }
  });
}

TEST(RuntimeBasics, PointerArithmetic) {
  // Paper §3.3: *(a+4) = 1 is valid LOTS code.
  Runtime rt(small_config());
  rt.run([](int) {
    Pointer<int> a;
    a.alloc(10);
    *(a + 4) = 1;
    *(a + 9) = 99;
    EXPECT_EQ(a[4], 1);
    EXPECT_EQ(a[9], 99);
    auto p = a + 2;
    p[3] = 7;  // a[5]
    EXPECT_EQ(a[5], 7);
    auto q = (a + 8) - 3;
    EXPECT_EQ(q.offset(), 5);
    *q = 11;
    EXPECT_EQ(a[5], 11);
  });
}

TEST(RuntimeBasics, PointerIsFourBytes) {
  EXPECT_EQ(sizeof(Pointer<int>), 4u);
  EXPECT_EQ(sizeof(Pointer<double>), 4u);
}

TEST(RuntimeBasics, AccessCheckCountsFastAndSlow) {
  Runtime rt(small_config());
  rt.run([&](int) {
    Pointer<int> a;
    a.alloc(8);
    a[0] = 1;  // slow (first touch)
    a[1] = 2;  // fast
    a[2] = 3;  // fast
    Node& n = Runtime::self();
    EXPECT_GE(n.stats().access_checks.load(), 3u);
    EXPECT_EQ(n.stats().slow_path_checks.load(), 1u);
  });
}

TEST(Mapper, SwapOutAndBackPreservesData) {
  Runtime rt(small_config());
  rt.run([](int) {
    Pointer<int> a;
    a.alloc(1000);
    for (int i = 0; i < 1000; ++i) a[i] = i ^ 0x5A5A;
    lots::barrier();  // clears the twin so the object becomes evictable
    Node& n = Runtime::self();
    n.force_swap_out(a.id());
    EXPECT_FALSE(n.is_mapped(a.id()));
    EXPECT_GT(n.disk().stored_bytes(), 0u);
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(a[i], i ^ 0x5A5A) << i;
    EXPECT_TRUE(n.is_mapped(a.id()));
    EXPECT_GE(n.stats().swap_ins.load(), 1u);
  });
}

TEST(Mapper, EvictionUnderDmmPressure) {
  // Allocate far more object bytes than the DMM area holds; every object
  // must still read back correctly (disk swapping, paper §3.3/§4.3).
  Config c = small_config();
  c.dmm_bytes = 1u << 20;
  Runtime rt(c);
  rt.run([](int) {
    constexpr int kObjects = 40;
    constexpr int kInts = 16 * 1024;  // 64 KB each => 2.5 MB total
    std::vector<Pointer<int>> objs(kObjects);
    for (int k = 0; k < kObjects; ++k) {
      objs[static_cast<size_t>(k)].alloc(kInts);
    }
    for (int round = 0; round < 2; ++round) {
      for (int k = 0; k < kObjects; ++k) {
        auto& o = objs[static_cast<size_t>(k)];
        for (int i = 0; i < kInts; i += 512) o[static_cast<size_t>(i)] = k * 100000 + i + round;
        lots::barrier();  // untwin so earlier objects can be evicted
      }
    }
    for (int k = 0; k < kObjects; ++k) {
      auto& o = objs[static_cast<size_t>(k)];
      for (int i = 0; i < kInts; i += 512) {
        ASSERT_EQ(o[static_cast<size_t>(i)], k * 100000 + i + 1) << "obj " << k << " idx " << i;
      }
    }
    Node& n = Runtime::self();
    EXPECT_GT(n.stats().evictions.load(), 0u);
    EXPECT_GT(n.stats().swap_outs.load(), 0u);
  });
}

TEST(Mapper, PinningProtectsStatementOperands) {
  // a[i] = b[i] + c[i] style statements touch three objects; none of
  // them may be evicted mid-statement even under memory pressure.
  Config c = small_config();
  c.dmm_bytes = 1u << 20;
  Runtime rt(c);
  rt.run([](int) {
    constexpr int kInts = 40 * 1024;  // 160 KB each; 3 fit, 6 do not
    std::vector<Pointer<int>> objs(6);
    for (auto& o : objs) o.alloc(kInts);
    // Initialize in pairs (barrier untwins between rounds).
    for (auto& o : objs) {
      for (int i = 0; i < kInts; i += 256) o[static_cast<size_t>(i)] = i;
      lots::barrier();
    }
    // Three-operand statements cycling through all six objects.
    for (int round = 0; round < 6; ++round) {
      auto& a = objs[static_cast<size_t>(round % 6)];
      auto& b = objs[static_cast<size_t>((round + 2) % 6)];
      auto& cc = objs[static_cast<size_t>((round + 4) % 6)];
      for (int i = 0; i < kInts; i += 256) {
        a[static_cast<size_t>(i)] = b[static_cast<size_t>(i)] + cc[static_cast<size_t>(i)];
      }
      lots::barrier();
    }
    // If pinning failed, addresses would have dangled and sums corrupted
    // in ways the final read-back detects. Rounds compose to:
    // o0=o1=2i, o2=o3=3i, o4=o5=5i.
    for (int i = 0; i < kInts; i += 256) {
      ASSERT_EQ(objs[5][static_cast<size_t>(i)], 5 * i);
      ASSERT_EQ(objs[0][static_cast<size_t>(i)], 2 * i);
      ASSERT_EQ(objs[2][static_cast<size_t>(i)], 3 * i);
    }
  });
}

TEST(Mapper, HomeServesFetchFromItsDirtyImage) {
  // The home swaps out an object it is writing inside a critical section
  // (the eviction keeps the twinned image on disk) and then answers a
  // peer's fetch from that image without mapping it. Its release then
  // flushes the image in place.
  Runtime rt(small_config(2));
  rt.run([](int rank) {
    Pointer<int> a;
    a.alloc(512);
    const int home = Runtime::self().home_of(a.id());
    if (rank == home) {
      for (int i = 0; i < 512; ++i) a[i] = i;
    }
    lots::barrier();  // the peer's copy goes invalid
    Node& n = Runtime::self();
    if (rank == home) {
      lots::acquire(1);
      a[7] = -7;  // re-twins
      n.force_swap_out(a.id());
    }
    lots::run_barrier();
    if (rank != home) {
      EXPECT_FALSE(n.is_valid(a.id()));
      for (int i = 0; i < 512; ++i) {
        if (i != 7) ASSERT_EQ(a[i], i) << i;
      }
      EXPECT_TRUE(a[7] == 7 || a[7] == -7) << "a[7] = " << a[7];
    }
    lots::run_barrier();
    if (rank == home) {
      EXPECT_FALSE(n.is_mapped(a.id())) << "the fetch mapped the home copy";
      lots::release(1);
    }
    lots::barrier();
    EXPECT_EQ(a[7], -7);
  });
}

TEST(Mapper, CleanEvictionWritesNothingAndKeepsDataAndStamps) {
  // The home maps its object back from a kept image and only reads it:
  // the eviction then writes nothing, and the remapped copy still holds
  // the data and the per-word stamps (the peer's diff-since-base fetch
  // ships exactly the one word stamped after its base). A write into a
  // kept image's mapping, evicted inside a critical section (so the
  // eviction keeps its twin rather than flushing it), is written back
  // and still propagates.
  Runtime rt(small_config(2));
  rt.run([](int rank) {
    Pointer<int> a;
    a.alloc(512);
    Node& n = Runtime::self();
    const int home = n.home_of(a.id());
    if (rank == home) {
      for (int i = 0; i < 512; ++i) a[i] = i;
    }
    lots::barrier();
    if (rank != home) {
      ASSERT_EQ(a[3], 3);  // full copy: the peer's diff base
    }
    lots::barrier();
    if (rank == home) a[7] = -7;  // stamped after the peer's base
    lots::barrier();
    if (rank == home) {
      n.force_swap_out(a.id());  // dirty: writes the image
      ASSERT_EQ(a[0], 0);        // maps it back; the image is kept
      const uint64_t out = n.stats().swap_bytes_out.load();
      n.force_swap_out(a.id());  // read-only twin dropped, clean: unmap only
      EXPECT_FALSE(n.is_mapped(a.id()));
      EXPECT_EQ(n.stats().swap_bytes_out.load(), out) << "a clean eviction wrote its image";
      EXPECT_TRUE(n.disk().contains(a.id()));
      for (int i = 0; i < 512; ++i) ASSERT_EQ(a[i], i == 7 ? -7 : i) << i;
    }
    const uint64_t sent = n.stats().diff_words_sent.load();
    lots::run_barrier();
    if (rank != home) {
      EXPECT_FALSE(n.is_valid(a.id()));
      for (int i = 0; i < 512; ++i) ASSERT_EQ(a[i], i == 7 ? -7 : i) << i;
    }
    lots::run_barrier();
    if (rank == home) {
      EXPECT_EQ(n.stats().diff_words_sent.load() - sent, 1u) << "stamps lost in the image";
      lots::acquire(2);
      a[9] = 99;  // twinned write into a mapping whose image is kept
      const uint64_t out = n.stats().swap_bytes_out.load();
      n.force_swap_out(a.id());
      EXPECT_GT(n.stats().swap_bytes_out.load(), out) << "a dirty eviction skipped its write";
      EXPECT_EQ(a[9], 99);
      lots::release(2);
    }
    lots::barrier();
    EXPECT_EQ(a[9], 99);
    EXPECT_EQ(a[7], -7);
  });
}

TEST(Mapper, DiffIntoCleanMappingSurvivesEviction) {
  // A lock grant delivers a peer's write into a mapped copy whose kept
  // image is clean: the delivery dirties the mapping, so the eviction
  // writes the image and the remapped copy still holds the write.
  Runtime rt(small_config(2));
  rt.run([](int rank) {
    Pointer<int> a;
    a.alloc(512);
    Node& n = Runtime::self();
    lots::barrier();
    if (rank == 0) {
      ASSERT_EQ(a[5], 0);
      n.force_swap_out(a.id());
      ASSERT_EQ(a[5], 0);  // mapped again from the kept image
    }
    lots::run_barrier();
    if (rank == 1) {
      lots::acquire(0);
      a[5] = 55;
      lots::release(0);
    }
    lots::run_barrier();
    if (rank == 0) {
      lots::acquire(0);  // the grant applies rank 1's record in place
      EXPECT_TRUE(n.is_mapped(a.id()));
      n.force_swap_out(a.id());
      EXPECT_EQ(a[5], 55) << "the delivered diff was lost at eviction";
      lots::release(0);
    }
    lots::barrier();
    EXPECT_EQ(a[5], 55);
  });
}

TEST(Mapper, KeptImageOnlyWithinDiskBudget) {
  // map_in keeps an image only while the store is within its budget:
  // a small image is kept, a home image that overflowed the budget is
  // freed at map-in, and keeping never takes the store past the budget.
  Config c = small_config(2);
  c.dmm_bytes = 512u << 10;
  c.disk_capacity_bytes = 200u << 10;
  Runtime rt(c);
  rt.run([&c](int rank) {
    Pointer<int> big, spacer, small;
    big.alloc(32 * 1024);  // 128 KB: a 256 KB image, over the budget alone
    spacer.alloc(1);
    small.alloc(1024);  // 4 KB: an 8 KB image
    Node& n = Runtime::self();
    const int home = n.home_of(big.id());
    ASSERT_EQ(n.home_of(small.id()), home);
    if (rank == home) {
      for (int i = 0; i < 32 * 1024; i += 64) big[static_cast<size_t>(i)] = i;
      for (int i = 0; i < 1024; ++i) small[static_cast<size_t>(i)] = -i;
    }
    lots::barrier();
    if (rank == home) {
      n.force_swap_out(small.id());
      ASSERT_EQ(small[1], -1);
      EXPECT_TRUE(n.disk().contains(small.id())) << "an image within the budget was not kept";
      n.force_swap_out(big.id());  // a home image stays local past the budget
      EXPECT_GT(n.disk().stored_bytes(), c.disk_capacity_bytes);
      ASSERT_EQ(big[64], 64);
      EXPECT_FALSE(n.disk().contains(big.id())) << "an image past the budget was kept";
      EXPECT_LE(n.disk().stored_bytes(), c.disk_capacity_bytes);
      n.force_swap_out(big.id());  // no kept image: written again
      EXPECT_EQ(big[128], 128);
    }
    lots::barrier();
  });
}

TEST(Mapper, MarkedCopyPastDiskBudgetParksWithItsWords) {
  // A copy with marks holds its marked words only in the copy until the
  // plan says whether they ship (a barrier unwound by a death keeps them
  // for the redo). Past the disk budget it spills to the buddy like a
  // clean copy: the parked image holds those words, and the barrier
  // pulls it back (RemoteSwap.HomeMigrationAdoptsRemotelyParkedImage).
  Config c = small_config(2);
  c.dmm_bytes = 512u << 10;
  c.disk_capacity_bytes = 200u << 10;
  Runtime rt(c);
  rt.run([&c](int rank) {
    Pointer<int> big, obj;
    big.alloc(32 * 1024);  // 128 KB: a 256 KB image, over the budget alone
    obj.alloc(1024);
    Node& n = Runtime::self();
    const int filler = n.home_of(big.id());
    ASSERT_NE(n.home_of(obj.id()), filler);
    if (rank == filler) {
      for (int i = 0; i < 32 * 1024; i += 64) big[static_cast<size_t>(i)] = i;
    } else {
      for (int i = 0; i < 1024; ++i) obj[static_cast<size_t>(i)] = i;
    }
    lots::barrier();
    if (rank == filler) {
      ASSERT_EQ(obj[5], 5);  // a clean, valid, non-home copy
      n.force_swap_out(big.id());  // a home image stays local past the budget
      ASSERT_GT(n.disk().stored_bytes(), c.disk_capacity_bytes);
      ObjectDirectory& dir = n.directory();
      const auto mark = [&](size_t marks) {
        auto lk = dir.lock_shard(obj.id());
        dir.get(obj.id()).marks = marks;
      };
      mark(0);  // as if a barrier flush had marked it
      const uint64_t puts = n.stats().remote_swap_puts.load();
      n.force_swap_out(obj.id());
      EXPECT_FALSE(n.disk().contains(obj.id())) << "a marked copy broke the disk budget";
      EXPECT_EQ(n.stats().remote_swap_puts.load(), puts + 1);
      mark(ObjectMeta::kNoMarks);
      EXPECT_EQ(obj[1000], 1000);
      EXPECT_GT(n.stats().remote_swap_gets.load(), 0u);
    }
    lots::barrier();
  });
}

size_t dmm_offset_of(Node& n, ObjectId id) {
  auto lk = n.directory().lock_shard(id);
  return n.directory().get(id).dmm_offset;
}

TEST(Mapper, EvictingASmallObjectKeepsItsPageNeighbor) {
  // Two 2 KB objects share one packing page (DmmAllocator::small_alloc).
  // Evicting either leaves every word of the other intact, and the
  // evicted one maps back whole: a page-rounded release of one block
  // would clear its neighbour's data too.
  Runtime rt(small_config());
  rt.run([](int) {
    Pointer<int> a, b;
    a.alloc(512);
    b.alloc(512);
    for (int i = 0; i < 512; ++i) {
      a[i] = i + 1;
      b[i] = -(i + 1);
    }
    lots::barrier();
    Node& n = Runtime::self();
    ASSERT_EQ(n.dmm().page_of(dmm_offset_of(n, a.id())),
              n.dmm().page_of(dmm_offset_of(n, b.id())));
    for (int round = 0; round < 2; ++round) {
      Pointer<int>& gone = round == 0 ? a : b;
      Pointer<int>& kept = round == 0 ? b : a;
      const int gone_sign = round == 0 ? 1 : -1;
      n.force_swap_out(gone.id());
      ASSERT_FALSE(n.is_mapped(gone.id()));
      ASSERT_TRUE(n.is_mapped(kept.id()));
      int kept_bad = 0, gone_bad = 0;
      for (int i = 0; i < 512; ++i) kept_bad += kept[i] != -gone_sign * (i + 1) ? 1 : 0;
      for (int i = 0; i < 512; ++i) gone_bad += gone[i] != gone_sign * (i + 1) ? 1 : 0;
      EXPECT_EQ(kept_bad, 0) << "round " << round << ": the neighbour lost words of 512";
      EXPECT_EQ(gone_bad, 0) << "round " << round << ": the evicted object lost words of 512";
    }
  });
}

TEST(Mapper, ReusedBlockStartsWithCleanStamps) {
  // A block keeps its last occupant's bytes after the unmap, so every
  // refill must write data and stamps. Rank 0's lock releases stamp x's
  // words far above the epoch at which rank 1 wrote y. x is evicted and
  // y, never mapped on rank 0, is fetched into x's block: stale stamps
  // would mark every word of y as newer than the home's copy. Then x
  // comes back into the block and leaves again, and z, a fresh object of
  // rank 0's own, maps into it through map_in's zero path: it must read
  // zeros, and its stamps must be zero too, since rank 1's write to z,
  // stamped far below x's releases, reaches rank 0's copy as the home at
  // the barrier.
  Runtime rt(small_config(2));
  rt.run([](int rank) {
    std::array<Pointer<int>, 4> objs;
    for (auto& o : objs) o.alloc(512);
    Node& n = Runtime::self();
    std::vector<Pointer<int>*> by_home[2];
    for (auto& o : objs) by_home[n.home_of(o.id())].push_back(&o);
    ASSERT_EQ(by_home[0].size(), 2u);
    Pointer<int>& x = *by_home[0][0];
    Pointer<int>& z = *by_home[0][1];
    Pointer<int>& y = *by_home[1][0];
    if (rank == 1) {
      for (int i = 0; i < 512; ++i) y[i] = i + 1;
    }
    lots::barrier();  // rank 0's copy of y goes invalid
    if (rank == 0) {
      for (int round = 0; round < 16; ++round) {
        lots::acquire(3);
        for (int i = 0; i < 512; ++i) x[i] = round * 1000 + i;
        lots::release(3);
      }
      const size_t block = dmm_offset_of(n, x.id());
      n.force_swap_out(x.id());
      int bad = 0;
      for (int i = 0; i < 512; ++i) bad += y[i] != i + 1 ? 1 : 0;
      ASSERT_EQ(dmm_offset_of(n, y.id()), block) << "y did not reuse x's block";
      EXPECT_EQ(bad, 0) << "the first fetch into a reused block lost words of 512";
      n.force_swap_out(y.id());
      EXPECT_EQ(x[511], 15 * 1000 + 511);  // x's image and stamps back in the block
      ASSERT_EQ(dmm_offset_of(n, x.id()), block) << "x did not reuse its block";
      n.force_swap_out(x.id());
      bad = 0;
      for (int i = 0; i < 512; ++i) bad += z[i] != 0 ? 1 : 0;
      ASSERT_EQ(dmm_offset_of(n, z.id()), block) << "z did not reuse the block";
      EXPECT_EQ(bad, 0) << "a fresh object in a reused block read old words of 512";
      EXPECT_EQ(y[511], 512);
    }
    lots::run_barrier();
    if (rank == 0) z[0] = 7;
    if (rank == 1) z[1] = 42;
    lots::barrier();  // two writers: z's home stays at rank 0
    EXPECT_EQ(z[0], 7) << "rank " << rank;
    EXPECT_EQ(z[1], 42) << "rank " << rank << ": a stale stamp rejected a write";
    lots::barrier();
  });
}

TEST(Mapper, SingleObjectLargerThanHalfDmmRejected) {
  Runtime rt(small_config());
  rt.run([](int) {
    Pointer<int> a;
    EXPECT_THROW(a.alloc((1u << 20)), lots::UsageError);  // > dmm/2 in bytes? 4 MB > 0.5 MB
  });
}

TEST(LotsX, DisabledLargeObjectSpaceStillCorrect) {
  Config c = small_config();
  c.large_object_space = false;  // LOTS-x (paper §4.1)
  Runtime rt(c);
  rt.run([](int) {
    Pointer<int> a;
    a.alloc(1024);
    for (int i = 0; i < 1024; ++i) a[i] = 3 * i;
    lots::barrier();
    for (int i = 0; i < 1024; ++i) ASSERT_EQ(a[i], 3 * i);
    // Eagerly mapped: no swap machinery may engage.
    Node& n = Runtime::self();
    EXPECT_EQ(n.stats().swap_outs.load(), 0u);
    EXPECT_EQ(n.stats().evictions.load(), 0u);
  });
}

TEST(LotsX, OverflowThrowsInsteadOfSwapping) {
  Config c = small_config();
  c.large_object_space = false;
  Runtime rt(c);
  EXPECT_THROW(rt.run([](int) {
                 std::vector<Pointer<int>> objs;
                 for (int k = 0; k < 64; ++k) {
                   objs.emplace_back();
                   objs.back().alloc(16 * 1024);  // 64 KB each, 4 MB total > 1 MB DMM
                 }
               }),
               lots::UsageError);
}

TEST(RuntimeBasics, FreeObjectReleasesResources) {
  Runtime rt(small_config());
  rt.run([](int) {
    Node& n = Runtime::self();
    const size_t before = n.dmm().bytes_free();
    Pointer<int> a;
    a.alloc(1000);
    a[0] = 1;
    lots::barrier();
    n.force_swap_out(a.id());
    a.free();
    EXPECT_EQ(n.disk().stored_bytes(), 0u);
    EXPECT_EQ(n.dmm().bytes_free(), before);
  });
}

TEST(RuntimeBasics, RunCanBeCalledRepeatedly) {
  Runtime rt(small_config(2));
  Pointer<int> shared;
  rt.run([&](int rank) {
    Pointer<int> a;
    a.alloc(16);
    if (rank == 0) shared = a;
    lots::barrier();
    if (rank == 0) a[0] = 42;
    lots::barrier();
  });
  rt.run([&](int) { EXPECT_EQ(shared[0], 42); });
}

TEST(RuntimeBasics, AnAppThreadExceptionFailsRunInsteadOfHangingIt) {
  // Rank 1's first app thread throws before a barrier. Its sibling waits
  // in the node collective, and ranks 0 and 2 wait for the barrier's
  // plan, which never comes: run() must break those waits and rethrow
  // the first error, not hang.
  Config c = small_config(3);
  c.threads_per_node = 2;
  Runtime rt(c);
  auto run = std::async(std::launch::async, [&] {
    rt.run([](int rank) {
      Pointer<int> a;
      a.alloc(16);
      if (rank == 1 && lots::my_thread() == 0) throw std::runtime_error("rank 1 failed");
      lots::barrier();
    });
  });
  if (run.wait_for(std::chrono::seconds(5)) != std::future_status::ready) {
    std::fprintf(stderr, "run() still hangs 5 s after an app thread threw\n");
    std::_Exit(1);  // the hung threads would block the test's exit
  }
  try {
    run.get();
    ADD_FAILURE() << "run() returned normally";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 1 failed");
  }
}

TEST(RuntimeBasics, SelfOutsideRunThrowsCheck) {
  EXPECT_FALSE(Runtime::in_node());
}

}  // namespace
}  // namespace lots::core
