// Coherence protocol semantics: Scope Consistency (paper Fig. 5), the
// mixed protocol (Fig. 6: migrating-home at barriers, homeless
// write-update at locks), invalidations, fetches and protocol ablations.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <thread>

#include "core/api.hpp"

namespace lots::core {
namespace {

Config cfg(int nprocs, ProtocolMode proto = ProtocolMode::kMixed,
           DiffMode diff = DiffMode::kPerWordTimestamp) {
  Config c;
  c.nprocs = nprocs;
  c.dmm_bytes = 4u << 20;
  c.protocol = proto;
  c.diff_mode = diff;
  return c;
}

TEST(Coherence, BarrierPropagatesWrites) {
  Runtime rt(cfg(4));
  rt.run([](int rank) {
    Pointer<int> a;
    a.alloc(64);
    if (rank == 2) {
      for (int i = 0; i < 64; ++i) a[i] = 1000 + i;
    }
    lots::barrier();
    for (int i = 0; i < 64; ++i) ASSERT_EQ(a[i], 1000 + i) << "rank sees stale data";
  });
}

TEST(Coherence, SingleWriterMigratesHomeWithoutDataTraffic) {
  // Paper Fig. 6 / §3.4: one writer before the barrier -> the home
  // simply migrates to the writer, no update propagation.
  Runtime rt(cfg(4));
  rt.run([&](int rank) {
    Pointer<int> a;
    a.alloc(256);
    // Ensure initial home is not node 3 (round-robin by id).
    const int32_t initial_home = Runtime::self().home_of(a.id());
    const int writer = (initial_home + 3) % 4;
    if (rank == writer) {
      for (int i = 0; i < 256; ++i) a[i] = i;
    }
    lots::barrier();
    EXPECT_EQ(Runtime::self().home_of(a.id()), writer);
    if (rank == writer) {
      // The lone writer must not have pushed any diff words at barrier.
      EXPECT_EQ(Runtime::self().stats().diff_words_sent.load(), 0u);
    } else {
      EXPECT_FALSE(Runtime::self().is_valid(a.id()));  // invalidated copy
    }
    // Everyone converges on the writer's data via post-barrier fetches.
    for (int i = 0; i < 256; ++i) ASSERT_EQ(a[i], i);
  });
}

TEST(Coherence, MultiWriterMergesAtHome) {
  // Two writers on disjoint halves -> diffs merge at the (unchanged)
  // home; all nodes then read the union.
  Runtime rt(cfg(4));
  rt.run([](int rank) {
    Pointer<int> a;
    a.alloc(128);
    if (rank == 1) {
      for (int i = 0; i < 64; ++i) a[i] = 100 + i;
    } else if (rank == 2) {
      for (int i = 64; i < 128; ++i) a[i] = 200 + i;
    }
    const int32_t home_before = Runtime::self().home_of(a.id());
    lots::barrier();
    EXPECT_EQ(Runtime::self().home_of(a.id()), home_before);  // home stays
    for (int i = 0; i < 64; ++i) ASSERT_EQ(a[i], 100 + i);
    for (int i = 64; i < 128; ++i) ASSERT_EQ(a[i], 200 + i);
  });
}

TEST(Coherence, ScopeConsistencyFig5Semantics) {
  // Paper Fig. 5: updates inside a critical section become visible to
  // the next acquirer of the same lock.
  Runtime rt(cfg(2));
  rt.run([](int rank) {
    Pointer<int> x;
    x.alloc(4);
    lots::barrier();
    if (rank == 0) {
      lots::acquire(7);
      x[0] = 5;  // b = 5 in the figure
      lots::release(7);
      lots::run_barrier();  // event-only: no memory synchronization
    } else {
      lots::run_barrier();  // wait until node 0 released
      lots::acquire(7);
      EXPECT_EQ(x[0], 5);  // guaranteed by ScC
      lots::release(7);
    }
    lots::barrier();
  });
}

TEST(Coherence, LockUpdatesArePushedNotInvalidated) {
  // Homeless write-update: after acquire, the data is already local —
  // no object fetch may occur.
  Runtime rt(cfg(2));
  rt.run([](int rank) {
    Pointer<int> x;
    x.alloc(64);
    // Both nodes touch x so both hold mapped copies.
    volatile int warm = x[0];
    (void)warm;
    lots::barrier();
    if (rank == 0) {
      lots::acquire(1);
      for (int i = 0; i < 64; ++i) x[i] = 42 + i;
      lots::release(1);
    }
    lots::barrier();  // rank 1 invalidated here (writer rank 0 became home)
    if (rank == 1) {
      const uint64_t fetches_before = Runtime::self().stats().object_fetches.load();
      lots::acquire(1);
      lots::release(1);
      (void)fetches_before;
    }
    lots::barrier();
  });
}

TEST(Coherence, MigratoryPatternThroughLocks) {
  // The ME-style migratory pattern: a counter object hops between nodes
  // under one lock; every increment must be seen exactly once.
  Runtime rt(cfg(4));
  rt.run([](int) {
    Pointer<int> counter;
    counter.alloc(1);
    lots::barrier();
    for (int round = 0; round < 25; ++round) {
      lots::acquire(3);
      counter[0] = counter[0] + 1;
      lots::release(3);
    }
    lots::barrier();
    EXPECT_EQ(counter[0], 100);
  });
}

TEST(Coherence, DisjointLocksDoNotSerialize) {
  Runtime rt(cfg(4));
  rt.run([](int rank) {
    Pointer<int> slots;
    slots.alloc(4);
    lots::barrier();
    const uint32_t my_lock = 10 + static_cast<uint32_t>(rank);
    for (int i = 0; i < 10; ++i) {
      lots::acquire(my_lock);
      slots[static_cast<size_t>(rank)] = slots[static_cast<size_t>(rank)] + 1;
      lots::release(my_lock);
    }
    lots::barrier();
    for (int r = 0; r < 4; ++r) ASSERT_EQ(slots[static_cast<size_t>(r)], 10);
  });
}

TEST(Coherence, DeathFailsAWaitingAcquireAndDropsTheLateGrant) {
  // Rank 0 holds lock 0 (it is also its manager) while rank 1 waits for
  // it. A death notice for rank 0 at rank 1 must unwind the wait with
  // WorkerDied. Rank 0 then releases, so the manager grants the parked
  // acquire to rank 1 late: nobody waits for it there any more, and it
  // must be dropped without disturbing the runtime's teardown.
  Runtime rt(cfg(2));
  std::atomic<int> stage{0};
  std::atomic<bool> waiter_done{false};
  rt.run([&](int rank) {
    constexpr uint32_t kLock = 0;
    if (rank == 0) {
      lots::acquire(kLock);
      stage.store(1);
      while (stage.load() < 2) std::this_thread::yield();
      // Time for rank 1's acquire to park at the manager.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      rt.node(1).on_peer_dead(0);
      while (!waiter_done.load()) std::this_thread::yield();
      lots::release(kLock);
      // Time for the late grant to land before the runtime tears down.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      return;
    }
    while (stage.load() < 1) std::this_thread::yield();
    stage.store(2);
    try {
      lots::acquire(kLock);
      ADD_FAILURE() << "a lock wait must fail when a peer dies";
    } catch (const WorkerDied& e) {
      EXPECT_EQ(e.rank(), 0);
    }
    waiter_done.store(true);
  });
}

TEST(Coherence, RunBarrierHasNoMemoryEffect) {
  // Paper §3.6: run_barrier() performs event synchronization only.
  Runtime rt(cfg(2));
  rt.run([](int rank) {
    Pointer<int> x;
    x.alloc(4);
    lots::barrier();
    if (rank == 0) x[0] = 77;
    lots::run_barrier();
    if (rank == 1) {
      // No invalidation may have happened — the local copy stays valid
      // (and stale), which is exactly the documented contract.
      EXPECT_TRUE(Runtime::self().is_valid(x.id()));
    }
    lots::barrier();
    ASSERT_EQ(x[0], 77);  // the real barrier reconciles
  });
}

TEST(Coherence, InvalidCopyServesAsDiffBase) {
  // §3.5 on-demand diffs: a second-round fetch after a small update must
  // move only the changed words, not the whole object.
  Runtime rt(cfg(2));
  rt.run([](int rank) {
    Pointer<int> big;
    big.alloc(32 * 1024);  // 128 KB
    lots::barrier();
    if (rank == 1) {
      for (int i = 0; i < 32 * 1024; ++i) big[i] = i;
    }
    lots::barrier();
    volatile int warm = big[0];  // full fetch on rank 0
    (void)warm;
    lots::barrier();
    if (rank == 1) big[123] = -1;  // single-word update
    lots::barrier();
    if (rank == 0) {
      const uint64_t bytes_before = Runtime::self().stats().bytes_recv.load();
      ASSERT_EQ(big[123], -1);
      const uint64_t moved = Runtime::self().stats().bytes_recv.load() - bytes_before;
      EXPECT_LT(moved, 4096u) << "a one-word change must not refetch 128 KB";
    }
    lots::barrier();
  });
}

TEST(Coherence, SwappedDirtyHomeCopyDoesNotReshipForeignWords) {
  // A diff pushed to a home whose dirty copy sits on disk must land in
  // the image's twin as well as its data: otherwise the home's next
  // flush re-ships the foreign word as its own write, stamped with its
  // own (here much higher) epoch, and a later write from the original
  // writer loses at the home.
  Runtime rt(cfg(2, ProtocolMode::kWriteInvalidateOnly));
  std::array<int, 2> seen{};
  rt.run([&](int rank) {
    Pointer<int> x;
    x.alloc(16);
    const int home = Runtime::self().home_of(x.id());
    if (rank == home) {
      for (int i = 0; i < 50; ++i) {  // run the home's epoch well ahead
        lots::acquire(3);
        lots::release(3);
      }
      lots::acquire(1);
      x[0] = 5;
      Runtime::self().force_swap_out(x.id());  // twinned image on disk
    }
    lots::run_barrier();
    if (rank != home) {
      lots::acquire(2);
      x[1] = 11;  // pushed into the home's on-disk image
      lots::release(2);
    }
    lots::run_barrier();
    if (rank == home) lots::release(1);  // flushes from the disk image
    lots::run_barrier();
    if (rank != home) {
      lots::acquire(2);
      x[1] = 22;
      lots::release(2);
    }
    lots::barrier();
    seen[static_cast<size_t>(rank)] = x[1];
    EXPECT_EQ(x[0], 5);
  });
  EXPECT_EQ(seen[0], 22);
  EXPECT_EQ(seen[1], 22);
}

TEST(Coherence, ManyObjectsManyWritersStress) {
  Runtime rt(cfg(4));
  rt.run([](int rank) {
    constexpr int kObjs = 32;
    std::vector<Pointer<int>> objs(kObjs);
    for (auto& o : objs) o.alloc(64);
    lots::barrier();
    for (int round = 0; round < 5; ++round) {
      for (int k = 0; k < kObjs; ++k) {
        if (k % 4 == rank) {  // exclusive writer per object per round
          for (int i = 0; i < 64; ++i) {
            objs[static_cast<size_t>(k)][static_cast<size_t>(i)] = round * 10000 + k * 100 + i;
          }
        }
      }
      lots::barrier();
      // Every node verifies every object.
      for (int k = 0; k < kObjs; ++k) {
        for (int i = 0; i < 64; i += 7) {
          ASSERT_EQ(objs[static_cast<size_t>(k)][static_cast<size_t>(i)],
                    round * 10000 + k * 100 + i);
        }
      }
      lots::barrier();
    }
  });
}

TEST(Coherence, BarrierRecordsAreBuiltOnlyForObjectsThatShip) {
  // The flushes only mark changed words; a record is built after the
  // plan, for an object another node now homes. `shared` is homed on
  // rank 2 and written by ranks 0 and 1 on disjoint words, first under a
  // lock (release marks), then outside it (barrier marks); rank 1's
  // dirty copy is swapped out in between, so its flush diffs the disk
  // image. The home must end up with every word, so each writer's
  // record must carry its lock-interval words as well as the barrier's.
  // `solo` has one writer, which inherits its home and builds nothing.
  //
  // Two more inputs take each writer's copy away after its release: the
  // home commits a write in place under lock 8 (lock-driven migration
  // on), so the writers' acquire of lock 8 invalidates their copies, and
  // each writer then force-swaps its stale copy out, once with an
  // unlimited disk and once with a disk so small that a clean copy
  // would spill to the buddy. The bitmap is the only record of the lock
  // interval, so the stale copy must keep its words (Mapper::evict),
  // and the refetch that revalidates it must not regress them.
  constexpr int kWords = 64;  // per writer
  struct Input {
    const char* name;
    bool invalidate;
    size_t disk_capacity_bytes;
  };
  for (const Input& in : {Input{"plain", false, 0}, Input{"invalidated", true, 0},
                          Input{"invalidated, full disk", true, 1}}) {
    SCOPED_TRACE(in.name);
    Config c = cfg(3);
    c.lock_migration = in.invalidate;
    c.disk_capacity_bytes = in.disk_capacity_bytes;
    Runtime rt(c);
    rt.run([&](int rank) {
      Pointer<int> first, shared, solo;
      first.alloc(1);
      shared.alloc(3 * kWords);  // id 2: homed on rank 2
      solo.alloc(16);            // id 3: homed on rank 0
      ASSERT_EQ(Runtime::self().home_of(shared.id()), 2);
      lots::barrier();
      auto want = [&](int i) {
        if (i < 2 * kWords) return 1000 * (i / kWords + 1) + i;
        return in.invalidate && i == 2 * kWords ? 3000 : 0;
      };
      if (rank < 2) {
        const int base = rank * kWords;
        lots::acquire(7);
        for (int i = base; i < base + 16; ++i) shared[i] = want(i);
        lots::release(7);
      }
      if (in.invalidate) {
        if (rank == 2) {
          lots::acquire(8);
          shared[2 * kWords] = want(2 * kWords);
          lots::release(8);  // the home commits in place: a notice rides lock 8
        }
        lots::run_barrier();
        if (rank < 2) {
          lots::acquire(8);
          lots::release(8);
          ASSERT_FALSE(Runtime::self().is_valid(shared.id()));
          Runtime::self().force_swap_out(shared.id());
        }
      }
      if (rank < 2) {
        const int base = rank * kWords;
        for (int i = base + 16; i < base + 48; ++i) shared[i] = want(i);
        if (rank == 1) {
          for (int i = 0; i < 16; ++i) solo[i] = 7 * i;
          Runtime::self().force_swap_out(shared.id());  // twinned image on disk
        }
        for (int i = base + 48; i < base + kWords; ++i) shared[i] = want(i);
      }
      const uint64_t diffs_before = Runtime::self().stats().diffs_created.load();
      lots::barrier();
      const uint64_t built = Runtime::self().stats().diffs_created.load() - diffs_before;
      EXPECT_EQ(built, rank < 2 ? 1u : 0u) << "rank " << rank << " built a record for an "
                                            << "object it did not ship";
      EXPECT_EQ(Runtime::self().home_of(solo.id()), 1);
      EXPECT_EQ(Runtime::self().home_of(shared.id()), 2);
      for (int i = 0; i < 3 * kWords; ++i) ASSERT_EQ(shared[i], want(i)) << "word " << i;
      for (int i = 0; i < 16; ++i) ASSERT_EQ(solo[i], 7 * i);
      lots::barrier();
    });
  }
}

// ---- eviction flush: Mapper::evict outside and inside critical sections ----

TEST(Coherence, EvictionInsideASectionKeepsItsWriteOnTheLockChain) {
  // Rank 0 writes a word inside acquire(4) and its object is evicted
  // before release(4). The eviction must keep the twinned image, so the
  // release flushes the write from it onto lock 4's chain and rank 1's
  // next acquire of lock 4 sees it. Flushing at the eviction would leave
  // the release nothing to ship: rank 1 homes the object, so its copy
  // stays valid and would hold the old word until the barrier.
  Runtime rt(cfg(2));
  rt.run([](int rank) {
    Pointer<int> a, b;
    a.alloc(256);
    b.alloc(256);
    Node& n = Runtime::self();
    Pointer<int>& x = n.home_of(a.id()) == 1 ? a : b;
    ASSERT_EQ(n.home_of(x.id()), 1);
    lots::barrier();
    if (rank == 0) {
      lots::acquire(4);
      x[10] = 77;
      n.force_swap_out(x.id());
      ASSERT_FALSE(n.is_mapped(x.id()));
      lots::release(4);
    }
    lots::run_barrier();
    if (rank == 1) {
      lots::acquire(4);
      EXPECT_EQ(x[10], 77) << "a write evicted inside its section missed the lock chain";
      lots::release(4);
    }
    lots::barrier();
    EXPECT_EQ(x[10], 77);
  });
}

TEST(Coherence, EvictionOutsideASectionLeavesTheBarrierNoImageToRead) {
  // Before the node takes a lock in the interval, an eviction flushes
  // the victim's twin as the barrier would (marks and stamps, untwinned
  // image): the barrier then reads no image back, and the writes still
  // reach the peer.
  Runtime rt(cfg(2));
  rt.run([](int rank) {
    constexpr int kInts = 4096;
    Pointer<int> x;
    x.alloc(kInts);
    lots::barrier();
    Node& n = Runtime::self();
    uint64_t ins = 0;
    if (rank == 0) {
      for (int i = 0; i < kInts; i += 3) x[i] = i + 1;
      n.force_swap_out(x.id());
      ASSERT_FALSE(n.is_mapped(x.id()));
      ins = n.stats().swap_ins.load();
    }
    lots::barrier();
    if (rank == 0) {
      EXPECT_EQ(n.stats().swap_ins.load(), ins) << "the barrier read an evicted image back";
    }
    lots::run_barrier();  // before rank 1's fetch reads the image
    for (int i = 0; i < kInts; ++i) ASSERT_EQ(x[i], i % 3 == 0 ? i + 1 : 0) << "word " << i;
    lots::barrier();
  });
}

// An eviction flush stamps the words it marks with the last plan's epoch
// + 1, the barrier's stamp while the node takes no lock. Here it takes
// one afterwards, and a lock grant hands a peer a newer diff base first.
// Rank 0 writes x[5] outside any section and evicts x (stamp cut + 1).
// Rank 1, x's home, writes x[0] under lock 9: its push (write-invalidate)
// or its commit notice (lock migration) raises the home copy's
// valid_epoch to its release epoch, cut + 2. Rank 2 then acquires lock 9
// and fetches x, so its copy is valid to cut + 2. Rank 0 then takes and
// releases lock 9. At the barrier rank 2's copy is invalidated and
// refetched as a diff since cut + 2: x[5] reaches it only if the barrier
// raised its stamp to its own flush epoch.
struct LockMode {
  const char* name;
  ProtocolMode protocol;
  bool lock_migration;
};

void PrintTo(const LockMode& mode, std::ostream* os) { *os << mode.name; }

class EvictionFlushThenLock : public ::testing::TestWithParam<LockMode> {};

TEST_P(EvictionFlushThenLock, EvictedWordReachesAPeerWithANewerBase) {
  Config c = cfg(3, GetParam().protocol);
  c.lock_migration = GetParam().lock_migration;
  Runtime rt(c);
  std::atomic<int> stage{0};
  auto await = [&](int s) {
    while (stage.load() < s) std::this_thread::yield();
  };
  rt.run([&](int rank) {
    Pointer<int> x;
    x.alloc(64);
    Node& n = Runtime::self();
    ASSERT_EQ(n.home_of(x.id()), 1);
    lots::barrier();
    if (rank == 0) {
      x[5] = 55;
      n.force_swap_out(x.id());
      ASSERT_FALSE(n.is_mapped(x.id()));
      stage = 1;
    }
    if (rank == 1) {
      await(1);
      lots::acquire(9);
      x[0] = 1;
      lots::release(9);
      stage = 2;
    }
    if (rank == 2) {
      await(2);
      lots::acquire(9);
      EXPECT_EQ(x[0], 1);
      EXPECT_EQ(x[5], 0);
      lots::release(9);
      stage = 3;
    }
    if (rank == 0) {
      await(3);
      lots::acquire(9);
      lots::release(9);
    }
    lots::barrier();
    EXPECT_EQ(x[0], 1) << "rank " << rank;
    EXPECT_EQ(x[5], 55) << "rank " << rank << " lost a write flushed at its eviction";
    lots::barrier();
  });
}

const auto kLockModes =
    ::testing::Values(LockMode{"WriteInvalidate", ProtocolMode::kWriteInvalidateOnly, false},
                      LockMode{"LockMigration", ProtocolMode::kMixed, true});
const auto kLockModeName = [](const auto& info) { return std::string(info.param.name); };

INSTANTIATE_TEST_SUITE_P(, EvictionFlushThenLock, kLockModes, kLockModeName);

// Lock migration hands x's home to rank 2 between the eviction flush
// and the barrier. Rank 2 fetched x as a full copy at the old home's
// raised base, so every word of the copy it adopts carries that stamp,
// above the cut + 1 rank 0's eviction flush gave x[5]. Rank 0 then takes
// the lock and learns the new home from its commit notice, so the plan
// sends rank 0's record there: x[5] lands only if the barrier raised its
// stamp to rank 0's own flush epoch. (A peer's base alone cannot catch
// this: the plan's base reset covers every copy but the home's.)
TEST(Coherence, EvictedWordReachesAHomeAdoptedUnderALock) {
  Config c = cfg(3);
  c.lock_migration = true;
  Runtime rt(c);
  std::atomic<int> stage{0};
  auto await = [&](int s) {
    while (stage.load() < s) std::this_thread::yield();
  };
  rt.run([&](int rank) {
    Pointer<int> x;
    x.alloc(64);
    Node& n = Runtime::self();
    ASSERT_EQ(n.home_of(x.id()), 1);
    lots::barrier();
    if (rank == 0) {
      x[5] = 55;
      n.force_swap_out(x.id());
      stage = 1;
    }
    if (rank == 1) {
      await(1);
      lots::acquire(9);
      x[0] = 1;
      lots::release(9);  // a commit notice: the home's base passes the cut
      stage = 2;
    }
    if (rank == 2) {
      await(2);
      // Dominant writer: the manager proposes the handoff after a streak.
      for (int i = 0; i < 200 && n.home_of(x.id()) != 2; ++i) {
        lots::acquire(9);
        x[0] = 2 + i;
        lots::release(9);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      ASSERT_EQ(n.home_of(x.id()), 2) << "rank 2 never adopted x";
      lots::acquire(9);
      x[1] = 7;
      lots::release(9);  // the new home's notice rides the chain
      stage = 3;
    }
    if (rank == 0) {
      await(3);
      lots::acquire(9);
      lots::release(9);
      EXPECT_EQ(n.home_of(x.id()), 2);
      stage = 4;
    }
    await(4);  // the master looks x's home up when the first enter lands
    lots::barrier();
    EXPECT_EQ(x[1], 7) << "rank " << rank;
    EXPECT_EQ(x[5], 55) << "rank " << rank << " lost a write flushed at its eviction";
    lots::barrier();
  });
}

// The same schedule without the eviction and without rank 0's lock: rank
// 0 never sees the lock's epochs, so its barrier flush stamps x[5] with
// its own epoch + 1 = cut + 1, below rank 2's base (cut + 2). The
// barrier invalidates rank 2's copy; its refetch must still bring x[5].
// The rewrite is partial, so the home answers with the diff form.
class OutOfSectionWriteThenLock : public ::testing::TestWithParam<LockMode> {};

TEST_P(OutOfSectionWriteThenLock, WriteReachesAPeerWithANewerBase) {
  Config c = cfg(3, GetParam().protocol);
  c.lock_migration = GetParam().lock_migration;
  Runtime rt(c);
  std::atomic<int> stage{0};
  auto await = [&](int s) {
    while (stage.load() < s) std::this_thread::yield();
  };
  rt.run([&](int rank) {
    Pointer<int> x;
    x.alloc(64);
    ASSERT_EQ(Runtime::self().home_of(x.id()), 1);
    lots::barrier();
    if (rank == 0) {
      x[5] = 55;
      stage = 1;
    }
    if (rank == 1) {
      await(1);
      lots::acquire(9);
      x[0] = 1;
      lots::release(9);
      stage = 2;
    }
    if (rank == 2) {
      await(2);
      lots::acquire(9);
      EXPECT_EQ(x[0], 1);
      EXPECT_EQ(x[5], 0);
      lots::release(9);
    }
    lots::barrier();
    EXPECT_EQ(x[0], 1) << "rank " << rank;
    EXPECT_EQ(x[5], 55) << "rank " << rank << " lost a write made outside any section";
    lots::barrier();
  });
}

INSTANTIATE_TEST_SUITE_P(, OutOfSectionWriteThenLock, kLockModes, kLockModeName);

TEST(Coherence, EvictionFlushesListEachTwinOnce) {
  // Each eviction flush drops the twin and the next access makes a new
  // one, but the interval twin list names the object once: evicting and
  // re-touching it 1,000 times in one interval lists nothing more. The
  // barrier's flush empties the list.
  Runtime rt(cfg(2));
  rt.run([](int rank) {
    constexpr int kRounds = 1000;
    Pointer<int> x;
    x.alloc(kRounds + 1);
    lots::barrier();
    Node& n = Runtime::self();
    if (rank == 0) {
      x[0] = -1;  // twinned and listed
      ASSERT_EQ(n.interval_twins(), 1u);
      for (int i = 1; i <= kRounds; ++i) {
        n.force_swap_out(x.id());
        x[i] = i;  // maps it back and twins it again
      }
      EXPECT_EQ(n.interval_twins(), 1u) << "re-twins grew the interval list";
    }
    lots::barrier();
    EXPECT_EQ(n.interval_twins(), 0u);
    if (rank == 0) {
      ASSERT_EQ(x[0], -1);
      EXPECT_EQ(n.interval_twins(), 1u) << "a flush left the object marked as listed";
    }
    for (int i = 1; i <= kRounds; ++i) ASSERT_EQ(x[i], i) << "word " << i;
    lots::barrier();
  });
}

TEST(Coherence, BarrierFlushesATwinnedImageEvictedBesideAnOpenSection) {
  // Once an app thread of the node has taken a lock in the interval, an
  // eviction keeps the victim's twinned image (a section's writes ship
  // on its token's chain, which the eviction cannot tell apart), and the
  // barrier flushes that image from disk. Thread 0 of rank 0 writes `x`
  // outside any section and evicts it while thread 1 holds lock 6: the
  // barrier reads the image back, and the write reaches rank 1.
  Config c = cfg(2);
  c.threads_per_node = 2;
  Runtime rt(c);
  std::atomic<bool> in_section{false}, evicted{false};
  rt.run([&](int rank) {
    constexpr int kInts = 1024;
    Pointer<int> x;
    x.alloc(kInts);
    lots::barrier();
    Node& n = Runtime::self();
    const int t = lots::my_thread();
    uint64_t ins = 0;
    if (rank == 0 && t == 1) {
      lots::acquire(6);
      in_section = true;
      while (!evicted) std::this_thread::yield();
      lots::release(6);
    }
    if (rank == 0 && t == 0) {
      while (!in_section) std::this_thread::yield();
      for (int i = 0; i < kInts; i += 5) x[i] = -i - 1;
      n.force_swap_out(x.id());
      EXPECT_FALSE(n.is_mapped(x.id()));
      ins = n.stats().swap_ins.load();
      evicted = true;
    }
    lots::barrier();
    if (rank == 0 && t == 0) {
      EXPECT_GT(n.stats().swap_ins.load(), ins) << "the barrier found no twinned image";
    }
    lots::run_barrier();  // before rank 1's fetch reads the image
    for (int i = 0; i < kInts; ++i) ASSERT_EQ(x[i], i % 5 == 0 ? -i - 1 : 0) << "word " << i;
    lots::barrier();
  });
}

// ---- protocol ablations ----------------------------------------------------

class ProtocolModes : public ::testing::TestWithParam<ProtocolMode> {};

TEST_P(ProtocolModes, BarrierAndLockCorrectUnderAllProtocols) {
  Runtime rt(cfg(4, GetParam()));
  rt.run([](int rank) {
    Pointer<int> a, counter;
    a.alloc(128);
    counter.alloc(1);
    lots::barrier();
    if (rank == 0) {
      for (int i = 0; i < 128; ++i) a[i] = 7 * i;
    }
    lots::barrier();
    for (int i = 0; i < 128; i += 11) ASSERT_EQ(a[i], 7 * i);
    for (int round = 0; round < 10; ++round) {
      lots::acquire(5);
      counter[0] = counter[0] + 1;
      lots::release(5);
    }
    lots::barrier();
    ASSERT_EQ(counter[0], 40);
  });
}

INSTANTIATE_TEST_SUITE_P(AllModes, ProtocolModes,
                         ::testing::Values(ProtocolMode::kMixed, ProtocolMode::kWriteUpdateOnly,
                                           ProtocolMode::kWriteInvalidateOnly,
                                           ProtocolMode::kAdaptive));

class DiffModes : public ::testing::TestWithParam<DiffMode> {};

TEST_P(DiffModes, MigratoryCounterCorrectInBothDiffModes) {
  Runtime rt(cfg(4, ProtocolMode::kMixed, GetParam()));
  rt.run([](int) {
    Pointer<int> c;
    c.alloc(16);
    lots::barrier();
    for (int round = 0; round < 20; ++round) {
      lots::acquire(2);
      for (int i = 0; i < 16; ++i) c[i] = c[i] + 1;
      lots::release(2);
    }
    lots::barrier();
    for (int i = 0; i < 16; ++i) ASSERT_EQ(c[i], 80);
  });
}

INSTANTIATE_TEST_SUITE_P(BothModes, DiffModes,
                         ::testing::Values(DiffMode::kPerWordTimestamp,
                                           DiffMode::kAccumulatedRecords));

TEST(DiffAccumulation, AccumulatedModeSendsMoreWords) {
  // The §3.5 claim, quantified: under a migratory pattern the
  // accumulated-records mode re-sends superseded values; the per-word
  // timestamp mode does not.
  auto run_mode = [](DiffMode mode) -> uint64_t {
    Runtime rt(cfg(4, ProtocolMode::kMixed, mode));
    rt.run([](int) {
      Pointer<int> c;
      c.alloc(256);
      lots::barrier();
      for (int round = 0; round < 15; ++round) {
        lots::acquire(9);
        for (int i = 0; i < 256; ++i) c[i] = c[i] + 1;
        lots::release(9);
      }
      lots::barrier();
    });
    NodeStats total;
    rt.aggregate_stats(total);
    return total.diff_words_sent.load();
  };
  const uint64_t merged = run_mode(DiffMode::kPerWordTimestamp);
  const uint64_t accumulated = run_mode(DiffMode::kAccumulatedRecords);
  EXPECT_GT(accumulated, merged * 2) << "diff accumulation not reproduced";
}

}  // namespace
}  // namespace lots::core
