// Multi-threaded application stress for the N-app-thread mapper
// (ISSUE 3 tentpole): M app threads per node hammer shared objects
// under eviction pressure (tiny DMM budget) while force_swap_out races
// the access path, and the result must be BIT-identical to a
// single-threaded reference run of the same schedule. After every run
// the per-node mapping-state invariants are audited: no in-flight guard
// left set, DMM allocations exactly match mapped objects, and no two
// mapped objects overlap in the arena.
//
// The schedule is seeded and randomized. The seed comes from
// LOTS_MT_SEED when set (replay) and std::random_device otherwise, and
// is printed both up front and in every assertion message, so a CI
// failure is reproducible with  LOTS_MT_SEED=<seed> ./core_mt_access_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/api.hpp"

namespace lots {
namespace {

uint64_t pick_seed() {
  if (const char* s = std::getenv("LOTS_MT_SEED")) {
    return std::strtoull(s, nullptr, 10);
  }
  return std::random_device{}();
}

/// FNV-1a over a stream of u64s.
struct Digest {
  uint64_t h = 1469598103934665603ull;
  void mix(uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
};

// Geometry: 96 × 8 KB objects (768 KB working set) against a 512 KB DMM
// window — constant eviction, while keeping the mappable object count
// (~64) comfortably above the pin window (8 stamps × up to 6 app
// threads), so the paper's §5 "everything pinned" failure mode cannot
// trigger spuriously.
constexpr int kObjs = 96;
constexpr int kInts = 2048;  // 8 KB per object
constexpr int kRounds = 5;

/// Runs the seeded schedule on a (nprocs × threads) cluster with a DMM
/// window far smaller than the working set (constant eviction) and
/// optional force_swap_out chaos, returning a digest of the final
/// shared state. Every worker draws the SAME write schedule stream —
/// per (round, object) a single writer is chosen, so the final content
/// is a function of the seed alone, independent of the process/thread
/// split. Chaos swap-outs use a per-worker stream: they change
/// scheduling, never content.
uint64_t run_schedule(int nprocs, int threads, uint64_t seed, bool chaos, bool alb = true) {
  Config c;
  c.nprocs = nprocs;
  c.threads_per_node = threads;
  c.alb = alb;  // default ON: chaos force_swap_outs race cached ALB hits
  c.dmm_bytes = 512u << 10;  // maps ~64 of the 96 objects: swap pressure
  core::Runtime rt(c);
  uint64_t digest = 0;
  rt.run([&](int rank) {
    const int M = lots::num_threads();
    const int W = lots::num_workers();
    const int w = lots::my_worker();
    std::vector<core::Pointer<int>> objs(kObjs);
    for (auto& o : objs) o.alloc(kInts);
    // Ground truth mirror: values are drawn from the shared stream
    // whether or not this worker is the writer, so every worker knows
    // the expected content of every object after each barrier.
    std::vector<std::vector<int>> mirror(kObjs, std::vector<int>(kInts, 0));
    lots::barrier();
    Rng sched(seed);              // identical stream on every worker
    Rng chaos_rng(seed * 31 + static_cast<uint64_t>(w) + 1);
    for (int round = 0; round < kRounds; ++round) {
      // Draw the ENTIRE round's schedule first (every worker draws the
      // identical plan from the shared stream): the chaos below needs
      // to know each object's writer before any thread starts writing.
      std::vector<int> writer_of(kObjs);
      std::vector<std::vector<std::pair<size_t, int>>> writes(kObjs);
      for (int k = 0; k < kObjs; ++k) {
        writer_of[static_cast<size_t>(k)] = static_cast<int>(sched.below(static_cast<uint64_t>(W)));
        const int count = 1 + static_cast<int>(sched.below(24));
        for (int i = 0; i < count; ++i) {
          const auto idx = static_cast<size_t>(sched.below(kInts));
          const int val = static_cast<int>(sched.next_u32() >> 1);
          mirror[static_cast<size_t>(k)][idx] = val;
          writes[static_cast<size_t>(k)].emplace_back(idx, val);
        }
      }
      // Execute my share, interleaved with chaos swap-outs. Chaos is
      // never aimed at an object a SIBLING thread writes this round: a
      // forced unmap would yank the writer's statement-pinned reference
      // — the pinning contract that real eviction honors via the pin
      // window. Objects written remotely or by this very thread (or not
      // at all) are fair game, racing sibling ACCESS checks and other
      // chaos calls — the in-flight guard + force_swap_out fix under
      // test.
      for (int k = 0; k < kObjs; ++k) {
        if (writer_of[static_cast<size_t>(k)] == w) {
          for (const auto& [idx, val] : writes[static_cast<size_t>(k)]) {
            objs[static_cast<size_t>(k)][idx] = val;
          }
        }
        if (chaos && chaos_rng.below(8) == 0) {
          const auto tgt = static_cast<size_t>(chaos_rng.below(kObjs));
          const int tw = writer_of[tgt];
          const bool sibling_writes = tw != w && tw / M == rank;
          if (!sibling_writes) {
            core::Runtime::self().force_swap_out(objs[tgt].id());
          }
        }
      }
      lots::barrier();
      // Cross-worker probes: every worker faults a random subset of the
      // objects back in concurrently (contended map-in of the SAME
      // object from several threads) and checks content against the
      // mirror.
      for (int p = 0; p < 96; ++p) {
        const auto k = static_cast<size_t>(sched.below(kObjs));
        const auto idx = static_cast<size_t>(sched.below(kInts));
        EXPECT_EQ(objs[k][idx], mirror[k][idx])
            << "round " << round << " worker " << w << " (seed " << seed << ")";
      }
      lots::barrier();
    }
    if (w == 0) {
      Digest d;
      for (auto& o : objs) {
        for (size_t i = 0; i < kInts; ++i) {
          d.mix(static_cast<uint64_t>(static_cast<uint32_t>(o[i])));
        }
      }
      digest = d.h;
    }
    lots::barrier();
  });

  // ---- mapping-state invariants, per node, post-quiescence ----
  for (core::Node* n : rt.local_nodes()) {
    size_t mapped = 0;
    std::vector<std::pair<size_t, size_t>> extents;
    n->directory().for_each([&](core::ObjectMeta& m) {
      EXPECT_FALSE(m.inflight) << "in-flight guard leaked on object " << m.id
                               << " (seed " << seed << ")";
      if (m.map == core::MapState::kMapped) {
        ++mapped;
        extents.emplace_back(m.dmm_offset, core::word_bytes(m));
        EXPECT_GE(n->dmm().size_of(m.dmm_offset), core::word_bytes(m))
            << "mapped object " << m.id << " outgrew its DMM block (seed " << seed << ")";
      }
    });
    EXPECT_EQ(n->dmm().allocation_count(), mapped)
        << "rank " << n->rank() << ": DMM allocations != mapped objects — "
        << "an eviction/map-in race leaked or double-freed a block (seed " << seed << ")";
    std::sort(extents.begin(), extents.end());
    for (size_t i = 1; i < extents.size(); ++i) {
      EXPECT_LE(extents[i - 1].first + extents[i - 1].second, extents[i].first)
          << "rank " << n->rank() << ": overlapping DMM mappings (seed " << seed << ")";
    }
  }
  return digest;
}

TEST(MtAccess, RandomizedStressMatchesSingleThreadedReference) {
  const uint64_t seed = pick_seed();
  std::printf("[ mt_access ] seed=%llu (replay: LOTS_MT_SEED=%llu)\n",
              static_cast<unsigned long long>(seed), static_cast<unsigned long long>(seed));
  std::fflush(stdout);  // survive a ctest TIMEOUT kill: the seed is the replay key
  SCOPED_TRACE("replay with LOTS_MT_SEED=" + std::to_string(seed));

  // Reference: 6 single-threaded nodes — the historical model. The
  // schedule is over W=6 workers in every configuration below.
  const uint64_t want = run_schedule(/*nprocs=*/6, /*threads=*/1, seed, /*chaos=*/false);
  ASSERT_NE(want, 0u);

  // 2 nodes × 3 app threads, chaos on: same final bits.
  EXPECT_EQ(run_schedule(2, 3, seed, true), want)
      << "hybrid 2x3 diverged from the single-threaded reference (seed " << seed << ")";
  // 1 node × 6 app threads: pure intra-node concurrency, chaos on.
  EXPECT_EQ(run_schedule(1, 6, seed, true), want)
      << "hybrid 1x6 diverged from the single-threaded reference (seed " << seed << ")";
  // And the reference shape itself with chaos, closing the loop.
  EXPECT_EQ(run_schedule(6, 1, seed, true), want)
      << "chaos changed single-threaded content (seed " << seed << ")";
}

TEST(MtAccess, AlbStressedByChaosMatchesAlbOffReference) {
  // The access lookaside buffer under maximum hostility: sibling
  // force_swap_outs and evictions race cached hits on 2 nodes × 3 app
  // threads (every chaos swap-out bumps the victim's shard generation
  // while sibling threads replay hits on it), and the final bits must
  // equal the same seeded schedule with the ALB disabled entirely. A
  // single stale hit — a read through a dead mapping or a write into a
  // recycled DMM block — diverges the digest.
  const uint64_t seed = pick_seed();
  std::printf("[ mt_access/alb ] seed=%llu (replay: LOTS_MT_SEED=%llu)\n",
              static_cast<unsigned long long>(seed), static_cast<unsigned long long>(seed));
  std::fflush(stdout);
  SCOPED_TRACE("replay with LOTS_MT_SEED=" + std::to_string(seed));
  const uint64_t want = run_schedule(2, 3, seed, /*chaos=*/true, /*alb=*/false);
  ASSERT_NE(want, 0u);
  EXPECT_EQ(run_schedule(2, 3, seed, /*chaos=*/true, /*alb=*/true), want)
      << "ALB-enabled chaos run diverged from the ALB-off run (seed " << seed << ")";
  EXPECT_EQ(run_schedule(1, 6, seed, /*chaos=*/true, /*alb=*/true), want)
      << "ALB-enabled 1x6 chaos run diverged (seed " << seed << ")";
}

TEST(MtAccess, SameObjectContendedFaultInFromManyThreads) {
  // A writer on node 1 invalidates node 0's copy every barrier; all 4
  // app threads of node 0 then read the object at once. The first one
  // in runs fetch_clean_copy — which drops the shard lock around the
  // blocking request, with the in-flight guard held — and its siblings
  // must park on the guard (or arrive after it settles), never issue a
  // second fetch for the same miss, and all read the new value.
  Config c;
  c.nprocs = 2;
  c.threads_per_node = 4;
  core::Runtime rt(c);
  constexpr int kRoundsLocal = 40;
  rt.run([&](int) {
    core::Pointer<int> obj;
    obj.alloc(4096);
    const int w = lots::my_worker();
    lots::barrier();
    for (int round = 0; round < kRoundsLocal; ++round) {
      if (w == 4) {  // thread 0 of rank 1: the object's lone writer
        obj[static_cast<size_t>(round)] = round * 17 + 1;
      }
      lots::barrier();
      // Node 0's four threads fault the invalidated copy concurrently.
      EXPECT_EQ(obj[static_cast<size_t>(round)], round * 17 + 1)
          << "round " << round << " worker " << w;
      lots::barrier();
    }
  });
  // Exactly one fetch per miss: node 0 issued at most one object fetch
  // per round no matter how many threads faulted...
  EXPECT_LE(rt.node(0).stats().object_fetches.load(),
            static_cast<uint64_t>(kRoundsLocal) + 8);
  // ...and across 40 rounds × 3 sibling threads, some thread certainly
  // parked behind the in-flight fetch at least once.
  EXPECT_GT(rt.node(0).stats().inflight_waits.load(), 0u);
}

TEST(MtAccess, HybridSorSplitsAreBitIdentical) {
  // The acceptance shape: SOR on 1×4, 2×2 and 4×1 produces bit-identical
  // grids. The digest covers every row's every double (bit pattern, not
  // tolerance).
  auto sor_digest = [](int nprocs, int threads) -> uint64_t {
    constexpr size_t kN = 64;
    constexpr int kIters = 6;
    Config c;
    c.nprocs = nprocs;
    c.threads_per_node = threads;
    c.dmm_bytes = 8u << 20;
    core::Runtime rt(c);
    uint64_t digest = 0;
    rt.run([&](int) {
      const int W = lots::num_workers();
      const int w = lots::my_worker();
      std::vector<core::Pointer<double>> rows(kN);
      for (auto& r : rows) r.alloc(kN);
      const size_t lo = kN * static_cast<size_t>(w) / static_cast<size_t>(W);
      const size_t hi = kN * static_cast<size_t>(w + 1) / static_cast<size_t>(W);
      for (size_t i = lo; i < hi; ++i) {
        for (size_t j = 0; j < kN; ++j) {
          rows[i][j] = static_cast<double>((i * 37 + j * 11) % 100) / 10.0;
        }
      }
      for (int it = 0; it < kIters; ++it) {
        for (int colour = 0; colour < 2; ++colour) {
          lots::barrier();
          for (size_t i = std::max<size_t>(lo, 1); i < std::min(hi, kN - 1); ++i) {
            for (size_t j = 1; j + 1 < kN; ++j) {
              if (((i + j) & 1) != static_cast<size_t>(colour)) continue;
              rows[i][j] =
                  0.25 * (rows[i - 1][j] + rows[i + 1][j] + rows[i][j - 1] + rows[i][j + 1]);
            }
          }
        }
      }
      lots::barrier();
      if (w == 0) {
        Digest d;
        for (size_t i = 0; i < kN; ++i) {
          for (size_t j = 0; j < kN; ++j) {
            const double v = rows[i][j];
            uint64_t bits;
            static_assert(sizeof(bits) == sizeof(v));
            std::memcpy(&bits, &v, sizeof(bits));
            d.mix(bits);
          }
        }
        digest = d.h;
      }
      lots::barrier();
    });
    return digest;
  };

  const uint64_t ref = sor_digest(4, 1);
  ASSERT_NE(ref, 0u);
  EXPECT_EQ(sor_digest(1, 4), ref) << "1 process x 4 app threads diverged";
  EXPECT_EQ(sor_digest(2, 2), ref) << "2 processes x 2 app threads diverged";
}

TEST(MtAccess, SiblingCriticalSectionsKeepSeparateLockScopes) {
  // Two sibling threads of node 0 run critical sections under DIFFERENT
  // locks at the same time: thread 1 writes y under lock 2 while thread
  // 0 churns lock 1. A node-wide release flush would let thread 0's
  // release(1) consume thread 1's y-twin and attach the y-diff to lock
  // 1's token — and node 1's acquire(2) would then miss it. The reader
  // deliberately depends on lock 2's scope chain ALONE: rounds are
  // separated only by event-only run_barriers (no invalidation, no
  // flush), so a fetch can never mask a lost chain record.
  Config c;
  c.nprocs = 2;
  c.threads_per_node = 2;
  core::Runtime rt(c);
  constexpr int kScopeRounds = 40;
  constexpr int kScopeCells = 64;
  rt.run([&](int) {
    const int w = lots::my_worker();
    core::Pointer<int> x, y;
    x.alloc(kScopeCells);
    y.alloc(kScopeCells);
    lots::barrier();
    for (int round = 0; round < kScopeRounds; ++round) {
      if (w == 1) {  // node 0, thread 1: lock 2's critical section
        lots::acquire(2);
        for (int i = 0; i < kScopeCells; ++i) {
          y[static_cast<size_t>(i)] = round * 1000 + i;
          // Hand the (possibly single) CPU to the sibling mid-section,
          // so its lock-1 releases really do overlap this scope.
          std::this_thread::yield();
        }
        lots::release(2);
      } else if (w == 0) {  // node 0, thread 0: concurrent lock-1 churn
        for (int k = 0; k < 8; ++k) {
          lots::acquire(1);
          x[static_cast<size_t>(k % kScopeCells)] = round + k;
          lots::release(1);
        }
      }
      lots::run_barrier();  // event-only: orders the release before the
                            // remote acquire with NO memory effect
      if (w == 2) {  // node 1: lock 2's scope must carry the writes
        lots::acquire(2);
        for (int i = 0; i < kScopeCells; ++i) {
          EXPECT_EQ(y[static_cast<size_t>(i)], round * 1000 + i)
              << "round " << round
              << ": lock 2's scope chain lost a sibling critical-section write";
        }
        lots::release(2);
      }
      lots::run_barrier();
    }
    lots::barrier();
  });
}

TEST(MtAccess, LockScopeCoversTwinsCreatedBySiblingThreads) {
  // The converse hazard of the previous test: thread 0 of node 0 twins
  // object O with a PLAIN (unlocked) write; thread 1 then writes O
  // inside lock 5's critical section. Thread 1's release must ship its
  // write on lock 5's token even though the twin belongs to thread 0 —
  // that is what the per-access twin_writers attribution buys. The
  // remote reader again depends on the scope chain alone (event-only
  // run_barriers between the steps, never a barrier).
  Config c;
  c.nprocs = 2;
  c.threads_per_node = 2;
  core::Runtime rt(c);
  constexpr int kTwinRounds = 20;
  rt.run([&](int) {
    const int w = lots::my_worker();
    core::Pointer<int> obj;
    obj.alloc(64);
    lots::barrier();
    for (int round = 0; round < kTwinRounds; ++round) {
      if (w == 0) obj[0] = round + 1;  // plain write: creates the twin
      lots::run_barrier();
      if (w == 1) {  // sibling writes under lock 5 into thread 0's twin
        lots::acquire(5);
        obj[1] = round * 100 + 7;
        lots::release(5);
      }
      lots::run_barrier();
      if (w == 2) {  // node 1: the scope chain alone must carry obj[1]
        lots::acquire(5);
        EXPECT_EQ(obj[1], round * 100 + 7)
            << "round " << round << ": lock 5's chain missed a write into a "
            << "sibling-created twin";
        lots::release(5);
      }
      lots::run_barrier();
    }
    lots::barrier();
  });
}

TEST(MtAccess, StaleAlbEntriesNeverReadAReusedBlock) {
  // A freed DMM block keeps its bytes, and the next object mapped there
  // overwrites them, so a stale ALB pointer reads another object's words
  // rather than zeros. Every word here encodes (object id, version).
  // Per round, app threads 0 and 1 each own a third of the objects and
  // read-check-rewrite them in random order; thread 2 reads and swaps
  // out the idle third. The DMM holds a third of the objects, so map-ins
  // evict constantly and blocks change hands while ALB entries cached in
  // earlier rounds go stale. Any read of a foreign id or an old version
  // is a hit through a dead mapping.
  const uint64_t seed = pick_seed();
  std::printf("[ mt_access/reuse ] seed=%llu (replay: LOTS_MT_SEED=%llu)\n",
              static_cast<unsigned long long>(seed), static_cast<unsigned long long>(seed));
  std::fflush(stdout);
  SCOPED_TRACE("replay with LOTS_MT_SEED=" + std::to_string(seed));
  constexpr int kObjects = 384;
  constexpr int kWords = 256;  // 1 KB: four objects to a packing page
  constexpr int kRoundsHere = 6;
  constexpr int kOps = 300;
  Config c;
  c.nprocs = 1;
  c.threads_per_node = 3;
  c.dmm_bytes = 128u << 10;
  core::Runtime rt(c);
  std::vector<uint32_t> version(kObjects, 0);  // written by the owner, barrier-ordered
  std::atomic<int> foreign{0}, stale{0};
  rt.run([&](int) {
    const int t = lots::my_thread();
    std::vector<core::Pointer<int>> objs(kObjects);
    for (auto& o : objs) o.alloc(kWords);
    auto value = [&](int k) { return k * 4096 + static_cast<int>(version[static_cast<size_t>(k)]); };
    auto check = [&](int k, int words) {
      const int want = value(k);
      for (int i = 0; i < words; ++i) {
        const int got = objs[static_cast<size_t>(k)][static_cast<size_t>(i)];
        if (got / 4096 != k) foreign.fetch_add(1, std::memory_order_relaxed);
        else if (got != want) stale.fetch_add(1, std::memory_order_relaxed);
      }
    };
    for (int k = t; k < kObjects; k += 3) {
      for (int i = 0; i < kWords; ++i) objs[static_cast<size_t>(k)][static_cast<size_t>(i)] = value(k);
    }
    lots::barrier();
    Rng rng(seed * 7 + static_cast<uint64_t>(t) + 1);
    for (int round = 0; round < kRoundsHere; ++round) {
      // Object k is owned by thread (k + round) % 3 this round.
      auto pick = [&] {
        const int slot = static_cast<int>(rng.below(kObjects / 3));
        return ((slot * 3 + t - round) % kObjects + kObjects) % kObjects;
      };
      for (int op = 0; op < kOps; ++op) {
        const int k = pick();
        if (t == 2) {
          check(k, kWords / 8);
          core::Runtime::self().force_swap_out(objs[static_cast<size_t>(k)].id());
          continue;
        }
        check(k, kWords);
        auto& v = version[static_cast<size_t>(k)];
        v = (v + 1) % 4096;
        for (int i = 0; i < kWords; ++i) objs[static_cast<size_t>(k)][static_cast<size_t>(i)] = value(k);
      }
      lots::barrier();
    }
    for (int k = t; k < kObjects; k += 3) check(k, kWords);
    lots::barrier();
  });
  EXPECT_EQ(foreign.load(), 0) << "words of another object read through a stale mapping (seed "
                               << seed << ")";
  EXPECT_EQ(stale.load(), 0) << "words of an old version read (seed " << seed << ")";
  EXPECT_GT(rt.node(0).stats().evictions.load(), 0u);
}

TEST(MtAccess, AlbHitPinsHoldAgainstASiblingEvictor) {
  // The hit path's pin store -> fence -> generation load against the
  // evictor's bump -> fence -> pin recheck, with nothing else in the
  // way. Thread 0 cycles ALB hits over kHot objects, more than the pin
  // slots, and keeps the pointers of its last kPinSlots accesses, which
  // their pins protect, checking all of them after every access. The
  // DMM holds exactly the hot set, and the least recently hit unpinned
  // object is the one thread 0 hits next. So every cold object thread 1
  // maps in evicts that one, racing thread 0's hit on it (a skipped
  // fence lets the hit's pin store sit unseen in its store buffer).
  // Thread 1 swaps each cold object out again, so thread 0's re-map
  // finds a free block and the race repeats. Hot and cold objects sit in
  // disjoint directory shards, so only evictions defeat thread 0's
  // entries. A hit whose pin the evictor's recheck missed reads a cold
  // object's words through the block the eviction handed over.
  constexpr int kPinSlots = 8;  // Mapper's statement-pin ring
  constexpr int kHot = kPinSlots + 4;
  constexpr int kInts = 1024;  // 4 KB
  constexpr int kChecked = 128;  // words of each held object checked per access
  constexpr int kShards = static_cast<int>(core::ObjectDirectory::kDefaultShards);
  // Thread 0 runs until kRaces evictions have raced its hits, however
  // fast the host is, and stops at the first foreign read; kCap bounds
  // a slow host (sanitizers), where the floors below still hold.
  constexpr uint64_t kRaces = 500'000;
  constexpr auto kCap = std::chrono::seconds(20);
  Config c;
  c.nprocs = 1;
  c.threads_per_node = 2;
  c.dmm_bytes = kHot * kInts * sizeof(int);
  core::Runtime rt(c);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> foreign{0}, hot_accesses{0}, loop_hits{0};
  rt.run([&](int) {
    const int t = lots::my_thread();
    std::vector<core::Pointer<int>> objs(4 * kShards);
    for (auto& o : objs) o.alloc(kInts);
    // Ids start at 1: ids 1..kHot are hot, ids in shards past kHot cold.
    std::vector<size_t> hot, cold;
    for (size_t k = 0; k < objs.size(); ++k) {
      const auto shard = static_cast<int>(objs[k].id() % kShards);
      if (objs[k].id() <= kHot) hot.push_back(k);
      else if (shard == 0 || shard > kHot) cold.push_back(k);
    }
    auto sig = [&](size_t k) { return static_cast<int>(objs[k].id()) * 7919; };
    auto& node = core::Runtime::self();
    for (const size_t k : t == 0 ? hot : cold) {
      for (int i = 0; i < kInts; ++i) objs[k][static_cast<size_t>(i)] = sig(k);
      // At most one cold object is mapped at a time, so the DMM always
      // has a hot object to give up and never runs out of unpinned ones.
      if (t == 1) node.force_swap_out(objs[k].id());
    }
    lots::barrier();
    if (t == 0) {
      struct Held {
        const volatile int* p = nullptr;
        int want = 0;
      };
      std::array<Held, kPinSlots> held{};
      const uint64_t hits0 = node.stats().alb_hits.load();
      const uint64_t evictions0 = node.stats().evictions.load();
      const auto cap = std::chrono::steady_clock::now() + kCap;
      auto done = [&] {
        return foreign.load(std::memory_order_relaxed) != 0 ||
               node.stats().evictions.load(std::memory_order_relaxed) - evictions0 >= kRaces ||
               std::chrono::steady_clock::now() >= cap;
      };
      uint64_t n = 0;
      for (; n % 64 != 0 || !done(); ++n) {
        // Descending ids, against the eviction scan's ascending shard
        // order: a scan racing the same way could see every object pinned.
        const size_t k = hot[kHot - 1 - n % kHot];
        held[n % kPinSlots] = {&objs[k][0], sig(k)};  // one access check
        for (const Held& h : held) {
          for (int i = 0; h.p && i < kChecked; ++i) {
            if (h.p[i] != h.want) foreign.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      loop_hits = node.stats().alb_hits.load() - hits0;
      hot_accesses = n;
      stop = true;
    } else {
      for (size_t j = 0; !stop.load(); ++j) {
        const size_t k = cold[j % cold.size()];
        (void)static_cast<int>(objs[k][0]);  // map-in: evicts a hot object
        node.force_swap_out(objs[k].id());
      }
    }
    lots::barrier();
  });
  const uint64_t evictions = rt.node(0).stats().evictions.load();
  EXPECT_EQ(foreign.load(), 0u) << "words of another object read through a hit whose pin the "
                                << "evictor's recheck missed (" << hot_accesses.load()
                                << " accesses, " << loop_hits.load() << " hits, " << evictions
                                << " evictions)";
  EXPECT_GT(evictions, 1000u);
  EXPECT_GT(loop_hits.load(), 100u) << "thread 0 never raced an eviction with a hit";
}

TEST(MtAccess, CollectiveAllocYieldsOneIdPerNode) {
  // Sibling threads executing the same alloc sequence must share IDs —
  // and the ID sequence must match a single-threaded node's.
  Config c;
  c.nprocs = 2;
  c.threads_per_node = 4;
  core::Runtime rt(c);
  rt.run([&](int) {
    core::Pointer<int> a, b;
    a.alloc(16);
    b.alloc(16);
    EXPECT_EQ(a.id(), 1u);
    EXPECT_EQ(b.id(), 2u);
    lots::barrier();
    a[static_cast<size_t>(lots::my_worker())] = lots::my_worker();
    lots::barrier();
    for (int i = 0; i < lots::num_workers(); ++i) {
      EXPECT_EQ(a[static_cast<size_t>(i)], i);
    }
    lots::barrier();
    b.free();
    a.free();
  });
  for (core::Node* n : rt.local_nodes()) {
    EXPECT_EQ(n->directory().count(), 0u);
    EXPECT_EQ(n->dmm().allocation_count(), 0u);
  }
}

}  // namespace
}  // namespace lots
