// The async fetch engine: pipelined multi-object fetches (lots::touch /
// lots::prefetch over Endpoint::request_async) and the sequential
// prefetcher's neighbor diffs piggybacked on the kObjData reply.
//
// Covered here:
//  * pipelined + prefetched scans produce digests bit-identical to the
//    synchronous demand path — in-proc, across hybrid process×thread
//    splits, and as real forked processes over lossy UDP (drop +
//    reorder + duplication underneath the window);
//  * the per-word stamp discipline on piggybacked neighbors: a landed
//    diff must never regress a word a lock token's scope chain already
//    made newer locally (the regression the blocking path fixed in the
//    multi-thread PR, re-proven for the prefetch path);
//  * home redirects while a pipelined window is outstanding (the home
//    migrated or the requester's view was stale) resolve without
//    losing the window or its in-flight guards.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "cluster/bootstrap.hpp"
#include "common/tempdir.hpp"
#include "core/api.hpp"

namespace lots::core {
namespace {

uint64_t fnv_mix(uint64_t h, uint64_t v) { return (h ^ v) * 1099511628211ULL; }

Config engine_cfg(int nprocs, size_t window, size_t degree, int threads = 1) {
  Config c;
  c.nprocs = nprocs;
  c.dmm_bytes = 16u << 20;
  c.threads_per_node = threads;
  c.fetch_window = window;
  c.prefetch_degree = degree;
  return c;
}

// ---------------------------------------------------------------------------
// Digest parity: the pipelined/prefetched scan reads exactly what the
// synchronous demand scan reads.
// ---------------------------------------------------------------------------

constexpr int kScanObjects = 48;
constexpr int kScanInts = 192;

/// Writers fill worker-partitioned objects, barrier migrates the homes,
/// then every worker scans the whole space (optionally warming batches
/// with lots::prefetch first). Returns the per-worker hashes folded in
/// worker order; `per_worker_out` exposes the raw slots (only locally
/// hosted workers fill theirs — relevant under the UDP fabric).
uint64_t scan_digest(const Config& cfg, bool use_touch, NodeStats* stats_out = nullptr,
                     std::vector<uint64_t>* per_worker_out = nullptr) {
  Runtime rt(cfg);
  const int workers = cfg.nprocs * cfg.threads_per_node;
  std::vector<uint64_t> per_worker(static_cast<size_t>(workers), 0);
  rt.run([&](int) {
    const int w = lots::my_worker();
    std::vector<Pointer<int>> objs(kScanObjects);
    for (auto& o : objs) o.alloc(kScanInts);
    const int per = kScanObjects / lots::num_workers();
    for (int k = w * per; k < (w + 1) * per; ++k) {
      for (int i = 0; i < kScanInts; ++i) {
        objs[static_cast<size_t>(k)][static_cast<size_t>(i)] = k * 7919 + i * 13 + 1;
      }
    }
    lots::barrier();
    uint64_t h = 1469598103934665603ULL;
    const int start = w * per;
    for (int k = 0; k < kScanObjects; ++k) {
      const int idx = (start + k) % kScanObjects;
      if (use_touch && k % 16 == 0) {
        std::vector<ObjectId> batch;
        for (int j = k; j < k + 16 && j < kScanObjects; ++j) {
          batch.push_back(objs[static_cast<size_t>((start + j) % kScanObjects)].id());
        }
        lots::prefetch(batch);
      }
      for (int i = 0; i < kScanInts; i += 5) {
        h = fnv_mix(h, static_cast<uint64_t>(
                           objs[static_cast<size_t>(idx)][static_cast<size_t>(i)]));
      }
    }
    per_worker[static_cast<size_t>(w)] = h;
    lots::barrier();
  });
  if (stats_out) rt.aggregate_stats(*stats_out);
  if (per_worker_out) *per_worker_out = per_worker;
  uint64_t digest = 0;
  for (uint64_t h : per_worker) digest = fnv_mix(digest, h);
  return digest;
}

TEST(FetchEngine, PipelinedTouchMatchesSynchronousDemandDigest) {
  const uint64_t want = scan_digest(engine_cfg(4, 1, 0), /*use_touch=*/false);

  NodeStats piped;
  const uint64_t got = scan_digest(engine_cfg(4, 8, 4), /*use_touch=*/true, &piped);
  EXPECT_EQ(got, want) << "pipelined+prefetched scan diverged from the demand scan";
  EXPECT_GT(piped.fetch_pipelined.load(), 0u) << "touch never used the async window";
  EXPECT_GT(piped.prefetch_issued.load(), 0u) << "no piggyback wish-lists went out";
  EXPECT_GT(piped.prefetch_hits.load(), 0u) << "no access was served warm";

  NodeStats demand;
  const uint64_t base = scan_digest(engine_cfg(4, 1, 0), false, &demand);
  EXPECT_EQ(base, want);
  // The piggyback replaces demand round trips outright, not just
  // overlaps them.
  EXPECT_LT(piped.object_fetches.load(), demand.object_fetches.load());
}

TEST(FetchEngine, HybridProcessThreadSplitsBitIdentical) {
  const uint64_t w4x1 = scan_digest(engine_cfg(4, 8, 4, 1), true);
  const uint64_t w2x2 = scan_digest(engine_cfg(2, 8, 4, 2), true);
  const uint64_t w1x4 = scan_digest(engine_cfg(1, 8, 4, 4), true);
  EXPECT_EQ(w4x1, w2x2) << "2 procs x 2 threads diverged from 4x1";
  EXPECT_EQ(w4x1, w1x4) << "1 proc x 4 threads diverged from 4x1";
}

// ---------------------------------------------------------------------------
// Stamp discipline: a piggybacked neighbor diff must not regress a word
// a lock chain already made newer locally.
// ---------------------------------------------------------------------------

TEST(FetchEngine, PiggybackedNeighborNeverRegressesLocallyNewerWord) {
  constexpr int kObjs = 6;  // O1..O5 scanned; O6 arrives as a neighbor
  constexpr int kInts = 16;
  constexpr int kChainValue = 777001;
  Runtime rt(engine_cfg(3, 1, 4));
  rt.run([&](int rank) {
    std::vector<Pointer<int>> objs(kObjs);
    for (auto& o : objs) o.alloc(kInts);
    auto& tail = objs[kObjs - 1];

    // Round 1: rank 0 writes everything; everyone else reads, so every
    // rank holds a mapped copy (the retained diff base later).
    if (rank == 0) {
      for (int k = 0; k < kObjs; ++k) {
        for (int i = 0; i < kInts; ++i) {
          objs[static_cast<size_t>(k)][static_cast<size_t>(i)] = k * 1000 + i;
        }
      }
    }
    lots::barrier();
    int sink = 0;
    for (int k = 0; k < kObjs; ++k) sink += objs[static_cast<size_t>(k)][0];
    ASSERT_GT(sink, 0);
    lots::run_barrier();

    // Round 2: rank 0 rewrites everything; the barrier invalidates the
    // other ranks' mapped copies (stale bases retained).
    if (rank == 0) {
      for (int k = 0; k < kObjs; ++k) {
        for (int i = 0; i < kInts; ++i) {
          objs[static_cast<size_t>(k)][static_cast<size_t>(i)] = k * 2000 + i;
        }
      }
    }
    lots::barrier();

    // Rank 2's critical section writes tail[0]; the run_barrier orders
    // it strictly before rank 1's acquire, so the grant chain carries
    // that word to rank 1 at an epoch newer than the home's cut.
    if (rank == 2) {
      lots::acquire(7);
      tail[0] = kChainValue;
      lots::release(7);
    }
    lots::run_barrier();
    if (rank == 1) {
      lots::acquire(7);  // applies the chain: tail[0] is locally newer now
      // Ascending scan of O1..O5: the stride predictor's wish-lists pull
      // the tail object in as a piggybacked neighbor diff.
      uint64_t fetches_before = Runtime::self().stats().object_fetches.load();
      int scan = 0;
      for (int k = 0; k < kObjs - 1; ++k) scan += objs[static_cast<size_t>(k)][1];
      ASSERT_EQ(scan, (0 + 1 + 2 + 3 + 4) * 2000 + 5 * 1);
      ASSERT_TRUE(Runtime::self().is_valid(tail.id()))
          << "tail object was not prefetch-landed by the scan's wish-lists";
      const uint64_t fetches_mid = Runtime::self().stats().object_fetches.load();
      // The landed neighbor must keep the chain's (newer) word and take
      // the home's values for everything else — without a round trip.
      EXPECT_EQ(tail[0], kChainValue)
          << "piggybacked diff regressed a locally-newer word (stamp discipline broken)";
      EXPECT_EQ(tail[1], (kObjs - 1) * 2000 + 1);
      EXPECT_EQ(Runtime::self().stats().object_fetches.load(), fetches_mid)
          << "reading the prefetched neighbor still paid a demand fetch";
      EXPECT_GT(Runtime::self().stats().prefetch_hits.load(), 0u);
      ASSERT_GT(fetches_mid, fetches_before);
      lots::release(7);
    }
    lots::barrier();
    // Cluster-wide agreement after the next barrier: the chain word won.
    EXPECT_EQ(tail[0], kChainValue);
    EXPECT_EQ(tail[1], (kObjs - 1) * 2000 + 1);
    lots::barrier();
  });
}

TEST(FetchEngine, InvalidationBetweenLandingAndAccessKeepsDiffBaseTruthful) {
  // The dangerous window: a piggybacked neighbor LANDS (pending parked,
  // copy marked valid) but nothing accesses it before the next barrier
  // invalidates it again and clears pending. The retained diff base
  // (valid_epoch) must then still describe what the DATA words hold —
  // if the landing had advanced it to the home's cut, the post-barrier
  // refetch would ask for a diff since a cut the data never reached and
  // silently keep stale words.
  constexpr int kObjs = 5;  // O1..O4 scanned; T = O5 lands as a neighbor
  constexpr int kInts = 16;
  Runtime rt(engine_cfg(2, 1, 4));
  rt.run([&](int rank) {
    std::vector<Pointer<int>> objs(kObjs);
    for (auto& o : objs) o.alloc(kInts);
    auto& t = objs[kObjs - 1];

    // Round 1: rank 0 writes everything, rank 1 reads everything (so
    // every copy is mapped and later retains a diff base).
    if (rank == 0) {
      for (int k = 0; k < kObjs; ++k) {
        for (int i = 0; i < kInts; ++i) {
          objs[static_cast<size_t>(k)][static_cast<size_t>(i)] = k * 100 + i + 1;
        }
      }
    }
    lots::barrier();
    int sink = 0;
    for (int k = 0; k < kObjs; ++k) sink += objs[static_cast<size_t>(k)][0];
    ASSERT_GT(sink, 0);
    lots::run_barrier();

    // Round 2: rank 0 touches word 5 of every object; rank 1's copies
    // go invalid with their round-1 bases retained.
    if (rank == 0) {
      for (int k = 0; k < kObjs; ++k) objs[static_cast<size_t>(k)][5] = 222000 + k;
    }
    lots::barrier();

    // Rank 1 scans O1..O4 only: the stride wish-list pulls T in as a
    // piggybacked landing that nobody accesses.
    if (rank == 1) {
      int scan = 0;
      for (int k = 0; k < kObjs - 1; ++k) scan += objs[static_cast<size_t>(k)][5];
      ASSERT_EQ(scan, 4 * 222000 + 0 + 1 + 2 + 3);
      ASSERT_TRUE(Runtime::self().is_valid(t.id()))
          << "tail object was not prefetch-landed by the scan's wish-lists";
    }
    lots::run_barrier();

    // Round 3: rank 0 touches word 9 of T; the barrier invalidates rank
    // 1's landed-but-unread copy and discards its pending record.
    if (rank == 0) t[9] = 333999;
    lots::barrier();
    // Rank 1's refetch must recover BOTH the round-2 word (which only
    // ever existed in the discarded pending record) and the round-3
    // word. An overstated diff base loses word 5 here.
    EXPECT_EQ(t[5], 222000 + kObjs - 1)
        << "discarded prefetch landing left a lying diff base (lost update)";
    EXPECT_EQ(t[9], 333999);
    EXPECT_EQ(t[0], (kObjs - 1) * 100 + 1);
    lots::barrier();
  });
}

// ---------------------------------------------------------------------------
// Redirects while a window is outstanding
// ---------------------------------------------------------------------------

TEST(FetchEngine, RedirectMidPipelineChasesMigratedHome) {
  constexpr int kObjs = 24;
  constexpr int kInts = 64;
  Runtime rt(engine_cfg(3, 8, 0));
  rt.run([&](int rank) {
    std::vector<Pointer<int>> objs(kObjs);
    for (auto& o : objs) o.alloc(kInts);
    if (rank == 0) {
      for (int k = 0; k < kObjs; ++k) {
        for (int i = 0; i < kInts; ++i) {
          objs[static_cast<size_t>(k)][static_cast<size_t>(i)] = k * 31 + i;
        }
      }
    }
    lots::barrier();  // homes migrate to rank 0
    if (rank == 1) {
      Node& n = Runtime::self();
      // Poison the local home view: rank 2 never homed these objects, so
      // every pipelined fetch must follow a redirect back to rank 0 —
      // exactly what a home migration under an outstanding window looks
      // like to the requester.
      std::vector<ObjectId> ids;
      for (const auto& o : objs) {
        ids.push_back(o.id());
        auto lk = n.directory().lock_shard(o.id());
        ObjectMeta& m = n.directory().get(o.id());
        ASSERT_EQ(m.home, 0);
        m.home = 2;
      }
      lots::prefetch(ids);
      int sum = 0;
      for (int k = 0; k < kObjs; ++k) sum += objs[static_cast<size_t>(k)][2];
      int want = 0;
      for (int k = 0; k < kObjs; ++k) want += k * 31 + 2;
      EXPECT_EQ(sum, want) << "redirect-mid-pipeline lost or corrupted a fetch";
      EXPECT_EQ(n.home_of(objs[0].id()), 0) << "redirect did not repair the home view";
    }
    lots::barrier();
  });
}

// ---------------------------------------------------------------------------
// Real processes, lossy UDP: drop + reorder + duplication underneath the
// pipelined window and the kObjData neighbor piggyback.
// ---------------------------------------------------------------------------

TEST(FetchEngine, PipelinedScanSurvivesLossyUdpBitIdentical) {
  constexpr int kProcs = 2;
  // Reference: synchronous demand scan on the in-proc fabric.
  const uint64_t want = scan_digest(engine_cfg(kProcs, 1, 0), /*use_touch=*/false);

  TempDir scratch;
  const std::string digest_path = scratch.path() + "/digest";

  // Fork discipline as in tests/cluster/multiproc_test.cpp: no threads
  // exist at fork time, children leave via _exit, results via files.
  cluster::Coordinator coord(kProcs);
  std::vector<pid_t> pids;
  for (int i = 0; i < kProcs; ++i) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
      int code = 3;
      try {
        Config cfg = engine_cfg(kProcs, 8, 4);
        cfg.cluster.fabric = FabricKind::kUdp;
        cfg.cluster.coord_port = coord.port();
        cfg.cluster.drop_prob = 0.05;
        cfg.cluster.reorder_prob = 0.05;
        cfg.cluster.dup_prob = 0.02;
        cfg.cluster.fault_seed = 1234;
        NodeStats stats;
        std::vector<uint64_t> per_worker;
        scan_digest(cfg, /*use_touch=*/true, &stats, &per_worker);
        // This process hosted exactly one rank (arrival-order assigned):
        // its slot is the only filled one. Report keyed by RANK so the
        // parent can fold the hashes in worker order.
        for (size_t r = 0; r < per_worker.size(); ++r) {
          if (per_worker[r] == 0) continue;
          std::ofstream(digest_path + std::to_string(r))
              << per_worker[r] << " " << stats.fetch_pipelined.load();
        }
        code = 0;
      } catch (...) {
        code = 3;
      }
      _exit(code);
    }
    pids.push_back(pid);
  }

  auto reports = coord.serve(60'000);
  for (const pid_t pid : pids) {
    int st = 0;
    ASSERT_EQ(waitpid(pid, &st, 0), pid);
    ASSERT_TRUE(WIFEXITED(st)) << "worker killed by signal";
    EXPECT_EQ(WEXITSTATUS(st), 0);
  }
  ASSERT_EQ(reports.size(), static_cast<size_t>(kProcs));
  for (const auto& r : reports) EXPECT_TRUE(r.clean) << "rank " << r.rank << " died unclean";

  // Fold the per-rank hashes exactly as scan_digest folds worker slots.
  uint64_t combined = 0;
  uint64_t pipelined_total = 0;
  for (int r = 0; r < kProcs; ++r) {
    std::ifstream in(digest_path + std::to_string(r));
    ASSERT_TRUE(in.good()) << "rank " << r << " never wrote its digest";
    uint64_t h = 0, piped = 0;
    in >> h >> piped;
    combined = fnv_mix(combined, h);
    pipelined_total += piped;
  }
  EXPECT_EQ(combined, want)
      << "lossy pipelined multi-process scan diverged from the in-proc demand scan";
  EXPECT_GT(pipelined_total, 0u) << "lossy run never exercised the async window";
}

}  // namespace
}  // namespace lots::core
