// The async fetch engine: pipelined multi-object fetches (lots::touch /
// lots::prefetch over Endpoint::request_async) and the demand fetch of
// one that shares their settle step.
//
// Covered here:
//  * pipelined scans produce digests bit-identical to the synchronous
//    demand path — in-proc, across hybrid process×thread splits, and as
//    real forked processes over lossy UDP (drop + reorder + duplication
//    underneath the window);
//  * the per-word stamp discipline on a fetched copy: it must never
//    regress a word a lock token's scope chain already made newer
//    locally, whether a demand fault or a prefetch window fetched it,
//    nor after the copy was swapped out;
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

Config engine_cfg(int nprocs, size_t window, int threads = 1) {
  Config c;
  c.nprocs = nprocs;
  c.dmm_bytes = 16u << 20;
  c.threads_per_node = threads;
  c.fetch_window = window;
  return c;
}

// ---------------------------------------------------------------------------
// Digest parity: the pipelined scan reads exactly what the synchronous
// demand scan reads.
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
  const uint64_t want = scan_digest(engine_cfg(4, 1), /*use_touch=*/false);

  NodeStats piped;
  const uint64_t got = scan_digest(engine_cfg(4, 8), /*use_touch=*/true, &piped);
  EXPECT_EQ(got, want) << "pipelined scan diverged from the demand scan";
  EXPECT_GT(piped.fetch_pipelined.load(), 0u) << "touch never used the async window";
  EXPECT_GT(piped.prefetch_hits.load(), 0u) << "no access was served warm";
}

TEST(FetchEngine, HybridProcessThreadSplitsBitIdentical) {
  const uint64_t w4x1 = scan_digest(engine_cfg(4, 8, 1), true);
  const uint64_t w2x2 = scan_digest(engine_cfg(2, 8, 2), true);
  const uint64_t w1x4 = scan_digest(engine_cfg(1, 8, 4), true);
  EXPECT_EQ(w4x1, w2x2) << "2 procs x 2 threads diverged from 4x1";
  EXPECT_EQ(w4x1, w1x4) << "1 proc x 4 threads diverged from 4x1";
}

// ---------------------------------------------------------------------------
// Stamp discipline: a fetched copy must not regress a word a lock chain
// already made newer locally.
// ---------------------------------------------------------------------------

/// Rank 1 holds an invalid copy of `tail` whose word 0 a lock grant's
/// scope chain made newer than the home's cut, then brings the copy in
/// by a demand fault or through a lots::prefetch window, after swapping
/// it out when `evict_first`.
void chain_word_survives_fetch(bool via_prefetch, bool evict_first = false) {
  constexpr int kObjs = 6;
  constexpr int kInts = 16;
  constexpr int kChainValue = 777001;
  Runtime rt(engine_cfg(3, 8));
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
      Node& n = Runtime::self();
      ASSERT_FALSE(n.is_valid(tail.id())) << "the barrier left tail valid";
      if (evict_first) {
        n.force_swap_out(tail.id());
        ASSERT_FALSE(n.is_mapped(tail.id()));
      }
      const uint64_t fetches_before = n.stats().object_fetches.load();
      if (via_prefetch) {
        lots::prefetch(std::vector<ObjectId>{tail.id()});
        ASSERT_TRUE(n.is_valid(tail.id())) << "the prefetch window did not fetch tail";
      }
      // The fetched copy must keep the chain's (newer) word and take the
      // home's values for everything else.
      EXPECT_EQ(tail[0], kChainValue)
          << "fetched copy regressed a locally-newer word (stamp discipline broken)";
      EXPECT_EQ(tail[1], (kObjs - 1) * 2000 + 1);
      EXPECT_EQ(n.stats().object_fetches.load(), fetches_before + 1);
      if (via_prefetch) {
        EXPECT_GT(n.stats().prefetch_hits.load(), 0u);
      }
      lots::release(7);
    }
    lots::barrier();
    // Cluster-wide agreement after the next barrier: the chain word won.
    EXPECT_EQ(tail[0], kChainValue);
    EXPECT_EQ(tail[1], (kObjs - 1) * 2000 + 1);
    lots::barrier();
  });
}

TEST(FetchEngine, FetchedCopyNeverRegressesLocallyNewerWord) {
  chain_word_survives_fetch(/*via_prefetch=*/false);
  chain_word_survives_fetch(/*via_prefetch=*/true);
}

TEST(FetchEngine, EvictedCopyKeepsAChainWordThroughTheRefetch) {
  // The word stamped past the copy's base keeps the swapped-out image
  // (the home does not hold the word yet), and the reply, a full copy
  // at a cut below that stamp, is applied over the mapped-in image
  // rather than into a fresh block.
  chain_word_survives_fetch(/*via_prefetch=*/false, /*evict_first=*/true);
}

// ---------------------------------------------------------------------------
// Redirects while a window is outstanding
// ---------------------------------------------------------------------------

TEST(FetchEngine, RedirectMidPipelineChasesMigratedHome) {
  constexpr int kObjs = 24;
  constexpr int kInts = 64;
  Runtime rt(engine_cfg(3, 8));
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
// pipelined window.
// ---------------------------------------------------------------------------

TEST(FetchEngine, PipelinedScanSurvivesLossyUdpBitIdentical) {
  constexpr int kProcs = 2;
  // Reference: synchronous demand scan on the in-proc fabric.
  const uint64_t want = scan_digest(engine_cfg(kProcs, 1), /*use_touch=*/false);

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
        Config cfg = engine_cfg(kProcs, 8);
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
