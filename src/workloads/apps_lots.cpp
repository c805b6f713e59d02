// LOTS implementations of ME / LU / SOR / RX (paper §4.1).
//
// Access patterns are written to match the paper's analysis:
//  * ME  — chunk objects migrate between merging processes; barrier-only
//          synchronization; only the merging phase is timed (the paper
//          excludes local sorting).
//  * LU  — one object per matrix row: readers pull the pivot row, the
//          owner updates its own rows; no false sharing by construction.
//  * SOR — one object per grid row; every row has a single writer for
//          the whole program; slice-edge rows are read-shared.
//  * RX  — 256 shared bucket objects plus per-process histogram objects;
//          buckets are multi-writer (merged at the home at barriers),
//          the ping-pong pattern that costs LOTS at p=8.
#include <algorithm>
#include <array>
#include <cmath>

#include "common/clock.hpp"
#include "core/api.hpp"
#include "workloads/apps.hpp"
#include "workloads/reference.hpp"

namespace lots::work {
namespace {

using core::Pointer;
using core::Runtime;

/// Snapshot the run's counters into an AppResult. Only the ranks hosted
/// by this process contribute (all of them in-proc; one per process
/// under lots_launch).
void collect(Runtime& rt, AppResult& r) {
  NodeStats total;
  rt.aggregate_stats(total);
  r.msgs = total.msgs_sent.load();
  r.bytes = total.bytes_sent.load();
  r.fetches = total.object_fetches.load();
  r.diff_words = total.diff_words_sent.load();
  r.invalidations = total.invalidations.load();
  r.swap_ins = total.swap_ins.load();
  r.swap_outs = total.swap_outs.load();
  r.access_checks = total.access_checks.load();
  r.home_migrations = total.home_migrations.load();
  r.fetch_pipelined = total.fetch_pipelined.load();
  r.prefetch_hits = total.prefetch_hits.load();
  r.prefetch_wasted = total.prefetch_wasted.load();
  r.fetch_stall_us = total.fetch_stall_us.load();
  uint64_t net = 0, disk = 0;
  for (core::Node* n : rt.local_nodes()) {
    net = std::max(net, n->stats().net_wait_us.load());
    disk = std::max(disk, n->stats().disk_wait_us.load());
  }
  r.modeled_net_us = net;
  r.modeled_disk_us = disk;
  r.rank = rt.local_nodes().front()->rank();
}

/// Reset counters before the timed phase: rank 0 owns all nodes
/// in-proc; each process resets its own node in multi-process runs. One
/// app thread per resetting process does the store (hybrid runs call
/// this from every thread). The run_barrier orders the reset before
/// anyone starts timing.
void phase_start(int rank, Runtime& rt) {
  lots::barrier();
  if ((rank == 0 || !rt.single_process()) && lots::my_thread() == 0) rt.reset_stats();
  lots::run_barrier();
}

/// Guarantees the largest single object fits the alloc cap (dmm/2) with
/// headroom; LOTS swaps to disk if the working set still exceeds the
/// DMM, so this only sets the hard single-object bound.
Config with_dmm_floor(const Config& cfg, size_t largest_object_bytes) {
  Config c = cfg;
  const size_t floor_bytes = 4 * largest_object_bytes + (1u << 20);
  if (c.dmm_bytes < floor_bytes) {
    c.dmm_bytes = (floor_bytes + c.page_bytes - 1) / c.page_bytes * c.page_bytes;
  }
  return c;
}

}  // namespace

// ---------------------------------------------------------------------------
// ME — parallel merge sort (timed phase: merging only, as in the paper)
// ---------------------------------------------------------------------------

AppResult lots_me(const Config& cfg, size_t n, uint64_t seed) {
  AppResult result;
  const int p = cfg.nprocs;
  // ME's merge tree is still rank-partitioned: refuse hybrid configs
  // loudly rather than let M threads silently duplicate each rank's
  // merges (SOR and LU are the hybrid-ported benches).
  LOTS_CHECK(cfg.threads_per_node == 1,
             "lots_me is not ported to threads_per_node > 1; use SOR or LU for hybrid runs");
  LOTS_CHECK((p & (p - 1)) == 0, "ME requires a power-of-two process count");
  n = n / static_cast<size_t>(p) * static_cast<size_t>(p);
  const auto input = gen_keys(n, seed);
  const size_t chunk = n / static_cast<size_t>(p);

  Runtime rt(with_dmm_floor(cfg, n * 4));
  rt.run([&](int rank) {
    // Stage 0 chunks + one output object per merge of every stage.
    std::vector<Pointer<int32_t>> cur(static_cast<size_t>(p));
    for (auto& c : cur) c.alloc(chunk);

    // Local sort (not timed, per the paper's metric).
    {
      std::vector<int32_t> mine(input.begin() + static_cast<ptrdiff_t>(chunk * static_cast<size_t>(rank)),
                                input.begin() + static_cast<ptrdiff_t>(chunk * static_cast<size_t>(rank + 1)));
      std::sort(mine.begin(), mine.end());
      auto& c = cur[static_cast<size_t>(rank)];
      for (size_t i = 0; i < chunk; ++i) c[i] = mine[i];
    }
    phase_start(rank, rt);
    const uint64_t t0 = now_us();

    size_t len = chunk;
    for (int step = 1; step < p; step *= 2) {
      // Collective allocation of this stage's outputs.
      std::vector<Pointer<int32_t>> next;
      for (int r = 0; r < p; r += 2 * step) {
        next.emplace_back();
        next.back().alloc(2 * len);
      }
      if (rank % (2 * step) == 0) {
        auto& left = cur[static_cast<size_t>(rank)];
        auto& right = cur[static_cast<size_t>(rank + step)];
        auto& out = next[static_cast<size_t>(rank / (2 * step))];
        size_t i = 0, j = 0, k = 0;
        while (i < len && j < len) {
          const int32_t l = left[i], r = right[j];
          if (l <= r) {
            out[k++] = l;
            ++i;
          } else {
            out[k++] = r;
            ++j;
          }
        }
        while (i < len) out[k++] = left[i++];
        while (j < len) out[k++] = right[j++];
      }
      lots::barrier();
      // Re-index: merged outputs become the inputs of the next stage.
      std::vector<Pointer<int32_t>> compact(static_cast<size_t>(p));
      for (int r = 0; r < p; r += 2 * step) {
        compact[static_cast<size_t>(r)] = next[static_cast<size_t>(r / (2 * step))];
      }
      cur = std::move(compact);
      len *= 2;
    }
    if (rank == 0) {
      result.wall_s = static_cast<double>(now_us() - t0) / 1e6;
      std::vector<int32_t> out(n);
      auto& final_chunk = cur[0];
      for (size_t i = 0; i < n; ++i) out[i] = final_chunk[i];
      result.ok = is_sorted_permutation(input, out);
    }
    lots::barrier();
  });
  collect(rt, result);
  return result;
}

// ---------------------------------------------------------------------------
// LU — right-looking factorization, cyclic row ownership, row objects
// ---------------------------------------------------------------------------

AppResult lots_lu(const Config& cfg, size_t n, uint64_t seed) {
  AppResult result;
  const auto a0 = gen_matrix(n, seed);

  Runtime rt(with_dmm_floor(cfg, n * 8));
  rt.run([&](int rank) {
    // Hybrid decomposition like SOR: cyclic row ownership over the flat
    // worker space, so any process/thread split of W workers factors
    // the same rows in the same barrier-delimited steps.
    const int W = lots::num_workers();
    const int w = lots::my_worker();
    std::vector<Pointer<double>> rows(n);
    for (auto& r : rows) r.alloc(n);
    for (size_t i = 0; i < n; ++i) {
      if (static_cast<int>(i % static_cast<size_t>(W)) == w) {
        auto& row = rows[i];
        for (size_t j = 0; j < n; ++j) row[j] = a0[i * n + j];
      }
    }
    phase_start(rank, rt);
    const uint64_t t0 = now_us();

    std::vector<double> pivot_row(n);
    for (size_t k = 0; k < n; ++k) {
      // Everyone snapshots the pivot row (single fetch, then local use).
      {
        auto& rk = rows[k];
        for (size_t j = k; j < n; ++j) pivot_row[j] = rk[j];
      }
      const double pivot = pivot_row[k];
      for (size_t i = k + 1; i < n; ++i) {
        if (static_cast<int>(i % static_cast<size_t>(W)) != w) continue;
        auto& ri = rows[i];
        const double f = ri[k] / pivot;
        ri[k] = f;
        for (size_t j = k + 1; j < n; ++j) ri[j] -= f * pivot_row[j];
      }
      lots::barrier();
    }
    if (w == 0) {
      result.wall_s = static_cast<double>(now_us() - t0) / 1e6;
      std::vector<double> mine(n * n);
      for (size_t i = 0; i < n; ++i) {
        auto& row = rows[i];
        for (size_t j = 0; j < n; ++j) mine[i * n + j] = row[j];
      }
      std::vector<double> ref = a0;
      result.ok = seq_lu(ref, n) && max_abs_diff(mine, ref) < 1e-6;
    }
    lots::barrier();
  });
  collect(rt, result);
  return result;
}

// ---------------------------------------------------------------------------
// SOR — red-black sweeps, block slices, one object per row
// ---------------------------------------------------------------------------

AppResult lots_sor(const Config& cfg, size_t n, int iterations, uint64_t seed) {
  AppResult result;
  const auto g0 = gen_grid(n, seed);

  Runtime rt(with_dmm_floor(cfg, n * 8));
  rt.run([&](int rank) {
    // Hybrid N-process × M-thread decomposition: rows are sliced over
    // the flat worker space (nprocs × threads_per_node), so any split of
    // W workers into processes and threads computes the same rows in
    // the same barrier-delimited phases — and therefore bit-identical
    // grids. Threads of one rank share the node's objects; each row
    // still has a single writer for the whole program.
    const int W = lots::num_workers();
    const int w = lots::my_worker();
    std::vector<Pointer<double>> rows(n);
    for (auto& r : rows) r.alloc(n);
    const size_t lo = n * static_cast<size_t>(w) / static_cast<size_t>(W);
    const size_t hi = n * static_cast<size_t>(w + 1) / static_cast<size_t>(W);
    for (size_t i = lo; i < hi; ++i) {
      auto& row = rows[i];
      for (size_t j = 0; j < n; ++j) row[j] = g0[i * n + j];
    }
    phase_start(rank, rt);
    const uint64_t t0 = now_us();

    for (int it = 0; it < iterations; ++it) {
      for (int colour = 0; colour < 2; ++colour) {
        lots::barrier();
        for (size_t i = std::max<size_t>(lo, 1); i < std::min(hi, n - 1); ++i) {
          auto& up = rows[i - 1];
          auto& row = rows[i];
          auto& down = rows[i + 1];
          for (size_t j = 1; j + 1 < n; ++j) {
            if (((i + j) & 1) != static_cast<size_t>(colour)) continue;
            row[j] = 0.25 * (up[j] + down[j] + row[j - 1] + row[j + 1]);
          }
        }
      }
    }
    lots::barrier();
    if (w == 0) {
      result.wall_s = static_cast<double>(now_us() - t0) / 1e6;
      std::vector<double> mine(n * n);
      for (size_t i = 0; i < n; ++i) {
        auto& row = rows[i];
        for (size_t j = 0; j < n; ++j) mine[i * n + j] = row[j];
      }
      std::vector<double> ref = g0;
      seq_sor(ref, n, iterations);
      result.ok = max_abs_diff(mine, ref) < 1e-9;
    }
    lots::barrier();
  });
  collect(rt, result);
  return result;
}

// ---------------------------------------------------------------------------
// RX — LSD radix sort, 256 shared bucket objects (paper: page multiples)
// ---------------------------------------------------------------------------

AppResult lots_rx(const Config& cfg, size_t n, int passes, uint64_t seed) {
  AppResult result;
  const int p = cfg.nprocs;
  // RX's per-process histograms are still rank-partitioned: refuse
  // hybrid configs loudly (SOR and LU are the hybrid-ported benches).
  LOTS_CHECK(cfg.threads_per_node == 1,
             "lots_rx is not ported to threads_per_node > 1; use SOR or LU for hybrid runs");
  n = n / static_cast<size_t>(p) * static_cast<size_t>(p);
  // Mask keys so `passes` 8-bit digits fully sort them.
  const uint32_t mask = passes >= 4 ? 0x7FFFFFFFu : ((1u << (8 * passes)) - 1);
  const auto input = gen_keys(n, seed, mask);
  const size_t slice = n / static_cast<size_t>(p);
  // Bucket capacity: 4x the uniform expectation, rounded to page ints
  // (paper: each bucket is an integral multiple of a page).
  const size_t page_ints = cfg.page_bytes / 4;
  const size_t cap = ((4 * n / 256) / page_ints + 1) * page_ints;

  Runtime rt(with_dmm_floor(cfg, cap * 4));
  rt.run([&](int rank) {
    std::vector<Pointer<int32_t>> buckets(256);
    for (auto& b : buckets) b.alloc(cap);
    std::vector<Pointer<int32_t>> hists(static_cast<size_t>(p));
    for (auto& h : hists) h.alloc(256);

    std::vector<int32_t> mine(input.begin() + static_cast<ptrdiff_t>(slice * static_cast<size_t>(rank)),
                              input.begin() + static_cast<ptrdiff_t>(slice * static_cast<size_t>(rank + 1)));
    phase_start(rank, rt);
    const uint64_t t0 = now_us();

    for (int pass = 0; pass < passes; ++pass) {
      const int shift = pass * 8;
      auto digit = [shift](int32_t k) {
        return static_cast<size_t>((static_cast<uint32_t>(k) >> shift) & 0xFF);
      };
      // Local histogram into my shared histogram object.
      {
        std::array<int32_t, 256> h{};
        for (int32_t k : mine) ++h[digit(k)];
        auto& hobj = hists[static_cast<size_t>(rank)];
        for (size_t b = 0; b < 256; ++b) hobj[b] = h[b];
      }
      lots::barrier();
      // Replicated prefix computation from all histograms.
      std::array<size_t, 256> total{};
      std::array<size_t, 256> my_off{};
      for (size_t b = 0; b < 256; ++b) {
        for (int r = 0; r < p; ++r) {
          const auto v = static_cast<size_t>(hists[static_cast<size_t>(r)][b]);
          if (r == rank) my_off[b] = total[b];
          total[b] += v;
        }
        LOTS_CHECK(total[b] <= cap, "RX bucket overflow: increase capacity");
      }
      // Scatter into the shared buckets. Paper: "each bucket ... is
      // accessed by a processor at a time (concurrent access is
      // prohibited by barriers)" — the serialized rounds make every
      // bucket single-writer per interval, so its home migrates to the
      // current writer at each barrier and is requested right back by
      // the next one: the ping-pong pattern that erodes LOTS' edge as p
      // grows (the paper's own negative result at p=8).
      for (int round = 0; round < p; ++round) {
        if (round == rank) {
          for (int32_t k : mine) {
            const size_t b = digit(k);
            buckets[b][my_off[b]++] = k;
          }
        }
        lots::barrier();
      }
      // Gather my new slice from the global bucket order.
      std::array<size_t, 256> bucket_start{};
      size_t acc = 0;
      for (size_t b = 0; b < 256; ++b) {
        bucket_start[b] = acc;
        acc += total[b];
      }
      const size_t gpos_lo = slice * static_cast<size_t>(rank);
      const size_t gpos_hi = gpos_lo + slice;
      mine.clear();
      for (size_t b = 0; b < 256 && mine.size() < slice; ++b) {
        const size_t b_lo = bucket_start[b], b_hi = b_lo + total[b];
        const size_t take_lo = std::max(b_lo, gpos_lo), take_hi = std::min(b_hi, gpos_hi);
        for (size_t g = take_lo; g < take_hi; ++g) {
          mine.push_back(buckets[b][g - b_lo]);
        }
      }
      lots::barrier();
    }
    if (rank == 0) {
      result.wall_s = static_cast<double>(now_us() - t0) / 1e6;
      // After the final scatter, the buckets in order ARE the sorted
      // sequence; read them back (remote fetches) and verify.
      std::array<size_t, 256> total{};
      for (size_t b = 0; b < 256; ++b) {
        for (int r = 0; r < p; ++r) {
          total[b] += static_cast<size_t>(hists[static_cast<size_t>(r)][b]);
        }
      }
      std::vector<int32_t> out;
      out.reserve(n);
      for (size_t b = 0; b < 256; ++b) {
        for (size_t i = 0; i < total[b]; ++i) out.push_back(buckets[b][i]);
      }
      result.ok = is_sorted_permutation(input, out);
    }
    lots::barrier();
  });
  collect(rt, result);
  return result;
}

}  // namespace lots::work
