// sor: red-black SOR (paper Fig. 8c), one object per grid row, rows
// split in two contiguous slices (one per rank).
//
// The kernel is written here rather than taken from the workloads
// library so each lots::barrier() and each row can be timed. Per colour
// phase a rank updates its own rows and reads the neighbour rank's
// boundary row (the halo: invalidated by the barrier, so its first access
// is a fetch) just before the row that needs it. The timed phase runs
// whole iterations until --seconds have passed; the final grid is checked
// against work::seq_sor on the same work::gen_grid(seed) for the same
// number of iterations.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>

#include "workloads.hpp"
#include "workloads/reference.hpp"

namespace perfbench {
namespace {

constexpr int kRanks = 2;
constexpr size_t kN = 256;         ///< grid side; one 2 KB object per row
constexpr int kWarmupIters = 200;  ///< untimed, part of every set-up
/// Row updates are timed (and their first touches traced) on every
/// kRowSampleEvery-th iteration: a steady sample of ~100 per ms would
/// otherwise make the benchmark's own buffers a visible, speed-dependent
/// share of peak_rss_mb.
constexpr uint64_t kRowSampleEvery = 8;

using Rows = std::vector<lots::Pointer<double>>;

/// Per-rank timings of the timed phase (null during warm-up).
struct RankOut {
  Samples row_update, halo_read, iteration;
  uint64_t barrier_ns = 0, timed_ns = 0, rows = 0;
  double sink = 0;  ///< halo sums, kept so the reads have a use
};

/// The halo read: the first access to the neighbour rank's boundary row
/// in a phase (invalidated by the barrier, so it fetches) and a read of
/// the whole row.
void read_halo(const Rows& rows, size_t halo, RankOut* out) {
  const uint64_t t0 = out ? now_ns() : 0;
  const auto& h = rows[halo];
  double s = 0;
  {
    ScopedSpan span(out ? "core.first_touch_read" : nullptr);
    s = h[0];
  }
  for (size_t j = 1; j < kN; ++j) s += h[j];
  if (out) {
    out->halo_read.add(now_ns() - t0);
    out->sink += s;
    ++out->rows;
  }
}

/// One colour phase on rows [lo, hi) of this rank: update this colour's
/// cells of every interior row, reading the halo right before the row
/// next to it — where the kernel first needs it, so the fetch never
/// overlaps the neighbour's writes to that row. `out` is null during
/// warm-up; `sample_rows` times each row update.
void phase(const Rows& rows, size_t lo, size_t hi, size_t halo, int colour, RankOut* out,
           bool sample_rows) {
  const bool timed = out && sample_rows;
  for (size_t i = std::max<size_t>(lo, 1); i < std::min(hi, kN - 1); ++i) {
    if (i + 1 == halo || i == halo + 1) read_halo(rows, halo, out);
    const uint64_t t0 = timed ? now_ns() : 0;
    const auto& up = rows[i - 1];
    const auto& row = rows[i];
    const auto& down = rows[i + 1];
    {
      ScopedSpan span(timed ? "core.first_touch_write" : nullptr);
      (void)row[0];
    }
    for (size_t j = 2 - ((i + static_cast<size_t>(colour)) & 1); j + 1 < kN; j += 2) {
      row[j] = 0.25 * (up[j] + down[j] + row[j - 1] + row[j + 1]);
    }
    if (timed) out->row_update.add(now_ns() - t0);
    if (out) ++out->rows;
  }
}

}  // namespace

Report run_sor(const Options& opts) {
  Report rep;
  const std::vector<double> g0 = lots::work::gen_grid(kN, opts.seed);

  std::vector<double> setup_s;
  for (int n = 0; n < kSetups; ++n) {
    const uint64_t setup_start = begin_setup(n);
    const bool measure = n == kSetups - 1;
    const auto rt = construct_runtime(base_config(opts, n));
    std::array<RankOut, kRanks> outs;
    std::atomic<bool> stop{false};
    uint64_t t0 = 0, deadline = 0, timed_iters = 0;
    size_t threads_at_start = 0;
    Counters base;
    std::vector<double> grid(kN * kN);

    rt->run([&](int rank) {
      place_app_thread(rank);
      Rows rows(kN);
      for (auto& r : rows) traced_alloc(r, kN);
      const size_t lo = kN * static_cast<size_t>(rank) / kRanks;
      const size_t hi = kN * static_cast<size_t>(rank + 1) / kRanks;
      const size_t halo = rank == 0 ? hi : lo - 1;
      for (size_t i = lo; i < hi; ++i) {
        for (size_t j = 0; j < kN; ++j) rows[i][j] = g0[i * kN + j];
      }
      for (int it = 0; it < kWarmupIters; ++it) {
        for (int colour = 0; colour < 2; ++colour) {
          lots::barrier();
          phase(rows, lo, hi, halo, colour, nullptr, false);
        }
      }
      lots::barrier();
      if (rank == 0) {
        t0 = now_ns();
        deadline = t0 + static_cast<uint64_t>(opts.seconds * 1e9);
        threads_at_start = process_threads();
        base = Counters::read(*rt);
      }
      lots::run_barrier();  // both ranks start the timed phase together

      if (measure) {
        RankOut& out = outs[static_cast<size_t>(rank)];
        const uint64_t start = now_ns();
        uint64_t prev = start;
        uint64_t iters = 0;
        for (;;) {
          // Rank 0 decides before the barrier; both read the decision
          // after it, so they leave at the same iteration.
          if (rank == 0 && now_ns() >= deadline) stop.store(true);
          timed_barrier(&out.barrier_ns);
          if (stop.load()) break;
          const bool sample_rows = iters % kRowSampleEvery == 0;
          phase(rows, lo, hi, halo, 0, &out, sample_rows);
          timed_barrier(&out.barrier_ns);
          phase(rows, lo, hi, halo, 1, &out, sample_rows);
          ++iters;
          const uint64_t now = now_ns();
          out.iteration.add(now - prev);
          prev = now;
        }
        out.timed_ns = now_ns() - start;
        if (rank == 0) timed_iters = iters;
      } else {
        lots::barrier();
      }
      if (rank == 0) {  // every write is visible after the last barrier
        for (size_t i = 0; i < kN; ++i) {
          for (size_t j = 0; j < kN; ++j) grid[i * kN + j] = rows[i][j];
        }
      }
    });
    setup_s.push_back(static_cast<double>(t0 - setup_start) / 1e9);

    // The sequential reference: warm-up iterations, then (timed) the
    // iterations of the timed phase — the single-thread baseline.
    std::vector<double> ref = g0;
    lots::work::seq_sor(ref, kN, kWarmupIters);
    const uint64_t seq_t0 = now_ns();
    lots::work::seq_sor(ref, kN, static_cast<int>(timed_iters));
    const double seq_s = static_cast<double>(now_ns() - seq_t0) / 1e9;
    uint64_t bad = 0;
    for (size_t c = 0; c < grid.size(); ++c) bad += std::abs(grid[c] - ref[c]) > 1e-9;
    const uint64_t cells = (kN - 2) * (kN - 2);
    rep.attempted += cells * (kWarmupIters + timed_iters);
    rep.failed += bad;
    if (bad) rep.fail(std::to_string(bad) + " grid cells differ from work::seq_sor");

    const Counters end = Counters::read(*rt);
    rep.require(end.swap_outs == 0, "sor swapped objects out (the grid must fit in the DMM)");
    require_thread_budget(rep, threads_at_start, 0);
    if (!measure) continue;

    const Counters delta = end.minus(base);
    rep.require(delta.lock_acquires == 0, "sor took locks in its timed phase");
    Samples iteration;
    LayerInputs in;
    for (const RankOut& o : outs) {
      iteration.merge(o.iteration);
      in.timed_ns += static_cast<double>(o.timed_ns);
      in.compute_ns += static_cast<double>(o.timed_ns - o.barrier_ns);
      in.rows += static_cast<double>(o.rows);
    }
    const double ops = static_cast<double>(cells * timed_iters);
    report_setup(rep, setup_s);
    rep.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    rep.e2e("ops_per_s", ops * 1e9 / static_cast<double>(outs[0].timed_ns), "1/s");
    rep.latency("read", {&outs[0].halo_read, &outs[1].halo_read});
    rep.latency("write", {&outs[0].row_update, &outs[1].row_update});
    rep.sample_counts.emplace_back("scan", iteration.count());
    rep.e2e("scan_p50_us", iteration.p50_us(), "us");
    std::printf("sor: n=%zu iterations=%llu (timed) + %d (warm-up), halo sum %.6g\n", kN,
                static_cast<unsigned long long>(timed_iters), kWarmupIters,
                outs[0].sink + outs[1].sink);

    in.delta = delta;
    in.ops = ops;
    in.iters = static_cast<double>(timed_iters);
    in.seq_s = seq_s;
    add_layer_metrics(rep, in, Trace::all());
  }
  return rep;
}

}  // namespace perfbench
