// largespace: paper Table 1, scaled. 256 row objects of 256 KB (64 MB of
// shared objects) over 2 ranks with an 8 MB DMM window each, so the
// object space is 8x the window per node and every sweep goes through
// eviction, the DiskStore swap path and whole-object fetches.
//
// A pass is a write sweep (each rank writes the whole of each of its own
// rows: rows k with k % 2 == rank), a barrier, a read sweep (each rank
// reads the whole of every row, starting at its own half), and a
// barrier. Each row read is checked against the checksum its writer
// computed from the values it meant to store.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>

#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kRanks = 2;
constexpr size_t kRows = 256;
constexpr size_t kInts = 64 * 1024;  ///< 256 KB per row object
constexpr size_t kDmmBytes = 8u << 20;
constexpr int kWarmupPasses = 1;

using Rows = std::vector<lots::Pointer<uint32_t>>;

struct RankOut {
  Samples row_write, row_read, sweep;
  uint64_t barrier_ns = 0, timed_ns = 0, rows = 0, reads = 0, bad_reads = 0;
};

/// Position-weighted checksum term: a stale, torn or shifted row fails.
inline uint64_t weigh(uint32_t v, size_t i) { return static_cast<uint64_t>(v) * (2 * i + 1); }

class Pass {
 public:
  Pass(const Rows& rows, int rank, uint64_t seed, std::array<std::atomic<uint64_t>, kRows>& sums)
      : rows_(rows), rank_(static_cast<size_t>(rank)), seed_(seed), sums_(sums) {}

  /// One pass. `out` is null during warm-up (nothing timed or traced).
  void run(uint64_t pass, RankOut* out) {
    uint64_t* barrier_ns = out ? &out->barrier_ns : nullptr;
    for (size_t k = rank_; k < kRows; k += kRanks) write_row(k, pass, out);
    timed_barrier(barrier_ns);
    const uint64_t t0 = out ? now_ns() : 0;
    for (size_t n = 0; n < kRows; ++n) read_row((n + rank_ * kRows / kRanks) % kRows, out);
    if (out) out->sweep.add(now_ns() - t0);
    timed_barrier(barrier_ns);
  }

 private:
  // A row is moved whole, through one access check: the pointer taken at
  // the first touch stays mapped while no other shared object is
  // touched (the node's statement pins keep the last objects a thread
  // accessed out of eviction), and the bulk copy is what a program
  // moving whole objects does. Per-element access-check cost is what
  // sor measures.
  void write_row(size_t k, uint64_t pass, RankOut* out) {
    const uint64_t t0 = out ? now_ns() : 0;
    const auto base = static_cast<uint32_t>(mix64(seed_ ^ (pass << 32) ^ k));
    uint64_t sum = 0;
    for (size_t i = 0; i < kInts; ++i) {
      buf_[i] = base + static_cast<uint32_t>(i) * 0x9E3779B1u;
      sum += weigh(buf_[i], i);
    }
    uint32_t* dst = nullptr;
    {
      ScopedSpan span(out ? "core.first_touch_write" : nullptr);
      dst = &rows_[k][0];
    }
    std::memcpy(dst, buf_.data(), kInts * sizeof(uint32_t));
    sums_[k].store(sum, std::memory_order_relaxed);  // published by the next barrier
    if (out) {
      out->row_write.add(now_ns() - t0);
      ++out->rows;
    }
  }

  void read_row(size_t k, RankOut* out) {
    const uint64_t t0 = out ? now_ns() : 0;
    const uint32_t* src = nullptr;
    {
      ScopedSpan span(out ? "core.first_touch_read" : nullptr);
      src = &rows_[k][0];
    }
    std::memcpy(buf_.data(), src, kInts * sizeof(uint32_t));
    uint64_t sum = 0;
    for (size_t i = 0; i < kInts; ++i) sum += weigh(buf_[i], i);
    if (out) {
      out->row_read.add(now_ns() - t0);
      ++out->rows;
    }
    ++reads_;
    if (sum != sums_[k].load(std::memory_order_relaxed)) ++bad_reads_;
  }

  const Rows& rows_;
  size_t rank_;
  uint64_t seed_;
  std::array<std::atomic<uint64_t>, kRows>& sums_;
  std::vector<uint32_t> buf_ = std::vector<uint32_t>(kInts);  ///< one row, private

 public:
  uint64_t reads_ = 0, bad_reads_ = 0;
};

}  // namespace

Report run_largespace(const Options& opts) {
  Report rep;
  std::vector<double> setup_s;
  for (int n = 0; n < kSetups; ++n) {
    const uint64_t setup_start = begin_setup(n);
    const bool measure = n == kSetups - 1;
    lots::Config cfg = base_config(opts, n);
    cfg.dmm_bytes = kDmmBytes;
    const auto rt = construct_runtime(cfg);
    std::array<RankOut, kRanks> outs;
    std::array<std::atomic<uint64_t>, kRows> sums{};
    std::atomic<bool> stop{false};
    uint64_t t0 = 0, deadline = 0, timed_passes = 0;
    size_t threads_at_start = 0;
    Counters base;

    rt->run([&](int rank) {
      place_app_thread(rank);
      Rows rows(kRows);
      for (auto& r : rows) traced_alloc(r, kInts);
      Pass pass(rows, rank, opts.seed, sums);
      uint64_t p = 0;
      for (; p < kWarmupPasses; ++p) pass.run(p, nullptr);
      if (rank == 0) {
        t0 = now_ns();
        deadline = t0 + static_cast<uint64_t>(opts.seconds * 1e9);
        threads_at_start = process_threads();
        base = Counters::read(*rt);
      }
      lots::run_barrier();  // both ranks start the timed phase together

      RankOut& out = outs[static_cast<size_t>(rank)];
      if (measure) {
        const uint64_t start = now_ns();
        for (;; ++p) {
          // Rank 0 decides before the barrier; both read the decision
          // after it, so they leave at the same pass.
          if (rank == 0 && now_ns() >= deadline) stop.store(true);
          timed_barrier(&out.barrier_ns);
          if (stop.load()) break;
          pass.run(p, &out);
        }
        out.timed_ns = now_ns() - start;
        if (rank == 0) timed_passes = p - kWarmupPasses;
      }
      out.reads = pass.reads_;
      out.bad_reads = pass.bad_reads_;
    });
    setup_s.push_back(static_cast<double>(t0 - setup_start) / 1e9);
    for (const RankOut& o : outs) {
      rep.attempted += o.reads;
      rep.failed += o.bad_reads;
    }
    if (outs[0].bad_reads + outs[1].bad_reads) rep.fail("row reads failed their checksum");
    const Counters end = Counters::read(*rt);
    require_thread_budget(rep, threads_at_start, 0);
    if (!measure) continue;

    const Counters delta = end.minus(base);
    rep.require(delta.lock_acquires == 0, "largespace took locks in its timed phase");
    rep.require(delta.swap_outs > 0 && delta.swap_ins > 0,
                "largespace did not swap (the object space must exceed the DMM)");
    Samples sweep;
    LayerInputs in;
    for (const RankOut& o : outs) {
      sweep.merge(o.sweep);
      in.timed_ns += static_cast<double>(o.timed_ns);
      in.compute_ns += static_cast<double>(o.timed_ns - o.barrier_ns);
      in.rows += static_cast<double>(o.rows);
    }
    const double ops = static_cast<double>(outs[0].row_write.count() + outs[1].row_write.count() +
                                           outs[0].row_read.count() + outs[1].row_read.count());
    report_setup(rep, setup_s);
    rep.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    rep.e2e("ops_per_s", ops * 1e9 / static_cast<double>(outs[0].timed_ns), "1/s");
    rep.latency("read", {&outs[0].row_read, &outs[1].row_read});
    rep.latency("write", {&outs[0].row_write, &outs[1].row_write});
    rep.sample_counts.emplace_back("scan", sweep.count());
    rep.e2e("scan_p50_us", sweep.p50_us(), "us");
    std::printf("largespace: %zu rows x %zu KB, DMM %zu MB per rank, %llu timed passes\n", kRows,
                kInts * 4 / 1024, kDmmBytes >> 20, static_cast<unsigned long long>(timed_passes));

    in.delta = delta;
    in.ops = ops;
    in.iters = static_cast<double>(timed_passes);
    add_layer_metrics(rep, in, Trace::all());
  }
  return rep;
}

}  // namespace perfbench
