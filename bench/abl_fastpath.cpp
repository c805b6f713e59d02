// Fast-path ablation (self-gating): ALB on/off, plus the run-length
// diff wire encoding's saving.
//
// Part A — ns/access on the repeat-access shape of sec42_access_check
// (one mapped, clean, twinned object hammered in a loop). Gate: the ALB
// must cut the per-access cost >= 3x (the shard lock + hash lookup +
// pin/twin bookkeeping it removes dominates the check). Off and on
// samples are taken interleaved, kSamples of each, and the ratio is of
// their medians, so one descheduled sample cannot decide the gate.
//
// Part B — diff payload bytes on a dense-stencil interval: 4 ranks
// write disjoint dense quarters of one shared grid and barrier, so each
// barrier ships one contiguous run per writer (kDiffBatch) and each
// re-validation ships a contiguous word diff (kObjData). Gate: the
// runs form must cut the diff payload >= 1.5x versus the flat form
// (run headers at ~4 B/word replace 8-12 B/word triples). The flat
// size is counter-derived: every encode adds the bytes it saved over
// flat to diff_bytes_saved, so flat = diff_payload_bytes +
// diff_bytes_saved, measured on the ALB-on cell.
//
// Both ALB cells must produce the bit-identical grid digest; any
// divergence fails the gate. Prints FASTPATH_ABL_OK / _FAIL and
// exits non-zero on failure so CI can gate on it.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/clock.hpp"
#include "core/api.hpp"

namespace {

using lots::Config;
using lots::NodeStats;
using lots::Pointer;
using lots::Runtime;
using lots::bench::JsonLine;

inline void escape(void* p) { asm volatile("" : : "g"(p) : "memory"); }

/// FNV-1a over u64s.
struct Digest {
  uint64_t h = 1469598103934665603ull;
  void mix(uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
};

// ---- Part A: repeat-access ns ---------------------------------------------

double measure_ns_access(bool alb) {
  Config cfg;
  cfg.nprocs = 1;
  cfg.alb = alb;
  Runtime rt(cfg);
  double ns = 0;
  rt.run([&](int) {
    Pointer<int> a;
    a.alloc(1024);
    a[0] = 1;
    auto& node = Runtime::self();
    for (int i = 0; i < 1000; ++i) escape(node.access(a.id()));
    constexpr size_t kIters = 4'000'000;
    const uint64_t t0 = lots::now_us();
    for (size_t i = 0; i < kIters; ++i) escape(node.access(a.id()));
    ns = static_cast<double>(lots::now_us() - t0) * 1000.0 / kIters;
  });
  return ns;
}

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(v.size() / 2), v.end());
  return v[v.size() / 2];
}

// ---- Part B: dense-stencil interval traffic -------------------------------

struct StencilResult {
  uint64_t digest = 0;
  uint64_t diff_payload_bytes = 0;
  uint64_t diff_bytes_saved = 0;
  uint64_t alb_hits = 0;
  bool ok = true;
};

StencilResult run_stencil(bool alb) {
  constexpr int kProcs = 4;
  constexpr size_t kWords = 16384;  // 64 KB grid
  constexpr int kSweeps = 6;
  Config cfg = lots::bench::fig8_config(kProcs);
  cfg.alb = alb;
  Runtime rt(cfg);
  StencilResult res;
  rt.run([&](int rank) {
    Pointer<uint32_t> grid;
    grid.alloc(kWords);
    const size_t lo = kWords / kProcs * static_cast<size_t>(rank);
    const size_t hi = kWords / kProcs * static_cast<size_t>(rank + 1);
    lots::barrier();
    for (int sweep = 0; sweep < kSweeps; ++sweep) {
      // Halo reads force the §3.5 on-demand word diff from the home;
      // folding them into the update makes a stale fetch corrupt the
      // digest instead of hiding. The event-only run_barrier separates
      // everyone's halo reads from everyone's writes — an unsynchronized
      // read of a band mid-write would be racy under ScC.
      const uint32_t left = lo > 0 ? grid[lo - 1] : 0;
      const uint32_t right = hi < kWords ? grid[hi] : 0;
      lots::run_barrier();
      for (size_t w = lo; w < hi; ++w) {
        grid[w] = grid[w] * 31 + static_cast<uint32_t>(w) + left + right +
                  static_cast<uint32_t>(sweep);
      }
      lots::barrier();
    }
    if (rank == 0) {
      Digest d;
      for (size_t w = 0; w < kWords; ++w) d.mix(grid[w]);
      res.digest = d.h;
    }
    lots::barrier();
  });
  NodeStats total;
  rt.aggregate_stats(total);
  res.diff_payload_bytes = total.diff_payload_bytes.load();
  res.diff_bytes_saved = total.diff_bytes_saved.load();
  res.alb_hits = total.alb_hits.load();
  return res;
}

}  // namespace

int main() {
  std::printf("\n=== fast-path ablation: ALB, run-length diff encoding ===\n");

  // Part A: access cost, the median of interleaved off/on samples.
  constexpr int kSamples = 5;
  std::vector<double> off_ns, on_ns;
  for (int i = 0; i < kSamples; ++i) {
    off_ns.push_back(measure_ns_access(/*alb=*/false));
    on_ns.push_back(measure_ns_access(/*alb=*/true));
  }
  const double ns_off = median(off_ns);
  const double ns_on = median(on_ns);
  const double speedup = ns_on > 0 ? ns_off / ns_on : 0.0;
  std::printf("repeat-access ns/access, median of %d: alb_off=%.1f alb_on=%.1f (%.2fx)\n",
              kSamples, ns_off, ns_on, speedup);
  JsonLine("abl_fastpath").str("part", "access").num("alb", 0).num("ns_per_access", ns_off).emit();
  JsonLine("abl_fastpath").str("part", "access").num("alb", 1).num("ns_per_access", ns_on).emit();

  // Part B: the two ALB cells.
  StencilResult cells[2];
  for (int alb = 0; alb < 2; ++alb) {
    cells[alb] = run_stencil(alb != 0);
    const StencilResult& c = cells[alb];
    std::printf("stencil alb=%d: diff_payload=%llu B saved=%llu B alb_hits=%llu "
                "digest=%016llx\n",
                alb, static_cast<unsigned long long>(c.diff_payload_bytes),
                static_cast<unsigned long long>(c.diff_bytes_saved),
                static_cast<unsigned long long>(c.alb_hits),
                static_cast<unsigned long long>(c.digest));
    char digest_hex[32];
    std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                  static_cast<unsigned long long>(c.digest));
    JsonLine("abl_fastpath")
        .str("part", "stencil")
        .num("alb", alb)
        .num("diff_payload_bytes", c.diff_payload_bytes)
        .num("diff_bytes_saved", c.diff_bytes_saved)
        .num("alb_hits", c.alb_hits)
        .str("digest", digest_hex)
        .emit();
  }

  // ---- gates ----
  bool ok = true;
  if (speedup < 3.0) {
    std::printf("GATE FAIL: ALB speedup %.2fx < 3x on the repeat-access shape\n", speedup);
    ok = false;
  }
  const uint64_t payload = cells[1].diff_payload_bytes;
  const uint64_t flat = payload + cells[1].diff_bytes_saved;
  const double rle_reduction = payload ? static_cast<double>(flat) / payload : 0.0;
  if (payload == 0 || flat < payload * 3 / 2) {
    std::printf("GATE FAIL: RLE payload reduction %.2fx < 1.5x (flat %llu -> %llu bytes)\n",
                rle_reduction, static_cast<unsigned long long>(flat),
                static_cast<unsigned long long>(payload));
    ok = false;
  }
  if (cells[1].digest != cells[0].digest) {
    std::printf("GATE FAIL: digest mismatch between the ALB cells\n");
    ok = false;
  }
  if (cells[1].alb_hits == 0) {
    std::printf("GATE FAIL: ALB cell recorded zero hits — the ablation is not ablating\n");
    ok = false;
  }
  if (cells[1].diff_bytes_saved == 0) {
    std::printf("GATE FAIL: RLE saved zero bytes — encoder never chose a run form\n");
    ok = false;
  }
  std::printf(ok ? "FASTPATH_ABL_OK speedup=%.2fx rle_reduction=%.2fx\n"
                 : "FASTPATH_ABL_FAIL speedup=%.2fx rle_reduction=%.2fx\n",
              speedup, rle_reduction);
  return ok ? 0 : 1;
}
