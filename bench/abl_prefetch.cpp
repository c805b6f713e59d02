// Ablation: the async fetch engine's pipelined windows vs the
// historical one-blocking-round-trip-per-object fetch path.
//
// Workload: P ranks each write their quarter of a large object space,
// barrier (homes migrate to the writers), then every rank scans the
// WHOLE space in ascending id order starting at its own partition —
// 3/4 of the reads are remote faults. The network model injects real
// per-message latency (time_scale = 1), so overlapping round trips is
// visible in wall time, and serialized ones in fetch_stall_us.
//
// Sweep: fetch_window 1 and 8, with window 1 = the pre-engine behavior
// as the baseline. Two scan shapes:
//  * touch  — the scan warms the next kTouchBatch ids with
//             lots::prefetch before reading them (at window 1 this
//             degenerates to one blocking fetch per object).
//  * demand — plain reads: every remote object is a demand fault, one
//             blocking round trip each whatever the window.
//
// Gate: at window 8 the touch scan must cut blocking round trips at
// least 2x vs window 1 — both the serialized stall time
// (fetch_stall_us) and the fetch count (object_fetches) are reported,
// and every row's scan digest must be bit-identical.
#include <array>
#include <cinttypes>
#include <vector>

#include "bench_util.hpp"
#include "common/clock.hpp"
#include "core/api.hpp"

namespace lots::bench {
namespace {

using core::ObjectId;
using core::Pointer;
using core::Runtime;

constexpr int kProcs = 4;
constexpr int kObjects = 256;
constexpr int kIntsPerObject = 256;  // 1 KB objects
constexpr int kTouchBatch = 32;

struct Row {
  size_t window;
  bool use_touch;
  double wall_ms = 0;
  uint64_t digest = 0;
  uint64_t fetches = 0;
  uint64_t pipelined = 0;
  uint64_t pf_hits = 0;
  uint64_t pf_wasted = 0;
  uint64_t stall_us = 0;
};

Config prefetch_cfg(size_t window) {
  Config c;
  c.nprocs = kProcs;
  c.dmm_bytes = 32u << 20;
  c.fetch_window = window;
  // Injected latency: messages really wait on the modeled wire, so
  // serialized round trips cost wall time and overlapped ones do not.
  c.net.latency_us = 300.0;
  c.net.bandwidth_MBps = 500.0;
  c.net.time_scale = 1.0;
  return c;
}

uint64_t fnv_mix(uint64_t h, uint64_t v) { return (h ^ v) * 1099511628211ULL; }

Row run_scan(size_t window, bool use_touch) {
  Row row{window, use_touch};
  Runtime rt(prefetch_cfg(window));
  std::array<uint64_t, kProcs> rank_digest{};
  std::array<double, kProcs> rank_wall{};

  rt.run([&](int rank) {
    std::vector<Pointer<int>> objs(kObjects);
    for (auto& o : objs) o.alloc(kIntsPerObject);
    // Each rank fills its contiguous quarter; the barrier migrates every
    // object's home to its (single) writer and invalidates the rest.
    const int per = kObjects / kProcs;
    for (int k = rank * per; k < (rank + 1) * per; ++k) {
      for (int i = 0; i < kIntsPerObject; ++i) {
        objs[static_cast<size_t>(k)][static_cast<size_t>(i)] = k * 100003 + i * 7;
      }
    }
    lots::barrier();
    if (rank == 0) rt.reset_stats();
    lots::run_barrier();  // order the reset before anyone starts timing

    // The timed scan: whole space, ascending ids, starting at our own
    // partition so the remote traffic spreads across homes.
    const auto t0 = now_us();
    uint64_t h = 1469598103934665603ULL;
    const int start = rank * per;
    std::vector<ObjectId> batch;
    for (int k = 0; k < kObjects; ++k) {
      const int idx = (start + k) % kObjects;
      if (use_touch && k % kTouchBatch == 0) {
        batch.clear();
        for (int j = k; j < k + kTouchBatch && j < kObjects; ++j) {
          batch.push_back(objs[static_cast<size_t>((start + j) % kObjects)].id());
        }
        lots::prefetch(batch);
      }
      for (int i = 0; i < kIntsPerObject; i += 3) {
        h = fnv_mix(h, static_cast<uint64_t>(
                           objs[static_cast<size_t>(idx)][static_cast<size_t>(i)]));
      }
    }
    rank_digest[static_cast<size_t>(rank)] = h;
    rank_wall[static_cast<size_t>(rank)] = static_cast<double>(now_us() - t0) / 1000.0;
    lots::barrier();
  });

  uint64_t digest = 0;
  double wall = 0;
  for (int r = 0; r < kProcs; ++r) {
    digest = fnv_mix(digest, rank_digest[static_cast<size_t>(r)]);
    wall = std::max(wall, rank_wall[static_cast<size_t>(r)]);
  }
  NodeStats total;
  rt.aggregate_stats(total);
  row.wall_ms = wall;
  row.digest = digest;
  row.fetches = total.object_fetches.load();
  row.pipelined = total.fetch_pipelined.load();
  row.pf_hits = total.prefetch_hits.load();
  row.pf_wasted = total.prefetch_wasted.load();
  row.stall_us = total.fetch_stall_us.load();
  return row;
}

void emit(const Row& r) {
  std::printf("%-8s %6zu %10.1f %9llu %10llu %7llu %8llu %12llu  %016" PRIx64 "\n",
              r.use_touch ? "touch" : "demand", r.window, r.wall_ms,
              static_cast<unsigned long long>(r.fetches),
              static_cast<unsigned long long>(r.pipelined),
              static_cast<unsigned long long>(r.pf_hits),
              static_cast<unsigned long long>(r.pf_wasted),
              static_cast<unsigned long long>(r.stall_us), r.digest);
  JsonLine("abl_prefetch")
      .str("scan", r.use_touch ? "touch" : "demand")
      .num("fetch_window", static_cast<uint64_t>(r.window))
      .num("wall_ms", r.wall_ms)
      .num("object_fetches", r.fetches)
      .num("fetch_pipelined", r.pipelined)
      .num("prefetch_hits", r.pf_hits)
      .num("prefetch_wasted", r.pf_wasted)
      .num("fetch_stall_us", r.stall_us)
      .str("digest", [&] {
        char tmp[24];
        std::snprintf(tmp, sizeof(tmp), "%016" PRIx64, r.digest);
        return std::string(tmp);
      }())
      .emit();
}

}  // namespace
}  // namespace lots::bench

int main() {
  using namespace lots::bench;

  std::printf("=== abl_prefetch — async fetch engine: pipelined windows ===\n");
  std::printf("(%d ranks, %d x %d B objects, injected %g us one-way latency; scan of the\n"
              " whole space after a home-migrating barrier; lower stall/fetches is better)\n\n",
              kProcs, kObjects, kIntsPerObject * 4, 300.0);
  std::printf("%-8s %6s %10s %9s %10s %7s %8s %12s  %s\n", "scan", "window", "wall_ms",
              "fetches", "pipelined", "pf_hit", "pf_waste", "stall_us", "digest");

  // The acceptance pair first: window 1 vs window 8, same touch-batch
  // scan shape.
  const Row base = run_scan(1, /*use_touch=*/true);
  emit(base);
  const Row full = run_scan(8, true);
  emit(full);
  // Demand rows: no touch — the window has nothing to pipeline.
  const Row demand_base = run_scan(1, false);
  emit(demand_base);
  const Row demand_win = run_scan(8, false);
  emit(demand_win);

  bool ok = true;
  for (const Row* r : {&full, &demand_base, &demand_win}) {
    if (r->digest != base.digest) {
      std::printf("!! digest mismatch at window %zu (%s)\n", r->window,
                  r->use_touch ? "touch" : "demand");
      ok = false;
    }
  }
  const double stall_ratio =
      static_cast<double>(base.stall_us) / static_cast<double>(full.stall_us ? full.stall_us : 1);
  const double fetch_ratio =
      static_cast<double>(base.fetches) / static_cast<double>(full.fetches ? full.fetches : 1);
  std::printf("\nwindow 8 vs 1: fetch_stall %.1fx lower, demand RTTs %.1fx fewer\n", stall_ratio,
              fetch_ratio);
  if (stall_ratio < 2.0 && fetch_ratio < 2.0) {
    std::printf("!! acceptance gate failed: expected >=2x reduction in blocking fetch RTTs\n");
    ok = false;
  }
  std::printf("PREFETCH_ABL_%s\n", ok ? "OK" : "FAIL");
  return ok ? 0 : 1;
}
