// The paper's four benchmark applications (§4.1), implemented for both
// DSM backends, with built-in verification against the sequential
// references. Each run returns an AppResult combining measured wall time
// of the paper's measured phase with the modeled network/disk time
// accumulated from actual protocol traffic (DESIGN.md §1).
#pragma once

#include <cstdint>

#include "common/config.hpp"

namespace lots::work {

struct AppResult {
  bool ok = false;          ///< output verified against the reference
                            ///< (set by rank 0 only — in multi-process
                            ///< runs other ranks report ok == false)
  int rank = 0;             ///< reporting rank: 0 in-proc; this
                            ///< process's bootstrap rank under lots_launch
  double wall_s = 0.0;      ///< measured wall time of the timed phase
  uint64_t modeled_net_us = 0;   ///< max-over-nodes modeled network wait
  uint64_t modeled_disk_us = 0;  ///< max-over-nodes modeled disk wait
  // aggregated protocol counters (all nodes)
  uint64_t msgs = 0;
  uint64_t bytes = 0;
  uint64_t fetches = 0;      ///< object or page fetches
  uint64_t diff_words = 0;
  uint64_t invalidations = 0;
  uint64_t swap_ins = 0;
  uint64_t swap_outs = 0;
  uint64_t access_checks = 0;
  uint64_t home_migrations = 0;  ///< home moves: barrier plans + lock handoffs
  // async fetch engine (LOTS backend only; zero for JIAJIA)
  uint64_t fetch_pipelined = 0;
  uint64_t prefetch_hits = 0;
  uint64_t prefetch_wasted = 0;
  uint64_t fetch_stall_us = 0;

  /// Modeled execution time: measured compute + modeled waits.
  [[nodiscard]] double time_s() const {
    return wall_s + static_cast<double>(modeled_net_us + modeled_disk_us) / 1e6;
  }
};

// ---- LOTS (object-based, mixed protocol) ----
AppResult lots_me(const Config& cfg, size_t n, uint64_t seed);
AppResult lots_lu(const Config& cfg, size_t n, uint64_t seed);
AppResult lots_sor(const Config& cfg, size_t n, int iterations, uint64_t seed);
AppResult lots_rx(const Config& cfg, size_t n, int passes, uint64_t seed);

// ---- JIAJIA baseline (page-based, home-based) ----
AppResult jia_me(const Config& cfg, size_t n, uint64_t seed);
AppResult jia_lu(const Config& cfg, size_t n, uint64_t seed);
AppResult jia_sor(const Config& cfg, size_t n, int iterations, uint64_t seed);
AppResult jia_rx(const Config& cfg, size_t n, int passes, uint64_t seed);

}  // namespace lots::work
