// Shared helpers for the paper-reproduction benches.
//
// Reported time = measured wall time of the timed phase + the modeled
// network/disk waits accumulated from the run's actual protocol traffic
// through the calibrated cost models (DESIGN.md §1). Absolute seconds
// are not comparable to the paper's 2004 testbed; the *shape* (who wins,
// by what factor, where the crossover falls) is the reproduction target.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <type_traits>

#include "cluster/env.hpp"
#include "workloads/apps.hpp"

namespace lots::bench {

/// Machine-readable result emission: one JSON object per line, prefixed
/// with BENCH_JSON so harnesses can grep results out of the
/// human-readable tables and track them across PRs.
///
///   JsonLine("fig8_sor").str("app", "SOR").num("n", 512)
///       .num("lots_s", 1.23).emit();
class JsonLine {
 public:
  explicit JsonLine(const std::string& bench) : buf_("{\"bench\":\"" + escaped(bench) + "\"") {}

  /// Accepts any arithmetic type: integers print exactly, floats as %.6g
  /// (a single template avoids int-literal overload ambiguity).
  template <typename T>
  JsonLine& num(const char* key, T v) {
    static_assert(std::is_arithmetic_v<T>, "JsonLine::num needs a number");
    if constexpr (std::is_floating_point_v<T>) {
      char tmp[64];
      std::snprintf(tmp, sizeof(tmp), "%.6g", static_cast<double>(v));
      buf_ += std::string(",\"") + key + "\":" + tmp;
    } else {
      buf_ += std::string(",\"") + key + "\":" + std::to_string(v);
    }
    return *this;
  }
  JsonLine& boolean(const char* key, bool v) {
    buf_ += std::string(",\"") + key + "\":" + (v ? "true" : "false");
    return *this;
  }
  JsonLine& str(const char* key, const std::string& v) {
    buf_ += std::string(",\"") + key + "\":\"" + escaped(v) + "\"";
    return *this;
  }
  void emit() { std::printf("BENCH_JSON %s}\n", buf_.c_str()); }

 private:
  /// Minimal JSON string escaping so labels cannot break the line.
  static std::string escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char tmp[8];
            std::snprintf(tmp, sizeof(tmp), "\\u%04x", c);
            out += tmp;
          } else {
            out += c;
          }
      }
    }
    return out;
  }

  std::string buf_;
};

/// Baseline config for Fig. 8 runs: the paper's 100base-T network model,
/// zero time-scale (delays are modeled, not slept), generous DMM.
inline Config fig8_config(int nprocs) {
  Config c;
  c.nprocs = nprocs;
  c.dmm_bytes = 32u << 20;
  c.jia_heap_bytes = 64u << 20;
  c.net.latency_us = 85.0;      // one-way small-message latency
  c.net.bandwidth_MBps = 11.0;  // ~100 Mbit/s effective
  c.net.time_scale = 0.0;
  return c;
}

inline void print_header(const char* fig, const char* app, const char* xlabel) {
  std::printf("\n=== %s — %s ===\n", fig, app);
  std::printf("(y = modeled execution time in seconds: measured compute + modeled "
              "100base-T network; paper shape targets in ARCHITECTURE.md, Verification)\n");
  std::printf("%-10s %6s %10s %10s %10s %14s\n", xlabel, "p", "JIAJIA", "LOTS", "LOTS-x",
              "LOTS/JIAJIA");
}

inline void print_row(size_t n, int p, const work::AppResult& jia, const work::AppResult& l,
                      const work::AppResult& lx) {
  std::printf("%-10zu %6d %10.3f %10.3f %10.3f %13.2fx %s\n", n, p, jia.time_s(), l.time_s(),
              lx.time_s(), jia.time_s() / (l.time_s() > 0 ? l.time_s() : 1e-9),
              (jia.ok && l.ok && lx.ok) ? "" : "  !! VERIFY FAILED");
}

/// Multi-process entry for a fig8 bench. When the process is a
/// lots_launch worker this runs the LOTS variant once over loopback UDP
/// (problem size via LOTS_BENCH_N, default `default_n`) and returns the
/// process exit code: rank 0 prints the MULTIPROC_OK smoke line plus a
/// BENCH_JSON row and fails the process if verification fails. Returns
/// -1 when not under the launcher — the caller falls through to the
/// normal in-proc sweep, so one binary serves both fabrics.
inline int maybe_multiproc_main(const char* app,
                                const std::function<work::AppResult(const Config&, size_t)>& run,
                                size_t default_n) {
  Config cfg = fig8_config(4);
  if (!cluster::configure_from_env(cfg)) return -1;
  size_t n = default_n;
  if (const char* s = std::getenv("LOTS_BENCH_N")) n = std::strtoull(s, nullptr, 10);
  const work::AppResult r = run(cfg, n);
  if (r.rank != 0) return 0;  // only rank 0 verifies and reports
  std::printf("MULTIPROC_%s app=%s n=%zu p=%d wall_s=%.3f msgs=%llu fetches=%llu\n",
              r.ok ? "OK" : "FAIL", app, n, cfg.nprocs, r.wall_s,
              static_cast<unsigned long long>(r.msgs), static_cast<unsigned long long>(r.fetches));
  JsonLine("multiproc")
      .str("app", app)
      .num("n", static_cast<uint64_t>(n))
      .num("p", static_cast<uint64_t>(cfg.nprocs))
      .num("wall_s", r.wall_s)
      .num("msgs", r.msgs)
      .num("fetches", r.fetches)
      .num("fetch_window", static_cast<uint64_t>(cfg.fetch_window))
      .num("fetch_pipelined", r.fetch_pipelined)
      .num("prefetch_hits", r.prefetch_hits)
      .num("prefetch_wasted", r.prefetch_wasted)
      .num("fetch_stall_us", r.fetch_stall_us)
      .boolean("ok", r.ok)
      .emit();
  return r.ok ? 0 : 1;
}

/// JSON twin of print_row: emitted alongside the table so the result
/// trajectory is trackable without parsing the human format.
inline void json_row(const char* fig, const char* app, size_t n, int p,
                     const work::AppResult& jia, const work::AppResult& l,
                     const work::AppResult& lx) {
  JsonLine(fig)
      .str("app", app)
      .num("n", static_cast<uint64_t>(n))
      .num("p", static_cast<uint64_t>(p))
      .num("jiajia_s", jia.time_s())
      .num("lots_s", l.time_s())
      .num("lotsx_s", lx.time_s())
      .boolean("ok", jia.ok && l.ok && lx.ok)
      .emit();
}

}  // namespace lots::bench
