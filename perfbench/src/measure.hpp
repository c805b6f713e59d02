// Measurement primitives shared by the three benchmark workloads:
// raw latency samples with exact percentiles, the in-memory span trace,
// NodeStats deltas, and the result record perfbench/run.py reads.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "core/api.hpp"

namespace perfbench {

inline uint64_t now_ns() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

/// Steady-clock reading taken at the top of main(): "process start" for
/// setup_s (exec and static initialisation before it take microseconds).
extern uint64_t g_process_start_ns;

/// Raw per-op durations in nanoseconds (4 bytes each, saturating at
/// 4.29 s, to keep the benchmark's own memory small next to the
/// program's). Percentiles are exact nearest-rank values over every
/// sample; nothing is bucketed.
class Samples {
 public:
  void add(uint64_t ns) { v_.push_back(static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX))); }
  void merge(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  [[nodiscard]] size_t count() const { return v_.size(); }
  [[nodiscard]] uint64_t sum_ns() const;
  /// Nearest-rank percentile p in (0, 100], in microseconds. Throws when
  /// fewer than `min_beyond` samples lie above the chosen rank, so a
  /// p99 always rests on at least ten slower samples.
  [[nodiscard]] double pct_us(double p, size_t min_beyond = 0) const;
  [[nodiscard]] double p50_us() const { return pct_us(50.0); }
  [[nodiscard]] double p99_us() const { return pct_us(99.0, 10); }

 private:
  std::vector<uint32_t> v_;
};

// ---- the span trace ----------------------------------------------------------

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Process-wide span recorder. Disabled (every call a no-op) unless the
/// run is traced. Spans go to per-thread buffers kept in memory and are
/// written out once, at exit.
class Trace {
 public:
  static void enable() { on_.store(true, std::memory_order_relaxed); }
  /// Allocates the calling thread's span buffer now. main() calls it in
  /// traced and untraced runs alike, so both make the same allocations
  /// before the Runtime is built.
  static void prepare_thread();
  [[nodiscard]] static bool on() { return on_.load(std::memory_order_relaxed); }
  /// A fresh span id (ids are unique across threads; 0 is never used).
  static uint64_t new_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  /// Records a finished span with an explicit parent (cross-thread spans).
  static void add(uint64_t id, uint64_t parent, const char* name, uint64_t start_ns,
                  uint64_t end_ns);

  /// Every recorded span (call after all recording threads joined).
  static std::vector<Span> all();
  /// Durations in ns of every span named `name`.
  static Samples durations(const std::vector<Span>& spans, const char* name);
  /// Writes one JSON object per span plus a per-name self-time table.
  static void write(const std::string& path);

 private:
  static std::atomic<bool> on_;
  static std::atomic<uint64_t> next_id_;
};

/// RAII span on the calling thread; nests under the thread's open span.
/// A null name records nothing (untimed phases).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t start_ = 0;
};

// ---- NodeStats snapshots --------------------------------------------------

/// The NodeStats counters the per-layer metrics use, summed over the
/// process's nodes. Modeled time (net_wait_us, disk_wait_us) is left out
/// on purpose: it is not measured.
struct Counters {
  uint64_t msgs_sent = 0, bytes_sent = 0, diff_payload_bytes = 0, object_fetches = 0,
           invalidations = 0, home_commit_notices = 0, lock_acquires = 0, access_checks = 0,
           alb_hits = 0, swap_ins = 0, swap_outs = 0, swap_bytes_in = 0, swap_bytes_out = 0,
           evictions = 0, inflight_waits = 0, evict_races = 0, fetch_stall_us = 0;
  /// Host CPU time from /proc/stat (all CPUs, in ticks): steal is the time
  /// the hypervisor ran something else while this VM wanted to run.
  uint64_t cpu_steal = 0, cpu_total = 0;

  static Counters read(lots::Runtime& rt);
  [[nodiscard]] Counters minus(const Counters& base) const;
};

/// Threads of this process right now (entries of /proc/self/task).
size_t process_threads();
/// Online CPUs.
size_t cpu_count();
/// Peak resident set of this process, MB (getrusage ru_maxrss).
double peak_rss_mb();

// ---- the result record ----------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `failures` are the check messages;
/// `failed` counts operations whose output was wrong.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;
  std::vector<std::pair<std::string, size_t>> sample_counts;

  void fail(const std::string& why);
  /// A bypass or shape assertion: violated means the workload drifted.
  void require(bool ok, const std::string& what);
  void e2e(const char* name, double v, const char* unit) { end_to_end.push_back({name, v, unit}); }
  void layer(const char* name, double v, const char* unit) { layers.push_back({name, v, unit}); }
  /// Adds `<prefix>_p50_us` and `<prefix>_p99_us`, exact over every
  /// sample of the per-thread streams, and records the sample count.
  /// Throws when fewer than ten samples lie beyond the p99.
  void latency(const std::string& prefix, const std::vector<const Samples*>& streams);
  void print_json() const;
};

/// Workload inputs shared by all three workloads.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< disk stores and the trace file live here
};

/// Set-ups per process: the last one runs the timed phase, and setup_s
/// is the median over all of them.
constexpr int kSetups = 3;

/// Everything a traced run derives from the timed phase, in one place so
/// each workload reports every per-layer metric with the same formula
/// (0 where the workload has no such unit of work).
struct LayerInputs {
  Counters delta;       ///< NodeStats over the timed phase
  double ops = 0;       ///< end-to-end ops in the timed phase
  double iters = 0;     ///< barrier-delimited iterations (SOR iterations,
                        ///< largespace passes; 0 for kv_zipf)
  double rows = 0;      ///< row-object accesses (0 for kv_zipf)
  double compute_ns = 0;  ///< app-thread time outside barriers, summed
                          ///< over ranks (0 when there is no compute phase)
  double timed_ns = 0;  ///< timed phase wall, summed over ranks
  double seq_s = 0;     ///< sor only: the sequential reference time
};

void add_layer_metrics(Report& r, const LayerInputs& in, const std::vector<Span>& spans);

/// Median of a small vector (copies).
double median(std::vector<double> v);

}  // namespace perfbench
