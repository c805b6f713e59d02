// The three benchmark workloads. Each runs kSetups set-ups in
// this process, keeps the last one for the timed phase, checks every
// output, and returns the metrics (see perfbench/NOTES.md).
#pragma once

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/api.hpp"
#include "measure.hpp"

namespace perfbench {

Report run_kv_zipf(const Options& opts);
Report run_sor(const Options& opts);
Report run_largespace(const Options& opts);

/// Every workload: 2 ranks x 1 app thread on the in-proc fabric,
/// replication off, no modeled delays, disk stores under the work dir.
inline lots::Config base_config(const Options& opts, int setup) {
  lots::Config cfg;
  cfg.nprocs = 2;
  cfg.threads_per_node = 1;
  cfg.disk_dir = opts.work_dir + "/setup" + std::to_string(setup);
  std::filesystem::create_directories(cfg.disk_dir);
  return cfg;
}

/// Start of set-up `n`: the first is timed from process start. Before a
/// later one, freed heap memory of the previous set-up is returned to the
/// OS, so peak_rss_mb reflects one set-up and not the ones discarded.
inline uint64_t begin_setup(int n) {
  if (n == 0) return g_process_start_ns;
  ::malloc_trim(0);
  return now_ns();
}

/// Reports setup_s, the median of the set-ups' times, and prints each.
inline void report_setup(Report& r, const std::vector<double>& setup_s) {
  std::printf("set-ups:");
  for (const double t : setup_s) std::printf(" %.3f s", t);
  std::printf("\n");
  r.e2e("setup_s", median(setup_s), "s");
}

/// Pins the calling thread to CPUs `cpus` (modulo the online CPUs).
inline void pin_current_thread(std::initializer_list<size_t> cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const size_t c : cpus) CPU_SET(c % cpu_count(), &set);
  if (::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set) != 0) {
    throw std::runtime_error("pthread_setaffinity_np failed");
  }
}

// Thread placement. Each rank is run as a one-CPU node: app thread r on
// CPU r at nice 10, and kv_zipf's client of rank r beside it at nice 0.
// The two Endpoint service threads (which inherit the mask of the thread
// that builds the Runtime) share CPU 0 at nice 0, so a remote request
// preempts the computation — the role SIGIO plays in the paper. With a
// two-CPU mask the scheduler parked both on CPU 0 or both on CPU 1 for
// the life of the process, and processes of the second kind took twice
// as long to set up sor (NOTES.md, noise source 6).
constexpr int kAppThreadNice = 10;

inline std::unique_ptr<lots::Runtime> construct_runtime(const lots::Config& cfg) {
  pin_current_thread({0});  // inherited by the service threads
  ScopedSpan span("runtime.construct");
  return std::make_unique<lots::Runtime>(cfg);
}

/// First call of every app thread inside Runtime::run.
inline void place_app_thread(int rank) {
  pin_current_thread({static_cast<size_t>(rank)});
  if (::setpriority(PRIO_PROCESS, static_cast<id_t>(::gettid()), kAppThreadNice) != 0) {
    throw std::runtime_error("setpriority failed");
  }
}

template <typename T>
void traced_alloc(lots::Pointer<T>& p, size_t count) {
  ScopedSpan span("mem.alloc");
  p.alloc(count);
}

/// lots::barrier(). Inside a timed phase (wait_ns set) it is traced as
/// "lots.barrier" and its time is added to *wait_ns.
inline void timed_barrier(uint64_t* wait_ns) {
  if (wait_ns == nullptr) {
    lots::barrier();
    return;
  }
  ScopedSpan span("lots.barrier");
  const uint64_t t0 = now_ns();
  lots::barrier();
  *wait_ns += now_ns() - t0;
}

/// splitmix64 finaliser: seeds and derived values.
inline uint64_t mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Runtime threads at a timed-phase start: every thread of the process
/// except main() (parked in Runtime::run) and the benchmark's own
/// `bench_threads`. Must not exceed the online CPUs.
inline void require_thread_budget(Report& r, size_t threads_seen, size_t bench_threads) {
  const size_t runtime_threads = threads_seen - 1 - bench_threads;
  r.require(runtime_threads <= cpu_count(),
            std::to_string(runtime_threads) + " runtime threads on " +
                std::to_string(cpu_count()) + " CPUs");
}

}  // namespace perfbench
