// Worker-death recovery ablation (self-gating): replication factors,
// chaos shapes, and the cost of insurance.
//
// Topology: each cell forks a real 4-rank loopback-UDP cluster (the
// only bench that does — recovery cannot be exercised in-proc because
// the victim must actually disappear). The workload is the recoverable
// two-array superstep shape from tests/cluster/recovery_test.cpp:
// write-only target from read-only source, partition over lots::alive()
// recomputed per attempt, content-deterministic final digest.
//
// Cells:
//   norepl  — replication off, no failure. The overhead baseline.
//   repl    — R=2 (one ring backup per home), no failure. Gates:
//             digest identical to norepl, replica traffic actually
//             flowed, and wall time stays within kOverheadCap of the
//             baseline.
//   kill    — R=2, lossy fabric, rank 2 SIGKILLs itself the moment its
//             2nd barrier completes. Gates: exactly one corpse, every
//             survivor ran lots::recover(), digest bit-identical to the
//             no-failure cells.
//   kill2   — R=3, lossy, ranks 1 AND 2 both die in the SAME barrier
//             interval. Gates: two corpses, digest still identical —
//             the f < R promise, exercised at f = 2.
//   kill0   — R=2, lossy, rank 0 (barrier master + recovery rendezvous)
//             dies. Gates: one corpse, survivors fail the master duties
//             over and the LOWEST SURVIVOR's digest matches.
//   midkill — R=2, lossy, the victim dies INSIDE the two-phase barrier
//             (after shipping replicas, before the done rendezvous).
//             Gates: digest identical and the survivors counted a
//             mid-barrier recovery instead of dying on SystemError.
//
// Prints RECOVERY_ABL_OK / _FAIL and exits non-zero on failure so CI
// can gate on it; BENCH_JSON rows feed scripts/update_bench_history.py.
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cluster/bootstrap.hpp"
#include "common/error.hpp"
#include "common/tempdir.hpp"
#include "core/api.hpp"

namespace {

using lots::Config;
using lots::FabricKind;
using lots::NodeStats;
using lots::TempDir;
using lots::WorkerDied;
using lots::bench::JsonLine;

constexpr int kProcs = 4;
constexpr int kKillRank = 2;
constexpr int kRows = 16;
constexpr size_t kRowLen = 256;
constexpr int kIters = 8;
constexpr double kOverheadCap = 2.5;  ///< repl wall / norepl wall bound

/// What one worker leaves behind for the parent: its rank, its digest of
/// the (globally shared) final arrays, and the replication/recovery
/// counters from its node stats.
struct WorkerOut {
  int rank = -1;
  uint64_t digest = 0;
  uint64_t replica_msgs = 0;
  uint64_t replica_bytes = 0;
  uint64_t recoveries = 0;
  uint64_t recoveries_mid = 0;
  uint64_t recover_wall_us = 0;
  uint64_t rehomed = 0;
  uint64_t reseeded = 0;
};

/// The recoverable superstep loop (see recovery_test.cpp for the full
/// contract commentary). Deterministic in the CONTENT sense: a run that
/// loses a worker mid-flight must digest identically to one that
/// does not.
WorkerOut run_worker(const Config& cfg) {
  WorkerOut out;
  lots::Runtime rt(cfg);
  rt.run([&](int rank) {
    const int p = lots::num_procs();
    std::vector<lots::Pointer<uint32_t>> a(kRows), b(kRows);
    for (int r = 0; r < kRows; ++r) a[static_cast<size_t>(r)].alloc(kRowLen);
    for (int r = 0; r < kRows; ++r) b[static_cast<size_t>(r)].alloc(kRowLen);
    for (int r = rank; r < kRows; r += p) {
      for (size_t i = 0; i < kRowLen; ++i) {
        a[static_cast<size_t>(r)][i] = static_cast<uint32_t>(r * 1000 + static_cast<int>(i));
      }
    }
    lots::barrier();
    for (int it = 0; it < kIters;) {
      try {
        std::vector<int> live;
        for (int r = 0; r < p; ++r) {
          if (lots::alive(r)) live.push_back(r);
        }
        int me = -1;
        for (size_t i = 0; i < live.size(); ++i) {
          if (live[i] == rank) me = static_cast<int>(i);
        }
        auto& cur = (it % 2 == 0) ? a : b;
        auto& nxt = (it % 2 == 0) ? b : a;
        for (int r = 0; r < kRows; ++r) {
          if ((r + it) % static_cast<int>(live.size()) != me) continue;
          for (size_t i = 0; i < kRowLen; ++i) {
            const uint32_t self = cur[static_cast<size_t>(r)][i];
            const uint32_t next = cur[static_cast<size_t>(r)][(i + 1) % kRowLen];
            nxt[static_cast<size_t>(r)][i] =
                self * 2654435761u + next + static_cast<uint32_t>(it);
          }
        }
        lots::barrier();
        ++it;
      } catch (const WorkerDied&) {
        for (;;) {  // another worker can die mid-repair: keep repairing
          try {
            lots::recover();
            break;
          } catch (const WorkerDied&) {
          }
        }
      }
    }
    // Every rank digests (the arrays are globally shared): chaos shapes
    // that kill rank 0 still leave a survivor's digest behind.
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (v >> (8 * byte)) & 0xFF;
        h *= 1099511628211ull;
      }
    };
    auto& fin = (kIters % 2 == 0) ? a : b;
    for (int r = 0; r < kRows; ++r) {
      for (size_t i = 0; i < kRowLen; ++i) {
        mix(fin[static_cast<size_t>(r)][i]);
      }
    }
    out.digest = h;
    lots::barrier();
  });
  out.rank = rt.single_process() ? 0 : rt.local_nodes().front()->rank();
  NodeStats total;
  rt.aggregate_stats(total);
  out.replica_msgs = total.replica_msgs.load();
  out.replica_bytes = total.replica_bytes.load();
  out.recoveries = total.recoveries.load();
  out.recoveries_mid = total.recoveries_mid_barrier.load();
  out.recover_wall_us = total.recover_wall_us.load();
  out.rehomed = total.objects_rehomed.load();
  out.reseeded = total.rings_reseeded.load();
  return out;
}

struct CellResult {
  uint64_t digest = 0;  ///< the LOWEST surviving rank's digest
  double wall_s = 0.0;
  uint64_t replica_msgs = 0;
  uint64_t replica_bytes = 0;
  uint64_t recoveries = 0;
  uint64_t recoveries_mid = 0;
  uint64_t recover_wall_us = 0;
  uint64_t rehomed = 0;
  uint64_t reseeded = 0;
  int sigkilled = 0;
  int failed = 0;  ///< survivors that exited non-zero / unexpected signals
};

/// Forks the cell's cluster with `mutate` applied to every worker's
/// Config, waits it out, and aggregates the per-rank stat files. The
/// wall clock covers fork .. last exit, identically for every cell, so
/// the overhead ratios are apples to apples.
CellResult run_cell(const char* name, int replicate,
                    const std::function<void(Config&)>& mutate) {
  TempDir scratch;
  lots::cluster::Coordinator coord(kProcs);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<pid_t> pids;
  for (int i = 0; i < kProcs; ++i) {
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("fork");
      std::exit(2);
    }
    if (pid == 0) {
      int code = 3;
      try {
        Config cfg;
        cfg.nprocs = kProcs;
        cfg.cluster.fabric = FabricKind::kUdp;
        cfg.cluster.coord_port = coord.port();
        cfg.replication = replicate;
        mutate(cfg);
        const WorkerOut out = run_worker(cfg);
        std::ofstream f(scratch.path() + "/r" + std::to_string(out.rank));
        f << out.digest << ' ' << out.replica_msgs << ' ' << out.replica_bytes << ' '
          << out.recoveries << ' ' << out.recoveries_mid << ' ' << out.recover_wall_us
          << ' ' << out.rehomed << ' ' << out.reseeded << '\n';
        code = 0;
      } catch (...) {
        code = 3;
      }
      _exit(code);
    }
    pids.push_back(pid);
  }

  coord.serve(120'000);

  CellResult res;
  for (const pid_t pid : pids) {
    int st = 0;
    waitpid(pid, &st, 0);
    if (WIFSIGNALED(st) && WTERMSIG(st) == SIGKILL) {
      ++res.sigkilled;
    } else if (!WIFEXITED(st) || WEXITSTATUS(st) != 0) {
      ++res.failed;
    }
  }
  res.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  bool have_digest = false;
  for (int r = 0; r < kProcs; ++r) {
    std::ifstream f(scratch.path() + "/r" + std::to_string(r));
    if (!f.good()) continue;  // a chaos victim leaves no file
    uint64_t digest = 0, msgs = 0, bytes = 0, rec = 0, mid = 0, rus = 0, reh = 0, rsd = 0;
    f >> digest >> msgs >> bytes >> rec >> mid >> rus >> reh >> rsd;
    if (!have_digest) {  // lowest surviving rank
      res.digest = digest;
      have_digest = true;
    }
    res.replica_msgs += msgs;
    res.replica_bytes += bytes;
    res.recoveries += rec;
    res.recoveries_mid += mid;
    res.recover_wall_us += rus;
    res.rehomed += reh;
    res.reseeded += rsd;
  }

  std::printf("%-7s: wall=%6.2fs digest=%016llx replica=%llu msgs/%llu B recoveries=%llu "
              "(mid=%llu, %llu us) rehomed=%llu reseeded=%llu killed=%d failed=%d\n",
              name, res.wall_s, static_cast<unsigned long long>(res.digest),
              static_cast<unsigned long long>(res.replica_msgs),
              static_cast<unsigned long long>(res.replica_bytes),
              static_cast<unsigned long long>(res.recoveries),
              static_cast<unsigned long long>(res.recoveries_mid),
              static_cast<unsigned long long>(res.recover_wall_us),
              static_cast<unsigned long long>(res.rehomed),
              static_cast<unsigned long long>(res.reseeded), res.sigkilled, res.failed);
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(res.digest));
  JsonLine("abl_recovery")
      .str("cell", name)
      .num("replicate", replicate)
      .num("wall_s", res.wall_s)
      .num("replica_msgs", res.replica_msgs)
      .num("replica_bytes", res.replica_bytes)
      .num("recoveries", res.recoveries)
      .num("recoveries_mid_barrier", res.recoveries_mid)
      .num("recover_wall_us", res.recover_wall_us)
      .num("objects_rehomed", res.rehomed)
      .num("rings_reseeded", res.reseeded)
      .num("sigkilled", res.sigkilled)
      .num("failed", res.failed)
      .str("digest", digest_hex)
      .emit();
  return res;
}

/// The lossy fabric + post-barrier-2 kill shape every chaos cell shares.
void lossy(Config& cfg) {
  cfg.cluster.drop_prob = 0.02;
  cfg.cluster.reorder_prob = 0.02;
  cfg.cluster.fault_seed = 11;
}

}  // namespace

int main() {
  std::printf("\n=== worker-death recovery ablation: 4-rank loopback UDP ===\n");

  using When = lots::KillPoint::When;
  const CellResult norepl = run_cell("norepl", 0, [](Config&) {});
  const CellResult repl = run_cell("repl", 2, [](Config&) {});
  const CellResult kill = run_cell("kill", 2, [](Config& cfg) {
    lossy(cfg);
    cfg.kill_points = {{kKillRank, When::kBarrier, 2}};
  });
  const CellResult kill2 = run_cell("kill2", 3, [](Config& cfg) {
    lossy(cfg);
    cfg.kill_points = {{1, When::kBarrier, 2}, {2, When::kBarrier, 2}};
  });
  const CellResult kill0 = run_cell("kill0", 2, [](Config& cfg) {
    lossy(cfg);
    cfg.kill_points = {{0, When::kBarrier, 2}};
  });
  const CellResult midkill = run_cell("midkill", 2, [](Config& cfg) {
    lossy(cfg);
    cfg.kill_points = {{kKillRank, When::kMidBarrier, 2}};
  });

  bool ok = true;
  for (const auto* c : {&norepl, &repl}) {
    if (c->sigkilled != 0 || c->failed != 0) {
      std::printf("GATE FAIL: a no-failure cell lost workers\n");
      ok = false;
    }
  }
  struct ChaosGate {
    const char* name;
    const CellResult* cell;
    int corpses;
  };
  for (const auto& g : {ChaosGate{"kill", &kill, 1}, ChaosGate{"kill2", &kill2, 2},
                        ChaosGate{"kill0", &kill0, 1}, ChaosGate{"midkill", &midkill, 1}}) {
    if (g.cell->sigkilled != g.corpses || g.cell->failed != 0) {
      std::printf("GATE FAIL: %s wanted exactly %d corpse(s) and 0 failed survivors "
                  "(got %d / %d)\n",
                  g.name, g.corpses, g.cell->sigkilled, g.cell->failed);
      ok = false;
    }
    if (g.cell->digest != norepl.digest) {
      std::printf("GATE FAIL: %s post-recovery digest diverged from the no-failure "
                  "reference (%016llx vs %016llx)\n",
                  g.name, static_cast<unsigned long long>(g.cell->digest),
                  static_cast<unsigned long long>(norepl.digest));
      ok = false;
    }
  }
  if (norepl.digest == 0 || repl.digest != norepl.digest) {
    std::printf("GATE FAIL: replication changed the answer\n");
    ok = false;
  }
  if (repl.replica_bytes == 0 || norepl.replica_bytes != 0) {
    std::printf("GATE FAIL: replica traffic wrong (repl=%llu B, norepl=%llu B)\n",
                static_cast<unsigned long long>(repl.replica_bytes),
                static_cast<unsigned long long>(norepl.replica_bytes));
    ok = false;
  }
  if (kill.recoveries < static_cast<uint64_t>(kProcs - 1)) {
    std::printf("GATE FAIL: only %llu recover() calls across survivors (want >= %d)\n",
                static_cast<unsigned long long>(kill.recoveries), kProcs - 1);
    ok = false;
  }
  if (midkill.recoveries_mid == 0) {
    std::printf("GATE FAIL: midkill survivors never counted a mid-barrier recovery\n");
    ok = false;
  }
  // Insurance must be affordable: barrier-cut replication adds one
  // acked diff ship per dirty homed object per barrier. The +0.25 s
  // floor keeps the ratio meaningful when both cells are fast.
  const double overhead =
      norepl.wall_s > 0 ? repl.wall_s / norepl.wall_s : 0.0;
  if (repl.wall_s > norepl.wall_s * kOverheadCap + 0.25) {
    std::printf("GATE FAIL: replication overhead %.2fx exceeds %.2fx cap "
                "(%.2fs vs %.2fs)\n",
                overhead, kOverheadCap, repl.wall_s, norepl.wall_s);
    ok = false;
  }
  std::printf(ok ? "RECOVERY_ABL_OK overhead=%.2fx replica_bytes=%llu "
                   "recoveries=%llu mid=%llu\n"
                 : "RECOVERY_ABL_FAIL overhead=%.2fx replica_bytes=%llu "
                   "recoveries=%llu mid=%llu\n",
              overhead, static_cast<unsigned long long>(repl.replica_bytes),
              static_cast<unsigned long long>(kill.recoveries + kill2.recoveries +
                                              kill0.recoveries + midkill.recoveries),
              static_cast<unsigned long long>(midkill.recoveries_mid));
  return ok ? 0 : 1;
}
