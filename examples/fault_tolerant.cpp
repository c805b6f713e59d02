// Fault tolerance: the recoverable-application pattern, end to end.
//
// This is the program shape a LOTS application must have to survive a
// worker death (ARCHITECTURE.md "Failure model and recovery"):
//
//   * run with replication on (lots_launch --replicate), so every
//     barrier also ships each homed object's dirty words to its backup;
//   * structure the computation as idempotent supersteps: write ONLY
//     the target array from values of the source array, so redoing a
//     half-done superstep recomputes bit-identical values;
//   * partition work over lots::alive() recomputed at the top of every
//     attempt, so the dead rank's share re-covers automatically;
//   * catch lots::WorkerDied around the superstep on every app thread,
//     call lots::recover() (a collective, like barrier()), and redo the
//     superstep without advancing the iteration counter.
//
// The result is self-verifying: the recurrence is content-deterministic
// (every cell depends only on (row, index, iteration), never on which
// rank computed it), so rank 0 replays it locally in private memory and
// compares — a run that lost a worker mid-flight must match exactly.
//
//   Clean run over loopback UDP:
//     ./lots_launch -n 4 --replicate ./example_fault_tolerant
//   Chaos run — rank 2 is SIGKILLed the moment its 2nd barrier commits:
//     ./lots_launch -n 4 --replicate --kill 2:barrier:2 ./example_fault_tolerant
#include <cstdio>
#include <vector>

#include "cluster/env.hpp"
#include "common/error.hpp"
#include "core/api.hpp"

namespace {

constexpr int kRows = 12;
constexpr size_t kRowLen = 128;
constexpr int kIters = 8;

uint32_t seed_cell(int row, size_t i) {
  return static_cast<uint32_t>(row * 1000 + static_cast<int>(i));
}

uint32_t step_cell(uint32_t self, uint32_t next, int it) {
  return self * 2654435761u + next + static_cast<uint32_t>(it);
}

}  // namespace

int main() {
  lots::Config cfg;
  cfg.nprocs = 4;
  lots::cluster::configure_from_env(cfg);

  bool ok = true;
  lots::Runtime rt(cfg);
  rt.run([&ok](int rank) {
    const int p = lots::num_procs();
    std::vector<lots::Pointer<uint32_t>> a(kRows), b(kRows);
    for (int r = 0; r < kRows; ++r) a[static_cast<size_t>(r)].alloc(kRowLen);
    for (int r = 0; r < kRows; ++r) b[static_cast<size_t>(r)].alloc(kRowLen);

    for (int r = rank; r < kRows; r += p) {
      for (size_t i = 0; i < kRowLen; ++i) a[static_cast<size_t>(r)][i] = seed_cell(r, i);
    }
    lots::barrier();

    for (int it = 0; it < kIters;) {
      try {
        // Re-partition over whoever is alive RIGHT NOW; after a death
        // the dead rank's rows land on a survivor on the redo.
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
            nxt[static_cast<size_t>(r)][i] =
                step_cell(cur[static_cast<size_t>(r)][i],
                          cur[static_cast<size_t>(r)][(i + 1) % kRowLen], it);
          }
        }
        lots::barrier();
        ++it;
      } catch (const lots::WorkerDied& e) {
        std::printf("rank %d: %s — recovering\n", rank, e.what());
        // recover() itself throws WorkerDied when ANOTHER worker dies
        // mid-recovery; keep repairing until a round completes.
        for (;;) {
          try {
            lots::recover();  // collective: re-home, re-mint locks, resume
            break;
          } catch (const lots::WorkerDied&) {
          }
        }
      }
    }

    // The lowest SURVIVING rank reports — rank 0 must be as killable as
    // anyone else, and a chaos run that targets it still needs its
    // RECOVERY_OK verdict from someone.
    int reporter = 0;
    while (reporter < p && !lots::alive(reporter)) ++reporter;
    if (rank == reporter) {
      // Local replay in private memory: the ground truth no failure,
      // recovery, or re-partitioning is allowed to perturb.
      std::vector<std::vector<uint32_t>> ra(kRows, std::vector<uint32_t>(kRowLen));
      std::vector<std::vector<uint32_t>> rb = ra;
      for (int r = 0; r < kRows; ++r) {
        for (size_t i = 0; i < kRowLen; ++i) ra[static_cast<size_t>(r)][i] = seed_cell(r, i);
      }
      for (int it = 0; it < kIters; ++it) {
        auto& cur = (it % 2 == 0) ? ra : rb;
        auto& nxt = (it % 2 == 0) ? rb : ra;
        for (int r = 0; r < kRows; ++r) {
          for (size_t i = 0; i < kRowLen; ++i) {
            nxt[static_cast<size_t>(r)][i] =
                step_cell(cur[static_cast<size_t>(r)][i],
                          cur[static_cast<size_t>(r)][(i + 1) % kRowLen], it);
          }
        }
      }
      auto& fin = (kIters % 2 == 0) ? a : b;
      auto& ref = (kIters % 2 == 0) ? ra : rb;
      size_t bad = 0;
      for (int r = 0; r < kRows; ++r) {
        for (size_t i = 0; i < kRowLen; ++i) {
          if (fin[static_cast<size_t>(r)][i] != ref[static_cast<size_t>(r)][i]) ++bad;
        }
      }
      ok = (bad == 0);
      int survivors = 0;
      for (int r = 0; r < lots::num_procs(); ++r) survivors += lots::alive(r) ? 1 : 0;
      std::printf("%s p=%d survivors=%d cells=%d bad=%zu\n",
                  ok ? "RECOVERY_OK" : "RECOVERY_FAIL", lots::num_procs(), survivors,
                  kRows * static_cast<int>(kRowLen), bad);
    }
    lots::barrier();
  });

  lots::NodeStats total;
  rt.aggregate_stats(total);
  std::printf("node stats: replica_msgs=%llu replica_bytes=%llu recoveries=%llu\n",
              static_cast<unsigned long long>(total.replica_msgs.load()),
              static_cast<unsigned long long>(total.replica_bytes.load()),
              static_cast<unsigned long long>(total.recoveries.load()));
  return ok ? 0 : 1;
}
