// Worker-death recovery, end to end: a 4-rank lossy-UDP cluster runs a
// barrier-structured Jacobi-style workload with barrier-consistent
// replication on; one rank SIGKILLs itself the instant its 2nd barrier
// completes (the chaos knob lots_launch --kill drives in CI); the
// survivors catch WorkerDied, run lots::recover(), re-partition over the
// live set and REDO the interrupted superstep — and the final digest
// must be BIT-IDENTICAL to a no-failure reference run. That is the whole
// recovery contract in one assertion: the replicas captured the last
// barrier cut exactly, the re-homing served it exactly, and the redo
// changed nothing it shouldn't.
//
// The workload is written the way recoverable LOTS applications must be
// (see ARCHITECTURE.md "Failure model and recovery"): two arrays,
// supersteps write ONLY the target array from values of the source
// array, so a half-done superstep that unwinds with WorkerDied redoes to
// identical values; the row partition is computed fresh from
// lots::alive() at the top of every attempt.
//
// Fork discipline follows multiproc_test.cpp: the parent holds no
// threads at fork time, children never touch gtest and leave via
// _exit(), results travel through per-rank files.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "cluster/bootstrap.hpp"
#include "common/error.hpp"
#include "common/tempdir.hpp"
#include "core/api.hpp"

namespace lots {
namespace {

using When = KillPoint::When;

constexpr int kProcs = 4;
constexpr int kKillRank = 2;
constexpr int kRows = 8;
constexpr size_t kRowLen = 64;
constexpr int kIters = 6;

/// Runs the recoverable two-array workload. Returns (rank, rank-0 FNV-1a
/// digest of the final array). Deterministic in the CONTENT sense: every
/// cell's final value depends only on (row, index, iteration), never on
/// which rank computed it — so a run that loses a worker mid-flight must
/// still digest identically. `paced` puts a run_barrier() in front of
/// every superstep's barrier(): run barriers have no memory effect, so
/// the digest is unchanged, but deaths then land across both collective
/// kinds.
std::pair<int, uint64_t> run_recovery_workload(const Config& cfg, bool paced = false) {
  uint64_t digest = 0;
  core::Runtime rt(cfg);
  rt.run([&](int rank) {
    const int p = lots::num_procs();
    std::vector<core::Pointer<uint32_t>> a(kRows), b(kRows);
    for (int r = 0; r < kRows; ++r) a[static_cast<size_t>(r)].alloc(kRowLen);
    for (int r = 0; r < kRows; ++r) b[static_cast<size_t>(r)].alloc(kRowLen);

    // Deterministic seed superstep: every rank writes its (full-set)
    // rows of `a`, published at the first barrier.
    for (int r = rank; r < kRows; r += p) {
      for (size_t i = 0; i < kRowLen; ++i) {
        a[static_cast<size_t>(r)][i] = static_cast<uint32_t>(r * 1000 + static_cast<int>(i));
      }
    }
    lots::barrier();

    for (int it = 0; it < kIters;) {
      try {
        // Partition rows over the CURRENT live set, rotated per
        // iteration so homes migrate at barriers and a redo after a
        // death re-covers the dead rank's rows automatically.
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
          // Write-only target, read-only source: redoing this loop after
          // a WorkerDied unwind recomputes bit-identical values.
          for (size_t i = 0; i < kRowLen; ++i) {
            const uint32_t self = cur[static_cast<size_t>(r)][i];
            const uint32_t next = cur[static_cast<size_t>(r)][(i + 1) % kRowLen];
            nxt[static_cast<size_t>(r)][i] =
                self * 2654435761u + next + static_cast<uint32_t>(it);
          }
        }
        if (paced) lots::run_barrier();
        lots::barrier();
        ++it;
      } catch (const WorkerDied&) {
        // A peer died: repair the cluster (collective) and redo the
        // superstep that unwound. `it` is NOT incremented. recover()
        // itself throws WorkerDied when another worker dies mid-repair,
        // so keep repairing until a round completes.
        for (;;) {
          try {
            lots::recover();
            break;
          } catch (const WorkerDied&) {
          }
        }
      }
    }
    // EVERY rank digests the final arrays (they are globally shared), so
    // chaos shapes that kill rank 0 itself still leave a digest behind —
    // the test then reads the lowest SURVIVOR's. In-proc only rank 0
    // computes it: the ranks are threads sharing one `digest` slot.
    if (rank == 0 || !rt.single_process()) {
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
      digest = h;
    }
    lots::barrier();
  });
  const int rank = rt.single_process() ? 0 : rt.local_nodes().front()->rank();
  return {rank, digest};
}

/// The shared chaos harness: forks a kProcs lossy-UDP cluster with
/// `mutate` applied to every worker's Config, expects exactly
/// `expect_dead` SIGKILLed victims (every other worker must exit 0 and
/// report clean), and returns the digest written by the LOWEST surviving
/// rank — the callers compare it to the no-failure in-proc reference.
uint64_t run_chaos_cluster(const std::function<void(Config&)>& mutate, int expect_dead,
                           bool paced = false) {
  TempDir scratch;
  const std::string digest_path = scratch.path() + "/digest";

  cluster::Coordinator coord(kProcs);
  std::vector<pid_t> pids;
  for (int i = 0; i < kProcs; ++i) {
    const pid_t pid = fork();
    EXPECT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
      int code = 3;
      try {
        Config cfg;
        cfg.nprocs = kProcs;
        cfg.cluster.fabric = FabricKind::kUdp;
        cfg.cluster.coord_port = coord.port();
        cfg.cluster.drop_prob = 0.03;
        cfg.cluster.reorder_prob = 0.03;
        cfg.cluster.fault_seed = 7;
        mutate(cfg);
        const auto [rank, digest] = run_recovery_workload(cfg, paced);
        std::ofstream(digest_path + "." + std::to_string(rank)) << digest;
        code = 0;
      } catch (const std::exception& e) {
        // Leave the reason behind for the parent's failure message.
        std::ofstream(digest_path + ".err." + std::to_string(::getpid())) << e.what();
        code = 3;
      } catch (...) {
        code = 3;
      }
      _exit(code);
    }
    pids.push_back(pid);
  }

  auto reports = coord.serve(90'000);

  int sigkilled = 0;
  for (const pid_t pid : pids) {
    int st = 0;
    EXPECT_EQ(waitpid(pid, &st, 0), pid);
    if (WIFSIGNALED(st) && WTERMSIG(st) == SIGKILL) {
      ++sigkilled;  // a chaos victim
    } else {
      EXPECT_TRUE(WIFEXITED(st)) << "survivor killed by signal " << WTERMSIG(st);
      std::string err;
      std::ifstream ein(digest_path + ".err." + std::to_string(pid));
      std::getline(ein, err);
      EXPECT_EQ(WEXITSTATUS(st), 0) << "survivor pid " << pid << " threw: " << err;
    }
  }
  EXPECT_EQ(sigkilled, expect_dead) << "wrong number of chaos victims died";

  EXPECT_EQ(reports.size(), static_cast<size_t>(kProcs));
  int lowest_survivor = -1;
  int reported_dead = 0;
  for (const auto& r : reports) {
    if (r.died) {
      ++reported_dead;
      EXPECT_FALSE(r.clean);
    } else {
      EXPECT_TRUE(r.clean) << "survivor rank " << r.rank << " did not finish clean";
      if (lowest_survivor < 0 || r.rank < lowest_survivor) lowest_survivor = r.rank;
    }
  }
  EXPECT_EQ(reported_dead, expect_dead) << "victims must be declared dead, not merely unclean";
  EXPECT_GE(lowest_survivor, 0) << "no survivor at all";

  uint64_t got = 0;
  std::ifstream in(digest_path + "." + std::to_string(lowest_survivor));
  EXPECT_TRUE(in.good()) << "lowest survivor (rank " << lowest_survivor
                         << ") never wrote its digest";
  in >> got;
  return got;
}

uint64_t no_failure_reference() {
  // No-failure reference on the in-proc fabric (no replication needed:
  // the digest is content-deterministic).
  Config ref_cfg;
  ref_cfg.nprocs = kProcs;
  const uint64_t want = run_recovery_workload(ref_cfg).second;
  EXPECT_NE(want, 0u);
  return want;
}

TEST(Recovery, KillAWorkerMatchesNoFailureDigest) {
  const uint64_t want = no_failure_reference();
  const uint64_t got = run_chaos_cluster(
      [](Config& cfg) {
        cfg.replication = 2;
        // Whichever process draws rank 2 SIGKILLs itself the moment its
        // 2nd barrier completes — exactly the replicated cut.
        cfg.kill_points = {{kKillRank, When::kBarrier, 2}};
      },
      /*expect_dead=*/1);
  EXPECT_EQ(got, want) << "post-recovery result diverged from the no-failure reference";
}

// Two victims in the SAME barrier interval: survivable because R=3 ships
// every homed object to TWO ring successors — losing ranks 1 and 2
// together still leaves rank 3 (or 0) holding the cut for both. The
// repair picks the lowest ALIVE holder per dead rank.
TEST(Recovery, DoubleKillInOneIntervalWithTripleReplication) {
  const uint64_t want = no_failure_reference();
  const uint64_t got = run_chaos_cluster(
      [](Config& cfg) {
        cfg.replication = 3;
        cfg.kill_points = {{1, When::kBarrier, 2}, {2, When::kBarrier, 2}};
      },
      /*expect_dead=*/2);
  EXPECT_EQ(got, want) << "double-kill recovery diverged from the no-failure reference";
}

// SEQUENTIAL second death in the same barrier interval: rank 1 dies
// post-commit, rank 2 (its ring successor) adopts rank 1's objects in
// the recovery round — and SIGKILLs the instant that round completes,
// BEFORE any barrier re-seeds rank 2's rotated ring. Still f = 2 < R =
// 3 in one interval, but unlike the simultaneous double-kill above the
// deaths repair in separate rounds: the second repair must fall back on
// the replicas rank 3 KEPT from rank 1's original fan-out (erasing
// them during round one would zero-fill the adopted objects here).
TEST(Recovery, NewHomeDyingBeforeReseedFallsBackToKeptReplicas) {
  const uint64_t want = no_failure_reference();
  const uint64_t got = run_chaos_cluster(
      [](Config& cfg) {
        cfg.replication = 3;
        cfg.kill_points = {{1, When::kBarrier, 2},
                           {2, When::kAfterRecovery, 1}};  // rank 1's lowest-alive holder
      },
      /*expect_dead=*/2);
  EXPECT_EQ(got, want) << "post-re-home death diverged from the no-failure reference";
}

// Rank 0 is the barrier master and recovery rendezvous point — and it
// must be as killable as anyone else: survivors fail those duties over
// to the lowest alive rank (deterministically, via the coordinator's
// death broadcast), re-mint its managed locks, and continue. The digest
// then comes from rank 1, the new master.
TEST(Recovery, KillingRankZeroFailsOverMasterDuties) {
  const uint64_t want = no_failure_reference();
  const uint64_t got = run_chaos_cluster(
      [](Config& cfg) {
        cfg.replication = 2;
        cfg.kill_points = {{0, When::kBarrier, 2}};
      },
      /*expect_dead=*/1);
  EXPECT_EQ(got, want) << "rank-0 failover diverged from the no-failure reference";
}

// A second death DURING the repair of the first: rank 2 dies post-
// barrier, and rank 1 SIGKILLs itself the moment it enters its own
// recover() round. Survivors' recover() throws WorkerDied mid-repair and
// the application-level retry loop (catch, recover again) must converge
// — with R=3 both victims' objects still have a live holder.
TEST(Recovery, KillDuringRecoveryIsRetriedUntilQuiet) {
  const uint64_t want = no_failure_reference();
  const uint64_t got = run_chaos_cluster(
      [](Config& cfg) {
        cfg.replication = 3;
        cfg.kill_points = {{kKillRank, When::kBarrier, 2}, {1, When::kInRecovery, 1}};
      },
      /*expect_dead=*/2);
  EXPECT_EQ(got, want) << "kill-during-recovery diverged from the no-failure reference";
}

// Death INSIDE the two-phase barrier protocol: the victim enters its 2nd
// barrier, applies the plan, ships replicas — and dies before the done
// rendezvous. Survivors are left holding a half-committed barrier; they
// must unwind to the last committed cut and redo, not fail fast.
TEST(Recovery, MidBarrierDeathRecoversInsteadOfFailingFast) {
  const uint64_t want = no_failure_reference();
  const uint64_t got = run_chaos_cluster(
      [](Config& cfg) {
        cfg.replication = 2;
        cfg.kill_points = {{kKillRank, When::kMidBarrier, 2}};
      },
      /*expect_dead=*/1);
  EXPECT_EQ(got, want) << "mid-barrier death recovery diverged from the no-failure reference";
}

// Double-kill cell mixing kill points: victim 1 dies inside the
// two-phase protocol of its 2nd barrier, victim 2 post-commit of the
// same barrier — one kill point must not suppress the other, both
// victims have to die (expect_dead=2), and the survivors must recover
// through a mid-barrier death followed by a clean post-commit death.
TEST(Recovery, MidBarrierKnobStillKillsSecondVictimPostCommit) {
  const uint64_t want = no_failure_reference();
  const uint64_t got = run_chaos_cluster(
      [](Config& cfg) {
        cfg.replication = 3;
        cfg.kill_points = {{1, When::kMidBarrier, 2}, {2, When::kBarrier, 2}};
      },
      /*expect_dead=*/2);
  EXPECT_EQ(got, want) << "mid-barrier + post-commit double kill diverged from reference";
}

// Deaths across both collective kinds: every superstep is paced by a
// run_barrier() before its barrier(), so the collective sequence the
// recovery echo numbers interleaves the two kinds. Rank 2 dies the
// instant its 2nd barrier commits (survivors may lose that barrier's
// exit reply to the sweep, or unwind in the next run barrier), and rank
// 1 dies at the top of its first recovery pass — a view change during
// recovery, retried until a round completes.
TEST(Recovery, DeathAcrossRunBarrierAndBarrierMatchesDigest) {
  const uint64_t want = no_failure_reference();
  const uint64_t got = run_chaos_cluster(
      [](Config& cfg) {
        cfg.replication = 3;
        cfg.kill_points = {{kKillRank, When::kBarrier, 2}, {1, When::kInRecovery, 1}};
      },
      /*expect_dead=*/2, /*paced=*/true);
  EXPECT_EQ(got, want) << "run-barrier-paced recovery diverged from the no-failure reference";
}

// Without replication a worker death must be FATAL but CLEAN: every
// survivor's recover() throws SystemError (no replicas to fall back on)
// instead of hanging the cluster or dying on an internal check.
TEST(Recovery, DeathWithoutReplicationFailsFast) {
  TempDir scratch;
  cluster::Coordinator coord(kProcs);
  std::vector<pid_t> pids;
  for (int i = 0; i < kProcs; ++i) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
      int code = 3;
      try {
        Config cfg;
        cfg.nprocs = kProcs;
        cfg.cluster.fabric = FabricKind::kUdp;
        cfg.cluster.coord_port = coord.port();
        cfg.replication = 0;  // the point of the test
        cfg.kill_points = {{kKillRank, When::kBarrier, 2}};
        run_recovery_workload(cfg);
        code = 0;  // only the pre-death ranks... nobody should get here
      } catch (const SystemError&) {
        code = 7;  // expected: recover() refused without replication
      } catch (...) {
        code = 3;
      }
      _exit(code);
    }
    pids.push_back(pid);
  }

  // The victim EOFs; the coordinator still completes its protocol by
  // declaring it dead and collecting the survivors' reports.
  auto reports = coord.serve(90'000);
  ASSERT_EQ(reports.size(), static_cast<size_t>(kProcs));

  int sigkilled = 0, refused = 0;
  for (const pid_t pid : pids) {
    int st = 0;
    ASSERT_EQ(waitpid(pid, &st, 0), pid);
    if (WIFSIGNALED(st) && WTERMSIG(st) == SIGKILL) {
      ++sigkilled;
    } else if (WIFEXITED(st) && WEXITSTATUS(st) == 7) {
      ++refused;
    } else {
      ADD_FAILURE() << "worker neither died as the victim nor refused cleanly (status " << st
                    << ")";
    }
  }
  EXPECT_EQ(sigkilled, 1);
  EXPECT_EQ(refused, kProcs - 1);
}

}  // namespace
}  // namespace lots
