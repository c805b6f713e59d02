// lots_launch — the multi-process cluster driver.
//
// Forks N worker processes, each exec'ing the given program with the
// rendezvous environment set (cluster/env.hpp); the workers join the
// TCP bootstrap (cluster/bootstrap.hpp), run full DSM nodes over
// loopback UDP, and the driver propagates the worst exit status. Fault
// flags inject datagram loss/reordering/duplication into every worker's
// transport so the sliding-window reliability layer is exercised by the
// real coherence protocol.
//
// Usage:
//   lots_launch [-n N] [--threads M] [--stripes K] [--drop P] [--reorder P]
//               [--dup P] [--seed S] [--timeout SECONDS]
//               [--kv-shards S] [--kv-clients C]
//               [--replicate [R]] [--kill RANK:WHEN[:N][,...]]
//               [--] prog [args...]
//
// Every numeric flag is parsed strictly: malformed or out-of-range
// input is rejected before any worker is forked.
//
// Chaos / recovery knobs: --replicate turns on barrier-consistent
// replication in every worker; an optional integer sets the replication
// factor R >= 2 = total copies per object (bare --replicate means R=2).
// --kill SPEC puts LOTS_KILL=SPEC in every worker's environment: each
// RANK:WHEN[:N] item makes the worker holding that rank SIGKILL ITSELF
// at the N-th (default 1st) occurrence of kill point WHEN — barrier
// (the instant its N-th barrier commits), mid-barrier (inside its N-th
// barrier, before the done rendezvous), in-recovery (at the top of its
// N-th recovery pass) or after-recovery (the instant its N-th recovery
// round completes). The coordinator sees a raw EOF, broadcasts the
// death, and the survivors recover from the replicas. Every rank the
// spec names is an expected victim, excluded from exit-status
// accounting.
//
// Signal hygiene: the workers run in their own process group; SIGINT and
// SIGTERM received by the launcher are forwarded to the whole group, and
// every abnormal coordinator exit (rendezvous failure, timeout, signal)
// SIGKILLs and reaps whatever is left — no orphaned workers. The first
// non-zero UNEXPECTED worker exit status is the launcher's own.
//
// --threads M puts LOTS_THREADS=M in the worker environment: each of
// the N processes hosts M application threads on its rank (hybrid
// N-process × M-thread mode). --stripes K puts LOTS_NET_STRIPES=K there:
// each worker's transport runs K sockets/pump threads (0 = auto).
//
// Service knobs: --kv-shards S / --kv-clients C put LOTS_KV_SHARDS /
// LOTS_KV_CLIENTS in every worker's environment — the lots_kv store
// geometry must be cluster-uniform (collective bucket allocation), so
// the launcher is the right place to set it, and the load harness
// spawns C closed-loop client threads per worker.
//
// Examples:
//   lots_launch -n 4 ./example_quickstart
//   lots_launch -n 2 --threads 2 ./example_quickstart
//   lots_launch -n 4 --drop 0.01 --stripes 4 ./bench_fig8_sor
//   lots_launch -n 4 --threads 2 --kv-shards 32 --kv-clients 4 ./bench_kv_load
//   lots_launch -n 4 --replicate 3 --kill 1:barrier:2,2:barrier:2 ./example_fault_tolerant
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cluster/bootstrap.hpp"
#include "cluster/env.hpp"
#include "common/clock.hpp"
#include "common/error.hpp"

namespace {

using lots::cluster::Coordinator;

uint64_t now_ms() { return lots::now_us() / 1000; }

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [-n N] [--threads M] [--stripes K] [--drop P] [--reorder P]\n"
               "          [--dup P] [--seed S] [--timeout SECONDS]\n"
               "          [--kv-shards S] [--kv-clients C]\n"
               "          [--replicate [R]] [--kill RANK:WHEN[:N][,...]]\n"
               "          [--] prog [args...]\n"
               "  WHEN = barrier | mid-barrier | in-recovery | after-recovery\n",
               argv0);
  std::exit(2);
}

/// SIGINT/SIGTERM forwarding to the workers' process group. Only
/// async-signal-safe calls; the interrupted coordinator syscall then
/// fails (no SA_RESTART) and the normal abnormal-exit path reaps.
volatile sig_atomic_t g_pgid = 0;
volatile sig_atomic_t g_signal = 0;
void forward_signal(int sig) {
  g_signal = sig;
  const pid_t pg = g_pgid;
  if (pg > 0) kill(-pg, sig);
}

struct Options {
  int nprocs = 4;
  int threads = 1;     // app threads per worker process (LOTS_THREADS)
  int stripes = -1;    // socket stripes per worker; -1 = leave unset (auto)
  int kv_shards = -1;  // lots_kv shard count; -1 = leave unset (harness default)
  int kv_clients = -1; // lots_kv client threads per worker; -1 = leave unset
  double drop = 0.0, reorder = 0.0, dup = 0.0;
  uint64_t seed = 1;
  uint64_t timeout_s = 120;
  int replicate = 0;              // LOTS_REPLICATE=R (0 = off, else R >= 2)
  std::string kill_spec;          // --kill SPEC, forwarded verbatim as LOTS_KILL
  std::vector<lots::KillPoint> kills;  // its parse: the expected victims
  std::vector<char*> child_argv;  // prog + args, null-terminated later
};

/// Parses the flags. Every value goes through the strict env parsers,
/// which throw UsageError, so bad input is rejected HERE: otherwise
/// every forked worker would die in configure_from_env before reaching
/// the rendezvous, and the launch would only fail at the full --timeout
/// with a misleading "workers never arrived".
Options parse(int argc, char** argv) {
  using lots::cluster::env_double;
  using lots::cluster::env_int;
  Options o;
  int i = 1;
  for (; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (a == "-n" || a == "--nprocs") {
      o.nprocs = static_cast<int>(env_int("-n", next(), 1, 256));
    } else if (a == "--threads") {
      o.threads = static_cast<int>(env_int("--threads", next(), 1, 256));
    } else if (a == "--stripes") {
      o.stripes = static_cast<int>(env_int("--stripes", next(), 0, 64));
    } else if (a == "--kv-shards") {
      o.kv_shards = static_cast<int>(env_int("--kv-shards", next(), 1, 1 << 16));
    } else if (a == "--kv-clients") {
      o.kv_clients = static_cast<int>(env_int("--kv-clients", next(), 1, 1024));
    } else if (a == "--drop") {
      o.drop = env_double("--drop", next(), 0.0, 0.9);
    } else if (a == "--reorder") {
      o.reorder = env_double("--reorder", next(), 0.0, 0.9);
    } else if (a == "--dup") {
      o.dup = env_double("--dup", next(), 0.0, 0.9);
    } else if (a == "--seed") {
      o.seed = static_cast<uint64_t>(env_int("--seed", next(), 0, LONG_MAX));
    } else if (a == "--timeout") {
      o.timeout_s = static_cast<uint64_t>(env_int("--timeout", next(), 1, 1 << 30));
    } else if (a == "--replicate") {
      // Optional integer R: consume the next argument only when it is
      // all digits (a bare --replicate may be followed by the program).
      o.replicate = 2;
      if (i + 1 < argc && argv[i + 1][0] != '\0' &&
          std::strspn(argv[i + 1], "0123456789") == std::strlen(argv[i + 1])) {
        o.replicate = static_cast<int>(env_int("--replicate", argv[++i], 0, 256));
        if (o.replicate == 1) {
          throw lots::UsageError("--replicate R is the copy count: 0 = off, else R >= 2");
        }
      }
    } else if (a == "--kill") {
      o.kill_spec = next();
    } else if (a == "--") {
      ++i;
      break;
    } else if (!a.empty() && a[0] == '-') {
      usage(argv[0]);
    } else {
      break;  // first non-option = the program
    }
  }
  for (; i < argc; ++i) o.child_argv.push_back(argv[i]);
  if (o.child_argv.empty()) usage(argv[0]);
  // After the loop: -n may follow --kill, and the ranks are checked
  // against the final nprocs.
  if (!o.kill_spec.empty()) o.kills = lots::cluster::parse_kill_spec(o.kill_spec, o.nprocs);
  return o;
}

void set_worker_env(const Options& o, uint16_t coord_port) {
  using namespace lots::cluster;
  setenv(kEnvNprocs, std::to_string(o.nprocs).c_str(), 1);
  setenv(kEnvThreads, std::to_string(o.threads).c_str(), 1);
  setenv(kEnvCoordPort, std::to_string(coord_port).c_str(), 1);
  setenv(kEnvDrop, std::to_string(o.drop).c_str(), 1);
  setenv(kEnvReorder, std::to_string(o.reorder).c_str(), 1);
  setenv(kEnvDup, std::to_string(o.dup).c_str(), 1);
  setenv(kEnvFaultSeed, std::to_string(o.seed).c_str(), 1);
  if (o.stripes >= 0) setenv(kEnvNetStripes, std::to_string(o.stripes).c_str(), 1);
  if (o.kv_shards > 0) setenv(kEnvKvShards, std::to_string(o.kv_shards).c_str(), 1);
  if (o.kv_clients > 0) setenv(kEnvKvClients, std::to_string(o.kv_clients).c_str(), 1);
  if (o.replicate > 0) setenv(kEnvReplicate, std::to_string(o.replicate).c_str(), 1);
  // Uniform across workers: each compares the spec against its own
  // bootstrap-assigned rank, so the victim is the RANK, not a fork slot
  // (arrival order decides which process gets which rank).
  if (!o.kill_spec.empty()) setenv(kEnvKill, o.kill_spec.c_str(), 1);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse(argc, argv);
  } catch (const lots::UsageError& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    usage(argv[0]);
  }
  const uint64_t deadline = now_ms() + opt.timeout_s * 1000;

  std::unique_ptr<Coordinator> coord;
  try {
    coord = std::make_unique<Coordinator>(opt.nprocs);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lots_launch: %s\n", e.what());
    return 1;
  }

  std::vector<pid_t> pids;
  pids.reserve(static_cast<size_t>(opt.nprocs));
  std::vector<char*> child_argv = opt.child_argv;
  child_argv.push_back(nullptr);
  for (int i = 0; i < opt.nprocs; ++i) {
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("lots_launch: fork");
      for (const pid_t p : pids) kill(p, SIGKILL);
      return 1;
    }
    // One process group for all workers, led by the first (both sides
    // call setpgid — whichever runs first wins, the other is a no-op —
    // so the group exists before either the exec or the first signal).
    const pid_t pgid_target = pids.empty() ? 0 : pids.front();
    if (pid == 0) {
      setpgid(0, pgid_target);
      set_worker_env(opt, coord->port());
      execvp(child_argv[0], child_argv.data());
      std::perror("lots_launch: execvp");
      _exit(127);
    }
    setpgid(pid, pgid_target == 0 ? pid : pgid_target);
    pids.push_back(pid);
  }

  // Forward SIGINT/SIGTERM to the worker group. No SA_RESTART: the
  // coordinator's blocked accept/read then fails with EINTR, serve()
  // throws, and the abnormal-exit path below SIGKILLs and reaps whatever
  // the forwarded signal did not stop.
  g_pgid = static_cast<sig_atomic_t>(pids.front());
  struct sigaction sa = {};
  sa.sa_handler = forward_signal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

  // Drive the rendezvous + completion protocol on this thread. A
  // formation failure (missing worker, hang) is fatal for the launch.
  std::vector<Coordinator::WorkerReport> reports;
  bool formed = true;
  try {
    const uint64_t now = now_ms();
    reports = coord->serve(deadline > now ? deadline - now : 1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lots_launch: %s\n", e.what());
    formed = false;
  }

  // The chaos victims' pids (known from their HELLO reports): their
  // SIGKILL deaths are the point of the exercise, so they are excluded
  // from the exit-status accounting below.
  std::vector<pid_t> expected_dead_pids;
  for (const auto& r : reports) {
    for (const lots::KillPoint& k : opt.kills) {
      if (k.rank == r.rank) {
        expected_dead_pids.push_back(static_cast<pid_t>(r.pid));
        break;
      }
    }
  }
  const auto is_expected_dead = [&](pid_t pid) {
    for (const pid_t p : expected_dead_pids) {
      if (p == pid) return true;
    }
    return false;
  };

  // Reap the children, killing whatever outlives the deadline (or an
  // abnormal coordinator exit — rendezvous failure or forwarded signal).
  int worst = formed ? 0 : 1;
  int first_nonzero = 0;  // first UNEXPECTED non-zero worker status, pid order
  std::vector<std::pair<pid_t, int>> statuses;
  for (const pid_t pid : pids) {
    int st = 0;
    pid_t got = 0;
    for (;;) {
      got = waitpid(pid, &st, WNOHANG);
      if (got != 0) break;
      if (now_ms() >= deadline || !formed) {
        kill(pid, SIGKILL);
        got = waitpid(pid, &st, 0);
        break;
      }
      usleep(20'000);
    }
    int code;
    if (got < 0) {
      code = 1;
    } else if (WIFEXITED(st)) {
      code = WEXITSTATUS(st);
    } else {
      code = 128 + (WIFSIGNALED(st) ? WTERMSIG(st) : 0);
    }
    statuses.emplace_back(pid, code);
    if (is_expected_dead(pid)) continue;
    worst = std::max(worst, code);
    if (first_nonzero == 0 && code != 0) first_nonzero = code;
  }

  for (const auto& r : reports) {
    int exit_code = -1;
    for (const auto& [pid, code] : statuses) {
      if (pid == static_cast<pid_t>(r.pid)) exit_code = code;
    }
    const bool expected = is_expected_dead(static_cast<pid_t>(r.pid));
    std::printf("lots_launch: rank %d pid %lld udp_port %u stripes %zu %s exit %d\n", r.rank,
                static_cast<long long>(r.pid), r.udp_ports.empty() ? 0u : r.udp_ports[0],
                r.udp_ports.size(),
                r.died ? (expected ? "DIED (expected)" : "DIED") : (r.clean ? "clean" : "UNCLEAN"),
                exit_code);
    if (!r.clean && !expected) worst = std::max(worst, 1);
  }
  // The launcher's own status: the first unexpected non-zero worker
  // status when one exists, else the formation/cleanliness verdict; a
  // forwarded signal reports as a signal death, like a shell would.
  int rc = first_nonzero != 0 ? first_nonzero : worst;
  if (g_signal != 0) rc = 128 + static_cast<int>(g_signal);
  if (rc == 0) {
    std::printf("LOTS_LAUNCH_OK n=%d threads=%d drop=%g reorder=%g dup=%g%s prog=%s\n", opt.nprocs,
                opt.threads, opt.drop, opt.reorder, opt.dup,
                opt.kills.empty() ? "" : " chaos=kill",
                opt.child_argv[0]);
  } else {
    std::printf("LOTS_LAUNCH_FAIL n=%d exit=%d prog=%s\n", opt.nprocs, rc, opt.child_argv[0]);
  }
  return rc;
}
