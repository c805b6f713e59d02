// Cluster-wide configuration for a LOTS (or JIAJIA-baseline) run.
//
// One Config describes the whole simulated cluster: node count, the
// process-space partition sizes of Fig. 3 in the paper, protocol mode
// switches used by the ablation benches, and the calibrated network /
// disk models used to convert protocol traffic into modeled time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace lots {

/// Coherence protocol selection (paper §3.4). `kMixed` is the paper's
/// contribution: homeless write-update under locks, migrating-home
/// write-invalidate at barriers. The pure modes exist for the ablation
/// bench `abl_protocol`.
enum class ProtocolMode : uint8_t {
  kMixed = 0,           ///< paper default
  kWriteUpdateOnly,     ///< homeless write-update at locks AND barriers
  kWriteInvalidateOnly, ///< migrating-home write-invalidate everywhere
  /// Paper §5 future work, implemented here: the mixed protocol plus
  /// home-migration damping — the barrier master tracks each object's
  /// recent writers and stops migrating homes that ping-pong between two
  /// nodes (the RX pathology). Its contiguous diffs ship in the shared
  /// run-length wire form, like every mode's.
  kAdaptive,
};

/// Diff transmission strategy (paper §3.5).
enum class DiffMode : uint8_t {
  kPerWordTimestamp = 0, ///< paper's fix: on-demand diff vs requester time
  kAccumulatedRecords,   ///< TreadMarks-style chained diffs (accumulates)
};

/// Network cost model, calibrated to the paper's testbed (100base-T
/// switched Ethernet). Modeled time per message = `latency_us` +
/// bytes / `bandwidth_MBps`. `time_scale` lets benches run the model at a
/// fraction of real time while keeping relative shapes intact; scale 0
/// disables delays entirely (unit tests).
struct NetModel {
  double latency_us = 85.0;      ///< per-message one-way latency
  double bandwidth_MBps = 11.0;  ///< ~100 Mbit/s effective
  double time_scale = 0.0;       ///< 0 = no imposed delay (tests)
  /// Modeled cost in microseconds of putting `bytes` on the wire.
  [[nodiscard]] double cost_us(size_t bytes) const {
    return latency_us + static_cast<double>(bytes) / bandwidth_MBps;
  }
};

/// Which interconnect a Runtime builds its node(s) on. `kInProc` is the
/// historical mode: every rank lives in one process on the modeled
/// fabric. `kUdp` makes the constructing process host exactly ONE rank
/// over real loopback UDP sockets; rank assignment and peer endpoint
/// exchange happen through the lots_launch rendezvous (src/cluster/).
enum class FabricKind : uint8_t {
  kInProc = 0,
  kUdp,
};

/// Multi-process cluster settings, consulted only when
/// `fabric == FabricKind::kUdp`. The fault knobs inject loss into the
/// process's *outgoing* datagrams so the sliding-window retransmission
/// path is exercised by the real coherence protocol, not just unit
/// tests. cluster::configure_from_env fills this from the lots_launch
/// environment.
struct ClusterConfig {
  FabricKind fabric = FabricKind::kInProc;
  /// TCP rendezvous port of the launching coordinator (required, kUdp).
  uint16_t coord_port = 0;
  /// Bootstrap + peer-exchange deadline.
  uint64_t boot_timeout_ms = 30'000;
  // -- UDP reliability layer ---------------------------------------------
  size_t udp_window = 32;
  uint64_t udp_rto_us = 20'000;
  /// Retransmit rounds (with exponential RTO backoff, capped at 32x the
  /// base RTO) before a silent peer is declared unreachable and every
  /// caller blocked on it gets a peer-death error instead of hanging
  /// forever. 0 = retry forever (the historical behavior). Env override:
  /// LOTS_NET_RETRANS.
  size_t udp_max_retrans = 100;
  /// Socket stripes per node: each stripe is its own socket + pump
  /// thread + lock, and messages spread across them by flow key
  /// (Message::flow % net_stripes). 0 = auto: min(16 directory stripes,
  /// hardware threads), at least 1. Env override: LOTS_NET_STRIPES.
  size_t net_stripes = 0;
  // -- fault injection (outgoing datagrams) ------------------------------
  double drop_prob = 0.0;
  double reorder_prob = 0.0;
  double dup_prob = 0.0;
  uint64_t fault_seed = 1;
};

/// Disk cost model for the Table 1 platform rows. Time for an I/O of
/// `bytes` = `seek_us` + bytes / `throughput_MBps`.
struct DiskModel {
  double seek_us = 0.0;
  double throughput_MBps = 0.0;  ///< 0 = unmodeled (real disk speed only)
  double time_scale = 0.0;       ///< 0 = no imposed delay
  [[nodiscard]] double cost_us(size_t bytes) const {
    if (throughput_MBps <= 0.0) return 0.0;
    return seek_us + static_cast<double>(bytes) / throughput_MBps;
  }
};

/// A chaos-testing self-kill: rank `rank` raises SIGKILL on itself at
/// the `n`-th occurrence of kill point `when` (UDP fabric only — the
/// victim must really disappear). Spec string form, parsed by
/// cluster::parse_kill_spec: `RANK:WHEN[:N][,...]`, N defaulting to 1.
struct KillPoint {
  enum class When : uint8_t {
    kBarrier,        ///< "barrier": the instant its n-th barrier commits
    kMidBarrier,     ///< "mid-barrier": inside its n-th barrier, plan applied
                     ///< and replicas shipped, before the done rendezvous
    kInRecovery,     ///< "in-recovery": at the top of its n-th recovery pass
    kAfterRecovery,  ///< "after-recovery": the instant its n-th recovery
                     ///< round completes, before any barrier re-seeds the ring
  };
  int rank = 0;
  When when = When::kBarrier;
  uint32_t n = 1;
};

/// Whole-cluster configuration. Defaults give a small, fast in-process
/// cluster suitable for unit tests; benches override the knobs they sweep.
struct Config {
  int nprocs = 4;  ///< paper supports up to 256 (§5); tested to 16 here

  // -- Fig. 3 process-space partition ------------------------------------
  /// Size of the DMM area (and therefore also of the twin and control
  /// areas, which mirror it at +S and +2S). Paper: 512 MB on 32-bit.
  size_t dmm_bytes = 16u << 20;
  /// VM page size used for small-object packing and the JIAJIA baseline.
  size_t page_bytes = 4096;

  // -- Large-object-space support (the headline feature) -----------------
  /// When false the runtime behaves as "LOTS-x" (§4.1/4.2): every object
  /// is eagerly and permanently mapped, no pinning, no disk swapping.
  bool large_object_space = true;
  /// Directory for per-node disk stores; empty = a fresh temp dir.
  std::string disk_dir;
  /// Local disk budget for swapped objects (0 = unlimited; needs nprocs
  /// >= 2). Past it, clean non-home copies spill to the next rank's disk:
  /// the paper's §5 future-work item ("swapping can also be done not only
  /// to and from local hard disks, but remote ones").
  size_t disk_capacity_bytes = 0;

  // -- Protocol knobs -----------------------------------------------------
  ProtocolMode protocol = ProtocolMode::kMixed;
  DiffMode diff_mode = DiffMode::kPerWordTimestamp;
  /// Lock-release-driven adaptive home migration (ROADMAP "Adaptive home
  /// migration"): the lock manager tracks per-object writer dominance
  /// from the modified-object ids piggybacked on kLockRelease, and when
  /// one remote node produces `migrate_streak` consecutive single-writer
  /// release intervals for an object, initiates a home handoff to that
  /// writer along the current-home chain (kHomeMigrate). Barrier-driven
  /// migration (kAdaptive plans) is independent of this knob. Only
  /// meaningful under kMixed/kAdaptive (locks ship diffs). Env:
  /// LOTS_MIGRATE.
  bool lock_migration = false;
  /// Consecutive single-writer release intervals (per object, observed by
  /// the lock manager) before a lock-driven home handoff triggers.
  /// Env: LOTS_MIGRATE_K.
  uint32_t migrate_streak = 3;

  // -- Fault tolerance -----------------------------------------------------
  /// Barrier-consistent replication factor R = total copies of every
  /// object (the home plus R-1 ring-successor backups). At each barrier
  /// every home ships the barrier-cut images of its dirty homed objects
  /// to its R-1 next live ranks in ring order, so any f < R worker
  /// deaths per barrier interval are survived by re-homing each dead
  /// rank's objects to the lowest-alive ring holder and resuming from
  /// the last barrier. 0 disables replication (a death is then fatal);
  /// otherwise R >= 2. While enabled, lock-driven home migration
  /// handoffs are declined (a home moving between barriers would leave
  /// its replicas stale). Env: LOTS_REPLICATE=R.
  int replication = 0;
  /// Chaos-testing self-kills (lots_launch --kill SPEC, env LOTS_KILL).
  /// Empty = none.
  std::vector<KillPoint> kill_points;

  // -- Access fast path (ARCHITECTURE.md "fast path") ---------------------
  /// Per-app-thread Access Lookaside Buffer: a small direct-mapped cache
  /// of (ObjectId -> data pointer) for objects already validated this
  /// interval, letting repeat accesses skip the directory-shard lock and
  /// hash lookup entirely. Entries are defeated by the owning shard's
  /// generation counter (bumped on invalidation, eviction, unmap,
  /// pending-update landings and twin flushes) and by any change of the
  /// node's interval epoch (acquire/release/barrier), so a hit can never
  /// serve a copy the protocol has since withdrawn. Disable to get the
  /// pre-ALB check (ablation bench abl_fastpath measures the difference).
  /// Each app thread's buffer has 64 slots.
  bool alb = true;

  // -- Async fetch engine (src/core/fetch.hpp) ----------------------------
  /// Max outstanding kObjFetch requests in the pipelined paths
  /// (lots::touch / lots::prefetch).
  /// 1 degenerates to one blocking round trip at a time — the
  /// historical behavior (abl_prefetch's baseline).
  size_t fetch_window = 8;

  // -- Concurrency --------------------------------------------------------
  /// Application threads per node. Runtime::run(fn) calls fn(rank) on
  /// this many threads per locally hosted rank; alloc/free/barrier are
  /// collective across ALL app threads of every node (each thread of a
  /// node must execute the same alloc/free/barrier sequence), while
  /// access() and acquire/release are per-thread. Worker identity inside
  /// fn comes from lots::my_thread()/my_worker(). 1 reproduces the
  /// historical one-app-thread node.
  int threads_per_node = 1;

  // -- Cost models ---------------------------------------------------------
  NetModel net;
  DiskModel disk;

  // -- Transport selection -------------------------------------------------
  /// In-proc fabric (default) vs. one-rank-per-process loopback UDP.
  ClusterConfig cluster;

  // -- JIAJIA baseline -----------------------------------------------------
  /// Shared heap size for the page-based baseline (must hold the app's
  /// working set: the baseline cannot exceed the process space — that is
  /// the paper's point).
  size_t jia_heap_bytes = 32u << 20;

  /// Validate invariants; throws UsageError on nonsense combinations.
  void validate() const;
};

}  // namespace lots
