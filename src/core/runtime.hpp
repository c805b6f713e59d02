// The LOTS runtime: node lifecycle and the access check (paper §3.1,
// §3.3). Node hosts six engines: Mapper (mapper.hpp: DMM area, disk
// store, every mapping transition), CoherenceEngine (coherence.hpp:
// twins, flushes, diff application), FetchEngine (fetch.hpp: object
// fetches), SyncEngine (sync.hpp: locks, barriers, recovery rendezvous),
// RecoveryEngine (recovery.hpp: replication, worker-death recovery) and
// HomeEngine (home.hpp: home placement and every home transition).
//
// A Runtime owns one in-process "cluster" (or, under kUdp, one rank of
// a multi-process one): `nprocs` nodes, each hosting
// `Config::threads_per_node` application threads (all running the
// user's SPMD function) plus a service thread that answers remote
// requests (the paper's SIGIO role). Every node has a private mapper and
// object directory shared by its app threads.
//
// Concurrency model (N app threads per node, ARCHITECTURE.md):
//  * Per-object state lives in the striped ObjectDirectory; app and
//    service threads take only the owning shard's lock for per-object
//    work. Mapping transitions (map-in, fetch, swap-out, eviction) are
//    serialized PER OBJECT by the in-flight guard (ObjectMeta::inflight
//    + the shard's condition variable); the guard holder may drop the
//    shard lock around blocking requests.
//  * The DMM allocator is internally synchronized; the interval epoch
//    is an atomic counter.
//  * Node-level collectives — alloc_object, free_object, barrier,
//    run_barrier, recover — rendezvous ALL of the node's app threads
//    (CollectiveGroup): the last arriver executes the operation once,
//    with every sibling thread quiescent.
//  * Lock/barrier protocol state sits under SyncEngine's own mutex,
//    never held while a shard lock is taken (sync.hpp).
//  * The backup store sits under RecoveryEngine's leaf mutex, taken
//    inside shard locks, never the other way around (recovery.hpp).
//  * No thread holds more than one shard lock or blocks on a network
//    request while holding one (the service thread routes replies).
//
// The application-facing API is Pointer<T> (pointer.hpp) plus the free
// functions in api.hpp (lots::acquire/release/barrier/my_thread/...).
// Node members below are the underlying operations.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/tempdir.hpp"
#include "common/threading.hpp"
#include "core/coherence.hpp"
#include "core/diff.hpp"
#include "core/fetch.hpp"
#include "core/home.hpp"
#include "core/mapper.hpp"
#include "core/object.hpp"
#include "core/recovery.hpp"
#include "core/sync.hpp"
#include "net/endpoint.hpp"
#include "net/inproc.hpp"

namespace lots::cluster {
class WorkerBootstrap;
}

namespace lots::core {

class Runtime;

/// One DSM node. Application threads use it through Pointer<T>/api.hpp;
/// its service thread runs the protocol handlers.
class Node {
 public:
  Node(Runtime& rt, int rank, std::unique_ptr<net::Transport> transport);
  ~Node();

  // ---- object lifecycle (paper §3.2) ----
  /// Declares + allocates the next shared object (collective: all nodes
  /// execute the same sequence, and every app thread of this node must
  /// call it — the threads rendezvous and share one ObjectId). Physical
  /// mapping is lazy unless the runtime is in LOTS-x mode.
  ObjectId alloc_object(size_t bytes);
  /// Collective free (across nodes AND across this node's app threads).
  void free_object(ObjectId id);

  // ---- the access check (paper §3.3) ----
  /// Resolves an object ID to its mapped data address, bringing the
  /// object in from disk and/or the network as needed, creating the twin
  /// on first access of an interval, and stamping the pin clock. Takes
  /// only the object's shard lock: concurrent work on other shards
  /// proceeds in parallel, and a sibling app thread faulting the SAME
  /// object parks on the in-flight guard until the mapping settles.
  void* access(ObjectId id);
  /// Object size as declared.
  size_t object_size(ObjectId id);

  /// Asynchronous warm-up of many objects (lots::touch / lots::prefetch):
  /// brings every listed object that is unmapped or invalid to
  /// mapped+valid with up to Config::fetch_window fetch round trips in
  /// flight at once (FetchEngine::fetch_many). Best effort and purely a
  /// performance hint — a skipped or failed warm-up simply leaves the
  /// object to the next access check's demand fault. Returns the number
  /// of fetch requests issued.
  size_t touch(std::span<const ObjectId> ids);

  // ---- synchronization (paper §3.4-3.6; protocol in SyncEngine) ----
  void acquire(uint32_t lock_id) { sync_.acquire(lock_id); }
  void release(uint32_t lock_id) { sync_.release(lock_id); }
  void barrier();
  /// Event-only, no memory effect.
  void run_barrier() { group_.collective([&] { sync_.run_barrier(); }); }

  // ---- worker-death recovery (RecoveryEngine, recovery.hpp) ----
  void on_peer_dead(int dead) { recovery_.on_peer_dead(dead); }
  /// Collective recovery point (lots::recover(); RecoveryEngine::recover_leader).
  void recover() {
    group_.collective([&] { recovery_.recover_leader(); });
  }
  /// Liveness of `r` as this node currently sees it (the endpoint's table).
  [[nodiscard]] bool rank_alive(int r) const { return r >= 0 && r < 256 && !ep_.rank_dead(r); }
  [[nodiscard]] uint32_t view() const { return recovery_.view(); }

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int nprocs() const { return ep_.nprocs(); }
  [[nodiscard]] const Config& config() const;
  /// Node counters. Reconciles the per-thread ALB hit counters into
  /// NodeStats first, so alb_hits/access_checks are current as of the
  /// call (hits are counted thread-locally to keep the lookaside hit
  /// path free of lock-prefixed read-modify-writes).
  NodeStats& stats() {
    fold_alb_stats();
    return stats_;
  }
  [[nodiscard]] uint32_t epoch() const { return epoch_.load(std::memory_order_relaxed); }
  [[nodiscard]] int app_threads() const { return group_.parties(); }
  /// Test hook: one app thread, so ALB hits need no CPU fence (Node::access).
  [[nodiscard]] bool one_app_thread() const { return one_app_thread_; }
  storage::DiskStore& disk() { return mapper_.disk(); }
  mem::DmmAllocator& dmm() { return mapper_.dmm(); }
  ObjectDirectory& directory() { return dir_; }

  /// Test/bench hook: drop the object's DMM mapping (swap-out) so the
  /// next access exercises the disk path. Keeps the MAPPING STATE safe
  /// to race against sibling app threads (takes the shard lock, waits
  /// out an in-flight mapping and holds the in-flight guard itself for
  /// the swap-out) but — unlike real eviction, which rechecks the
  /// statement-pin rings after its generation bump — it does NOT honor
  /// statement pins: a sibling still dereferencing a pointer it got
  /// from access() (locked or ALB path) races the unmap. Callers must
  /// not aim it at an object a concurrent sibling is using, exactly as
  /// the mt_access chaos schedule does.
  void force_swap_out(ObjectId id) { mapper_.force_swap_out(id); }
  /// Test hook: current mapping state. Taken under the shard lock and
  /// outside any in-flight transition, so the answer is a settled state.
  bool is_mapped(ObjectId id);
  bool is_valid(ObjectId id);
  /// This node's home view for `id`; -1 when it has no such object.
  int32_t home_of(ObjectId id);
  /// Test hook: move this node's home view for `id` (HomeEngine::
  /// move_home under the shard lock). Lets tests manufacture the
  /// stale-home window the redirect-chasing / repair machinery exists for.
  void set_home_for_test(ObjectId id, int32_t home);
  /// Test hooks: replicas this node holds as a backup; ids on the
  /// interval twin list (CoherenceEngine::ensure_twin).
  size_t replica_count() { return recovery_.replica_count(); }
  size_t interval_twins() { return coherence_.interval_twins(); }

 private:
  friend class Runtime;
  /// The engines reach the node's endpoint, directory, stats and epoch.
  friend class Mapper;
  friend class FetchEngine;
  friend class SyncEngine;
  friend class RecoveryEngine;
  friend class HomeEngine;

  // -- barrier (barrier.cpp) --
  /// The node's barrier body, run once by the collective's last arriver
  /// with every sibling app thread quiescent.
  void barrier_leader();
  /// Chaos self-kill predicate (Config::kill_points): has this rank
  /// reached one of its kill points of kind `when`?
  [[nodiscard]] bool chaos_due(KillPoint::When when) const;
  void on_diff_batch(net::Message&& m);

  void dispatch(net::Message&& m);

  /// Access Lookaside Buffer (Config::alb): one small direct-mapped,
  /// thread-PRIVATE cache per app thread mapping ObjectId to the mapped
  /// data pointer for objects this thread already validated in the
  /// current interval. A hit skips the shard lock, the hash lookup and
  /// the twin bookkeeping entirely (the populating locked access already
  /// OR'd this thread's twin_writers bit; the bit only clears with a
  /// flush, which defeats the entry). Entries are defeated by
  ///  * the owning shard's generation counter (bumped under the shard
  ///    lock on unmap/swap-out, invalidation, pending landings, twin
  ///    flushes and by an eviction about to unmap — see
  ///    ObjectDirectory::generation_cell), and
  ///  * any interval-epoch change (acquire/release/barrier): entries
  ///    stamp the node epoch at creation, which is a whole-ALB flush at
  ///    every synchronization boundary without touching N threads.
  /// Hits still stamp the caller's statement-pin ring (Mapper::stmt_pin)
  /// FIRST; the fence between the pin store and the generation load
  /// pairs with the evictor's bump-then-recheck, so the eviction
  /// hard-pin guarantee survives lock-free hits (store-buffer/Dekker
  /// argument, documented at Node::access).
  struct AlbEntry {
    ObjectId id = kNullObject;
    uint8_t* data = nullptr;
    /// Meta address (stable: the directory erases only in the collective
    /// free path) — hits refresh the pin/LRU stamp through it so the
    /// recency clock keeps ticking without the shard lock.
    ObjectMeta* meta = nullptr;
    const std::atomic<uint64_t>* gen = nullptr;  ///< owning shard's counter
    uint64_t gen_val = 0;                        ///< snapshot at insert
    uint32_t epoch = 0;                          ///< node epoch at insert
  };
  struct Alb {
    std::vector<AlbEntry> slots;
    /// Hit counter for this thread. Single-writer: the owning thread
    /// bumps it with a plain load+store (no lock-prefixed RMW on the
    /// hit path); fold_alb_stats() reconciles it into NodeStats
    /// (alb_hits AND access_checks, which stays the TOTAL check count).
    std::atomic<uint64_t> hits{0};
    uint64_t folded = 0;  ///< portion already in NodeStats (alb_fold_mu_)
  };
  /// Publishes the calling thread's entry for `m` (caller holds the
  /// object's shard lock and just validated the full fast-path state).
  void alb_insert(ObjectMeta& m, uint8_t* data);
  /// Folds every thread's ALB hit counter into NodeStats (idempotent,
  /// incremental; serialized on alb_fold_mu_).
  void fold_alb_stats();

  Runtime& rt_;
  int rank_;
  NodeStats stats_;
  net::Endpoint ep_;
  ObjectDirectory dir_;    ///< striped: per-shard locks
  Mapper mapper_;          ///< DMM area, disk store, mapping transitions
  CoherenceEngine coherence_;
  FetchEngine fetch_;      ///< all kObjFetch flows (demand/pipelined/home)
  SyncEngine sync_;        ///< lock, barrier and recovery-rendezvous protocol
  RecoveryEngine recovery_;  ///< replicas, death notices and view repair
  HomeEngine home_;        ///< every home transition, the handoff fence

  /// Rendezvous of this node's app threads for the node-level
  /// collectives (alloc/free/barrier/run_barrier/recover).
  CollectiveGroup group_;

  /// One ALB per app thread (see AlbEntry above); empty when disabled.
  std::vector<Alb> albs_;
  bool alb_on_ = false;
  const bool one_app_thread_;  ///< read on every hit: by alb_on_, away from written state
  static constexpr uint32_t kAlbSlots = 64;  ///< per thread, power of two
  std::mutex alb_fold_mu_;  ///< serializes fold_alb_stats (leaf mutex)

  /// Interval clock. Atomic because any app thread may advance it at
  /// its own acquire/release; the barrier's store runs with all app
  /// threads quiescent in the collective.
  std::atomic<uint32_t> epoch_{1};
};

/// The cluster. Construct with a Config, then run() SPMD functions.
///
/// Transport seam (Config::cluster.fabric): with the default kInProc
/// fabric this process hosts every rank on the modeled in-process
/// interconnect, exactly as before. With kUdp the constructor joins the
/// lots_launch rendezvous (src/cluster/bootstrap.hpp), binds an
/// ephemeral loopback UDP socket, learns its rank and every peer's
/// endpoint from the coordinator, and hosts that ONE rank; run(fn) then
/// executes fn(rank) for the single local rank on the calling thread.
/// The destructor holds the transport open until every worker in the
/// cluster reported done (the bootstrap's shutdown barrier), so a peer's
/// late reads never race this node's teardown.
class Runtime {
 public:
  explicit Runtime(Config cfg);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Runs fn(rank) on Config::threads_per_node app threads for every
  /// locally hosted rank and joins: nprocs × threads_per_node threads
  /// in-proc, threads_per_node threads for the single bootstrap-assigned
  /// rank under kUdp (inline on the calling thread when that is 1, as
  /// before). Threads of one rank share the node — use
  /// lots::my_thread()/my_worker() to split work below the rank level.
  /// Callable repeatedly; objects persist across calls.
  void run(const std::function<void(int)>& fn);

  /// The node bound to the calling application thread.
  static Node& self();
  /// True when called from inside run() on an app thread.
  static bool in_node();
  /// Index of the calling app thread within its node,
  /// [0, threads_per_node). 0 outside run().
  static int thread_index();

  [[nodiscard]] const Config& config() const { return cfg_; }
  /// True while the application runs inside run() (multi-process only).
  [[nodiscard]] bool in_run() const { return in_run_.load(); }
  /// True when this process hosts every rank (the in-proc fabric).
  [[nodiscard]] bool single_process() const {
    return cfg_.cluster.fabric == FabricKind::kInProc;
  }
  /// The nodes hosted by this process, ascending rank order.
  [[nodiscard]] std::vector<Node*> local_nodes() const;
  /// The locally hosted node for `rank`, or nullptr if that rank lives
  /// in another process.
  [[nodiscard]] Node* find_node(int rank) const;
  /// Locally hosted node for `rank`; throws if the rank is remote.
  Node& node(int rank);
  [[nodiscard]] int nprocs() const { return cfg_.nprocs; }

  /// Sum of the locally hosted nodes' counters into `out` (benchmark
  /// reporting; under kUdp that is this process's single rank).
  void aggregate_stats(NodeStats& out) const;
  /// Max over local nodes of modeled (net + disk) microseconds — the
  /// modeled critical-path overlay reported by the benches.
  uint64_t max_modeled_wait_us() const;
  void reset_stats();

 private:
  Config cfg_;
  std::atomic<bool> in_run_{false};  ///< see in_run(); RecoveryEngine::recover_departed
  std::unique_ptr<TempDir> scratch_;  ///< when cfg.disk_dir is empty
  std::unique_ptr<net::InProcFabric> fabric_;         ///< kInProc only
  std::unique_ptr<cluster::WorkerBootstrap> boot_;    ///< kUdp only
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace lots::core
