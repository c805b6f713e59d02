// The LOTS runtime: node lifecycle, the dynamic memory mapping mechanism
// (paper §3.1-3.3), and the scope-consistency engine with the mixed
// coherence protocol (§3.4-3.5).
//
// A Runtime owns one in-process "cluster": `nprocs` nodes, each hosting
// `Config::threads_per_node` application threads (all running the
// user's SPMD function) plus a service thread (answers remote requests —
// the paper's SIGIO role). Every node has a private process-space
// partition (SpaceLayout), DMM allocator, disk store and object
// directory shared by its app threads; all cross-node traffic flows
// through the message layer.
//
// Concurrency model (N app threads per node): there is no whole-node
// data lock and no app-thread-only state.
//  * Per-object state lives in the striped ObjectDirectory; app and
//    service threads take only the owning shard's lock for per-object
//    work, so traffic on object A never blocks an access check on B.
//  * Mapping transitions (map-in, fetch, swap-out, eviction) are
//    serialized PER OBJECT by the in-flight guard (ObjectMeta::inflight
//    + the shard's condition variable): two threads faulting the same
//    object coordinate — one maps, the other waits — while threads
//    faulting different objects map in parallel. The guard holder may
//    drop the shard lock around blocking requests; the flag keeps the
//    object's mapping state single-writer across those windows.
//  * The DMM allocator is internally synchronized (its own leaf mutex);
//    the interval epoch is an atomic counter. Eviction scans skip
//    in-flight objects and re-validate the victim under its shard lock,
//    so concurrent evictors race benignly (NodeStats::evict_races).
//  * Node-level collectives — alloc_object, free_object, barrier,
//    run_barrier — rendezvous ALL of the node's app threads
//    (CollectiveGroup): the last arriver executes the operation once,
//    with every sibling thread quiescent, and broadcasts the result.
//    This keeps the SPMD object-ID sequence deterministic and gives the
//    barrier flush a stable view of the node's twins.
//  * acquire/release stay per-thread; same-lock acquires from one node
//    serialize on a node-local per-lock mutex before entering the
//    manager protocol, so the single-slot grant bookkeeping still holds.
//  * Lock/barrier protocol state (tokens, managed locks, the master's
//    rendezvous bookkeeping) sits under the small node-level sync_mu_.
//  * No thread holds more than one shard lock, never acquires a shard
//    lock while holding sync_mu_, and never blocks on a network request
//    while holding either (the service thread routes replies).
//
// The application-facing API is Pointer<T> (pointer.hpp) plus the free
// functions in api.hpp (lots::acquire/release/barrier/my_thread/...).
// Node members below are the underlying operations.
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/tempdir.hpp"
#include "common/threading.hpp"
#include "core/coherence.hpp"
#include "core/diff.hpp"
#include "core/fetch.hpp"
#include "core/object.hpp"
#include "mem/dmm_allocator.hpp"
#include "mem/eviction.hpp"
#include "mem/space_layout.hpp"
#include "net/endpoint.hpp"
#include "net/inproc.hpp"
#include "storage/disk_store.hpp"

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

  // ---- synchronization (paper §3.4-3.6) ----
  void acquire(uint32_t lock_id);
  void release(uint32_t lock_id);
  void barrier();
  void run_barrier();  ///< event-only, no memory effect

  // ---- worker-death recovery (recovery.cpp) ----
  /// Death notice entry point: wired to the bootstrap watcher thread and
  /// the transport's peer-unreachable verdict. Fences the dead rank
  /// (transport + endpoint), moves the view (which closes the sync-entry
  /// gate until recover() runs), and fails every outstanding request
  /// and lock wait with WorkerDied. Idempotent per rank; callable from
  /// any thread.
  void on_peer_dead(int dead);
  /// Collective recovery point (lots::recover()): every app thread of
  /// every SURVIVING node must call it after catching WorkerDied. A view
  /// change: when view() moved past the last recovered view, the node
  /// makes one idempotent pass re-homing every object whose home is dead
  /// to backup_of(home) (the holder materializes its replica as the
  /// authoritative copy), breaks the dead ranks' locks, voids its replica
  /// watermarks (the next barrier re-seeds the rotated ring with full
  /// images), and rendezvouses cluster-wide (kRecoverEnter(view, seq) /
  /// kRecoverExit at the lowest-numbered ALIVE rank — master duties fail
  /// over with the dead set). Returns at once when no view change is
  /// pending. Requires Config::replication: with R total copies any
  /// f < R deaths per barrier interval recover, including rank 0 and
  /// deaths inside the two-phase barrier protocol; replication off
  /// throws SystemError.
  void recover();
  /// Liveness of `r` as this node currently sees it.
  [[nodiscard]] bool rank_alive(int r) const {
    return r >= 0 && r < 256 &&
           dead_[static_cast<size_t>(r)].load(std::memory_order_acquire) == 0;
  }
  /// The membership view: deaths this node has noticed (monotonic).
  /// check_death throws while it differs from the last recovered view;
  /// kRecoverEnter carries it, and the master releases a recovery round
  /// only when every live rank entered at the master's own view.
  [[nodiscard]] uint32_t view() const { return static_cast<uint32_t>(nprocs() - live_count()); }
  /// Number of ranks not declared dead.
  [[nodiscard]] int live_count() const {
    int n = 0;
    for (int r = 0; r < nprocs(); ++r) n += rank_alive(r) ? 1 : 0;
    return n;
  }

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
  storage::DiskStore& disk() { return *disk_; }
  mem::DmmAllocator& dmm() { return dmm_; }
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
  void force_swap_out(ObjectId id);
  /// Test hook: current mapping state. Taken under the shard lock and
  /// outside any in-flight transition, so the answer is a settled state.
  bool is_mapped(ObjectId id);
  bool is_valid(ObjectId id);
  int32_t home_of(ObjectId id);
  /// Test hook: overwrite this node's home view for `id` (shard lock +
  /// generation bump). Lets tests manufacture the stale-home window the
  /// redirect-chasing / repair machinery exists for.
  void set_home_for_test(ObjectId id, int32_t home);

 private:
  friend class Runtime;
  /// The fetch engine implements every kObjFetch flow (demand, pipelined
  /// and home side) against the node's mapper internals.
  friend class FetchEngine;

  // -- mapper internals (called with the object's shard lock held via
  // `lk` AND the object's in-flight guard owned by the calling thread;
  // `lk` is released around remote-swap requests and eviction scans,
  // never around local work). The guard makes the object's mapping
  // state single-writer, so a dropped-and-reacquired lock cannot
  // observe a vanished mapping. All of these throw only while holding
  // `lk` (the guard release needs the lock). --
  uint8_t* map_in(ObjectMeta& m, std::unique_lock<std::mutex>& lk);
  /// Pulls a remotely parked image back onto the local disk (kSwapGet +
  /// kSwapDrop). On return m.on_disk is set. Releases `lk` around the
  /// blocking request.
  void rehydrate_remote(ObjectMeta& m, std::unique_lock<std::mutex>& lk);
  void swap_out(ObjectMeta& m, std::unique_lock<std::mutex>& lk);
  void drop_mapping(ObjectMeta& m, bool keep_disk_image);
  size_t alloc_dmm_or_evict(ObjectMeta& target, std::unique_lock<std::mutex>& lk);
  [[nodiscard]] int32_t swap_buddy() const { return (rank_ + 1) % nprocs(); }
  /// Key for images parked on a peer: (owner+1) << 32 | object id.
  [[nodiscard]] static uint64_t remote_key(int32_t owner, ObjectId id) {
    return (static_cast<uint64_t>(owner) + 1) << 32 | id;
  }

  // -- lock protocol (locks.cpp) --
  struct LockToken {
    std::vector<DiffRecord> chain;  ///< scope update history (homeless)
    uint32_t epoch = 0;             ///< epoch of the last release
  };
  struct LockWait {
    bool granted = false;
    net::Message grant;
    int failed = -1;  ///< >= 0: a death notice failed this wait — acquire
                      ///< unwinds with WorkerDied instead of parking forever
  };
  struct ManagerState {
    bool busy = false;
    int32_t token_at = -1;  ///< node where the token (and chain) parks
    int32_t granted_to = -1;  ///< rank a grant is in flight to while busy
                              ///< (recovery: a grantee that dies takes the
                              ///< token with it — reclaim from here)
    std::vector<net::Message> waiters;  ///< queued kLockAcquire messages
  };
  void on_lock_acquire(net::Message&& m);   // manager side
  void on_lock_forward(net::Message&& m);   // token-holder side
  void on_lock_release(net::Message&& m);   // manager side
  void on_lock_grant(net::Message&& m);     // acquirer side
  void send_grant_locked(uint32_t lock_id, int32_t to, uint32_t acq_epoch);
  void push_release_updates_home_based(LockToken& tok, std::vector<DiffRecord>&& recs);

  // -- lock-driven adaptive home migration (locks.cpp) --
  /// Per-object single-writer streak, tracked by the lock manager from
  /// the modified-object ids piggybacked on kLockRelease. `hist` is the
  /// same two-slot recent-writer memory the barrier master keeps
  /// (MasterBarrier::writer_hist): an A/B/A alternation is ping-pong and
  /// is damped, not migrated. Guarded by sync_mu_; cleared at barriers.
  struct MigrateStreak {
    int32_t last_writer = -1;
    uint32_t streak = 0;
    std::pair<int32_t, int32_t> hist{-1, -1};
  };
  void on_home_migrate(net::Message&& m);      // chased along the home chain
  void on_home_migrate_ack(net::Message&& m);  // old-home side

  // -- barrier protocol (barrier.cpp) --
  struct BarrierPlanEntry {
    ObjectId object;
    int32_t new_home;
    uint8_t multi_writer;
  };
  struct MasterBarrier {
    uint32_t arrived = 0;
    uint32_t done = 0;
    uint32_t max_epoch = 0;
    std::vector<net::Message> enter_reqs;
    std::vector<net::Message> done_reqs;
    std::unordered_map<ObjectId, std::vector<int32_t>> writers;
    std::unordered_map<ObjectId, int32_t> old_homes;
    uint32_t run_arrived = 0;
    std::vector<net::Message> run_reqs;
    /// Ranks currently inside the two-phase barrier protocol (entered,
    /// not yet released by the exit). A rank that dies while a member
    /// left a partially applied plan behind; the recovery exit reports
    /// it (survivors count it and their redone superstep re-converges
    /// every copy the plan moved).
    std::unordered_set<int32_t> in_barrier;
    /// Recovery rendezvous: rank -> its parked kRecoverEnter(view, seq).
    /// Keyed per rank so a retried enter REPLACES the stale one instead
    /// of double-counting; the view lets the master ignore entries from
    /// a view it has moved past.
    std::unordered_map<int32_t, net::Message> recover_entries;
    /// The last released recovery view and its exit payload. A survivor
    /// whose exit reply was swept by a death notice it had already
    /// counted re-enters at the same view; it is answered at once.
    std::pair<uint32_t, std::vector<uint8_t>> released;
    /// Adaptive protocol (paper §5): last two single-writer ranks per
    /// object, persisted across barriers. When an object's lone writer
    /// alternates between two nodes (ping-pong), migrating the home
    /// "gives little benefit, since the [object] will be requested next
    /// by the process that originally owns it" — so the master pins it.
    std::unordered_map<ObjectId, std::pair<int32_t, int32_t>> writer_hist;
  };
  /// The node's barrier body, run once by the collective's last arriver
  /// with every sibling app thread quiescent.
  void barrier_leader();
  /// Chaos self-kill predicate (Config::kill_points): has this rank
  /// reached one of its kill points of kind `when`?
  [[nodiscard]] bool chaos_due(KillPoint::When when) const;
  void on_barrier_enter(net::Message&& m);  // master side
  void on_barrier_done(net::Message&& m);   // master side
  void on_run_barrier_enter(net::Message&& m);
  void on_diff_batch(net::Message&& m);
  /// Applies the master's plan (new homes, invalidations). Returns the
  /// ids it invalidated that are still mapped — the recently-hot set the
  /// barrier-exit bulk revalidation refetches (Config::barrier_revalidate).
  std::vector<ObjectId> apply_barrier_plan(const std::vector<BarrierPlanEntry>& plan,
                                           uint32_t new_epoch);

  // -- barrier-consistent replication + worker-death recovery
  //    (recovery.cpp) --
  /// A backup's copy of one object, complete as of `epoch` (the last
  /// barrier cut its home shipped). Guarded by replica_mu_.
  struct Replica {
    uint32_t epoch = 0;
    std::vector<uint8_t> data;  ///< word-aligned data image
    std::vector<uint32_t> ts;   ///< per-word timestamps
  };
  /// The lowest-alive holder of `home`'s replicas: the next LIVE rank
  /// after it in ring order, or -1 when no other rank survives. With R
  /// total copies this is within the shipped successor set for any
  /// f < R deaths, so recovery re-homes to it.
  [[nodiscard]] int backup_of(int home) const;
  /// The first `count` LIVE ranks after `home` in ring order — the
  /// backup set a home with R = count+1 copies ships to.
  [[nodiscard]] std::vector<int> ring_successors(int home, int count) const;
  /// Barrier-master / recovery-rendezvous rank: the lowest-numbered
  /// ALIVE rank. Rank 0 while it lives; fails over deterministically
  /// (every survivor shares the dead set via the coordinator broadcast).
  [[nodiscard]] int master_rank() const;
  /// Live-aware lock managership: the static hash rank (lock_id %
  /// nprocs) walked forward to the next ALIVE rank. The failover
  /// manager mints the lock's state on first touch (recovery re-mints
  /// all managed locks, so no pre-death chain survives).
  [[nodiscard]] int manager_of(uint32_t lock_id) const;
  /// Home side, run by barrier_leader between apply_barrier_plan and the
  /// done rendezvous: ships one acked kReplicaUpdate to each of this
  /// rank's R-1 live ring successors carrying, for every object this
  /// node is (now) home of that was modified this barrier (plus every
  /// homed object that successor has no watermark for, shipped as a
  /// full image), the words stamped after the last shipped
  /// cut (full image on a fresh object or a new backup). `cut` is
  /// new_epoch - 1: every current word ts is <= cut, every future one is
  /// > cut.
  void ship_replicas(const std::vector<BarrierPlanEntry>& plan, uint32_t cut);
  void on_replica_update(net::Message&& m);  // backup side (service thread)
  void on_recover_enter(net::Message&& m);   // master side (service thread)
  /// Releases the recovery rendezvous if every live rank has entered
  /// at the master's CURRENT view. Caller holds sync_mu_ via `lk`; the
  /// lock is released before replies go out. Re-run on every death
  /// notice too: a death can shrink the live set (and move the view)
  /// after the last enter arrived.
  void maybe_release_recover(std::unique_lock<std::mutex>& lk);
  /// The node's recovery body (collective last arriver, siblings parked).
  void recover_leader();
  /// The local half of a view change: fences the old view, re-homes in
  /// one idempotent directory pass every object whose home is dead to
  /// backup_of(home), voids this node's replica watermarks and re-mints
  /// its locks.
  void repair_view();
  /// kRecoverEnter(v, coll_seq_) addressed to the current master.
  [[nodiscard]] net::Message recover_enter(uint32_t v) const;
  /// For a node whose application has left Runtime::run() and so can no
  /// longer call recover(): on an unrecovered death it repairs locally
  /// and enters the round itself, so a survivor whose exit reply of the
  /// last collective was swept can finish recovery and skip that
  /// collective. Called when run() returns and on later death notices.
  void recover_departed() noexcept;
  /// Re-homes one object whose home died to `holder`: the holder
  /// materializes its replica as the authoritative copy, everyone else
  /// invalidates toward the holder while KEEPING any replica it held of
  /// the dead home's fan-out (the fallback if the holder dies before
  /// the next barrier re-seeds the ring).
  void rehome_object(ObjectMeta& m, int holder);
  /// Breaks the dead rank's locks by re-minting EVERY lock this node
  /// manages (fresh token parked at the manager, queues dropped): at the
  /// recovery point all parked tokens, queued waiters and in-flight
  /// grants belong to intervals the survivors are about to redo, and
  /// their scope chains carry only post-cut records (barriers clear
  /// them) which the redo regenerates. Caller holds sync_mu_.
  void reclaim_dead_locks();
  /// View gate: throws WorkerDied when this node's view is not `v`.
  /// Sync entries call it AFTER registering their wait: a death noticed
  /// earlier shows here as a moved view, one noticed later finds the
  /// registration in on_peer_dead's sweep.
  void check_view(uint32_t v) const;
  /// Sync-entry gate: check_view(recovered_view_) — throws while a death
  /// notice has not been recovered yet.
  void check_death() const { check_view(recovered_view_); }
  /// Barrier enter/done, run-barrier enter and recover enter: registers
  /// the request, THEN gates on view `v`, then waits for the reply.
  net::Message sync_request(net::Message m, uint32_t v);
  /// The number of this node's next barrier (`run` false) or run
  /// barrier (see coll_seq_).
  [[nodiscard]] uint64_t next_seq(bool run) const {
    return run ? coll_seq_ + 1 : ((coll_seq_ >> 32) + 1) << 32;
  }
  /// True (and the collective counted) when this barrier's or run
  /// barrier's number is at or below committed_seq_: it committed
  /// cluster-wide and only our exit reply was lost to a death sweep.
  bool committed_redo(bool run);

  // -- swap protocol (runtime.cpp; fetch protocol lives in fetch.cpp) --
  void on_swap_put(net::Message&& m);
  void on_swap_get(net::Message&& m);
  void on_swap_drop(net::Message&& m);
  void dispatch(net::Message&& m);

  /// RAII ownership of an object's in-flight guard. Construct with the
  /// shard lock (`lk`) held and ObjectMeta::inflight freshly set; the
  /// destructor clears the flag under the shard lock — re-acquiring it
  /// first when an exception unwinds through one of the windows where
  /// a mapper helper had dropped `lk` around a blocking request (e.g. a
  /// request timeout): the flag must never be cleared unsynchronized,
  /// and the notify must not be missable by a parked sibling.
  struct InflightGuard {
    ObjectDirectory& dir;
    ObjectMeta& m;
    std::unique_lock<std::mutex>& lk;
    ~InflightGuard() {
      if (!lk.owns_lock()) lk.lock();
      m.inflight = false;
      dir.shard_cv(m.id).notify_all();
    }
  };

  /// The node-local intra-node mutex for DSM lock `lock_id` (created on
  /// first use, under sync_mu_). Serializes same-lock acquires from this
  /// node's app threads ahead of the manager protocol.
  std::mutex& local_lock_mutex(uint32_t lock_id);

  /// Statement pins, the deterministic successor of the paper's
  /// recency-window pinning for the N-app-thread node: every access
  /// check records its object in the calling thread's ring, and the
  /// eviction scan refuses any object present in ANY thread's ring. A
  /// sibling's outstanding statement reference (pointer obtained from
  /// access(), store not yet retired) therefore can never be unmapped
  /// under it, no matter how far the other threads advance the pin
  /// clock — as long as one statement dereferences at most
  /// kStmtPinSlots distinct shared objects (the same bound the paper's
  /// pin window assumes). Slots are atomics because evictors read other
  /// threads' rings; the cursor is owner-thread-only.
  static constexpr size_t kStmtPinSlots = 8;
  struct StmtPins {
    std::array<std::atomic<uint32_t>, kStmtPinSlots> ids{};
    uint32_t cursor = 0;
  };
  void stmt_pin(ObjectId id);
  [[nodiscard]] bool stmt_pinned(ObjectId id) const;

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
  /// Hits still stamp the caller's stmt_pin ring FIRST; the seq_cst
  /// fence between the pin store and the generation load pairs with the
  /// evictor's bump-then-recheck (alloc_dmm_or_evict), so the eviction
  /// hard-pin guarantee survives lock-free hits (store-buffer/Dekker
  /// argument, documented at the recheck).
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
  mem::SpaceLayout space_;
  mem::DmmAllocator dmm_;  ///< internally synchronized (leaf mutex)
  std::unique_ptr<storage::DiskStore> disk_;  ///< internally synchronized
  ObjectDirectory dir_;    ///< striped: per-shard locks
  CoherenceEngine coherence_;
  FetchEngine fetch_;      ///< all kObjFetch flows (demand/pipelined/home)

  /// Rendezvous of this node's app threads for the node-level
  /// collectives (alloc/free/barrier/run_barrier).
  CollectiveGroup group_;

  /// One statement-pin ring per app thread (see stmt_pin above).
  std::vector<StmtPins> stmt_pins_;

  /// One ALB per app thread (see AlbEntry above); empty when disabled.
  std::vector<Alb> albs_;
  bool alb_on_ = false;
  uint32_t alb_mask_ = 0;   ///< alb_size - 1 (power of two)
  std::mutex alb_fold_mu_;  ///< serializes fold_alb_stats (leaf mutex)

  /// Guards the synchronization-protocol state below (lock tokens,
  /// manager queues, barrier master bookkeeping, the local per-lock
  /// mutex table). Never held while taking a shard lock or blocking on
  /// a request.
  std::mutex sync_mu_;

  /// Interval clock. Atomic because any app thread may advance it at
  /// its own acquire/release; the barrier's store runs with all app
  /// threads quiescent in the collective.
  std::atomic<uint32_t> epoch_{1};
  uint32_t last_barrier_epoch_ = 0;  ///< barrier-leader only
  /// Barrier generation: bumped once per barrier (apply_barrier_plan).
  /// kHomeMigrate/kHomeMigrateAck messages are stamped with the sender's
  /// generation and dropped on mismatch, so a lock-driven handoff can
  /// never complete across a barrier (whose plan re-decides every
  /// modified object's home from its own global view).
  std::atomic<uint32_t> barrier_gen_{0};

  std::unordered_map<uint32_t, LockToken> tokens_;
  std::unordered_map<uint32_t, ManagerState> managed_locks_;
  std::unordered_map<uint32_t, LockWait> lock_waits_;
  std::condition_variable lock_cv_;
  /// Intra-node serialization of same-lock acquires (see
  /// local_lock_mutex). unique_ptr: mutexes must not move on rehash.
  std::unordered_map<uint32_t, std::unique_ptr<std::mutex>> local_lock_mu_;
  /// Lock-manager dominance tracking for lock-driven migration (guarded
  /// by sync_mu_, populated only when Config::lock_migration).
  std::unordered_map<ObjectId, MigrateStreak> migrate_streaks_;
  MasterBarrier master_;  ///< used on master_rank() only (rank 0 until it dies)
  /// Recovery rounds completed since node birth, for chaos_due ONLY
  /// (its barrier count is coll_seq_'s high half). Deliberately separate
  /// from the stats: harnesses call reset_stats() mid-run (e.g. after a
  /// warm-up/open phase), and a kill countdown that rewound with the
  /// stats would fire at the wrong point. Written only inside the
  /// recovery collective's leader body, so no atomicity needed.
  uint32_t chaos_recoveries_ = 0;

  // -- views and the collective sequence (recovery) ------------------------
  /// The last view this node finished recovering (recover_leader sets
  /// it to the view it entered with). Written only by the recovery
  /// leader with every sibling app thread parked in the collective.
  uint32_t recovered_view_ = 0;
  /// The number of the last barrier or run barrier this node saw commit
  /// (exit reply in hand, or proven by a recovery echo): coherence
  /// barriers in the high half, run barriers since the last of them in
  /// the low half, so SPMD order numbers both kinds in one increasing
  /// sequence. The low half restarts at every barrier and at recovery
  /// exit, because the application redoes everything since its last
  /// barrier(). Collective-leader / recovery-leader only.
  uint64_t coll_seq_ = 0;
  /// The last recovery exit's echo: the highest coll_seq_ any survivor
  /// entered with. A death sweep can eat the exit reply of a collective
  /// that had already released; commit needs every live rank's vote, so
  /// an echo above our number proves our interrupted collective
  /// committed, and committed_redo() consumes its redo.
  uint64_t committed_seq_ = 0;

  /// Ranks this node has seen a death notice for (watcher broadcast or
  /// transport verdict). Atomic bytes: read lock-free on hot paths.
  std::array<std::atomic<uint8_t>, 256> dead_{};
  /// Replica store (backup side): objects this node backs up for the
  /// home(s) whose ring successor it is. replica_mu_ is a leaf mutex —
  /// taken inside shard locks, never the other way around.
  std::mutex replica_mu_;
  std::unordered_map<ObjectId, Replica> replicas_;
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
  std::atomic<bool> in_run_{false};  ///< see in_run(); Node::recover_departed
  std::unique_ptr<TempDir> scratch_;  ///< when cfg.disk_dir is empty
  std::unique_ptr<net::InProcFabric> fabric_;         ///< kInProc only
  std::unique_ptr<cluster::WorkerBootstrap> boot_;    ///< kUdp only
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace lots::core
