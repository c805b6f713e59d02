// Shared-object identity and per-node control information (paper §3.2).
//
// Declaring a shared object generates "a unique, known-to-all-machines
// object ID ... the key to access all internal data structures for the
// object". LOTS applications are SPMD: every node executes the same
// declaration sequence, so a per-node counter yields identical IDs
// everywhere without communication.
//
// ObjectMeta is the per-node control record ("only a trace of control
// information for each object is needed to be resident in the virtual
// address space"): share/mapping state, current home, DMM offset while
// mapped, pinning timestamp, and where the barrier's changed-word bitmap
// keeps the words this node wrote since the last barrier.
//
// The directory is *striped*: object metas live in N independently
// lockable shards keyed by ObjectId, so the paper's per-object
// operations (the §3.3 access check, §3.4-3.5 protocol handlers) on
// disjoint objects never serialize against each other. The node's app
// threads and its service thread contend only when they touch the same
// shard; threads faulting the SAME object coordinate through the
// per-object in-flight guard (ObjectMeta::inflight + Shard::cv).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace lots::core {

using ObjectId = uint32_t;
constexpr ObjectId kNullObject = 0;

/// Validity of this node's copy (paper: "if the local copy of the object
/// is not clean, a valid copy will be brought in from a remote machine").
enum class ShareState : uint8_t {
  kValid = 0,  ///< copy is complete as of `valid_epoch`
  kInvalid,    ///< write-invalidate hit it; must refetch from home
};

/// Whether the object data currently occupies the DMM area (paper: "if
/// the object data is not mapped to the local virtual memory, it will be
/// brought in from the local disk").
enum class MapState : uint8_t {
  kUnmapped = 0,
  kMapped,
};

/// One interval's worth of local modifications to one object: the word
/// indices changed and their values at flush time, stamped with the
/// flushing epoch. These records travel inside lock grants (homeless
/// write-update) and to the home at barriers (migrating-home
/// write-invalidate); per-word timestamps let the receiver discard
/// stale words (§3.5).
struct DiffRecord {
  ObjectId object = kNullObject;
  uint32_t epoch = 0;  ///< flush epoch; per-word stamp when word_ts empty
  std::vector<uint32_t> word_idx;
  std::vector<uint32_t> word_val;
  /// Optional per-word stamps (paper §3.5: "associating the lock and
  /// timestamp information to each FIELD of the shared object").
  /// Required whenever a record merges words flushed at different
  /// epochs: a single object-level stamp would let an old value of one
  /// word ride a newer word's epoch and bury genuinely newer writes.
  std::vector<uint32_t> word_ts;
  /// ≥ 0 marks a home-commit NOTICE (lock-driven adaptive migration):
  /// the releaser was the object's home, committed its writes locally,
  /// and ships this empty record down the token chain instead of data.
  /// `hint` names the committing home so acquirers with a stale home
  /// view repair it before fetching; a word-ts ≤ `epoch` on the chain is
  /// provably already in the home copy. Custom-encoded on the lock-grant
  /// wire (flags byte); never carried by encode_record.
  int32_t home_hint = -1;

  [[nodiscard]] size_t words() const { return word_idx.size(); }
  [[nodiscard]] uint32_t ts_of(size_t i) const {
    return word_ts.empty() ? epoch : word_ts[i];
  }
};

/// One entry of a barrier plan: a modified object and its new home.
struct BarrierPlanEntry {
  ObjectId object;
  int32_t new_home;
};

struct ObjectMeta {
  ObjectId id = kNullObject;
  uint32_t size_bytes = 0;  ///< exact object size (word-aligned internally)
  int32_t home = -1;        ///< written only by HomeEngine::move_home

  ShareState share = ShareState::kValid;
  MapState map = MapState::kUnmapped;
  size_t dmm_offset = 0;    ///< valid while mapped
  bool on_disk = false;     ///< local disk image (core/mapper.cpp); mapped: a clean copy
  bool on_remote = false;   ///< image parked on a peer's disk (§5 remote swap)
  bool twinned = false;     ///< twin holds the pre-interval image
  /// On CoherenceEngine's interval twin list (or in a flush's drained
  /// copy of it) until a flush takes the id off: a twin made again after
  /// an eviction flush is not listed twice. Guarded by the shard lock.
  bool twin_listed = false;
  /// Its marks include words an eviction flush stamped at the last
  /// plan's epoch + 1 (CoherenceEngine::flush_evicted), which the barrier
  /// flush raises to its own stamp. Guarded by the shard lock.
  bool evict_marked = false;
  /// App threads that ran an access check on this object since it was
  /// twinned (one bit per thread, bit 63 saturates for threads ≥ 63).
  /// A release flushes exactly the twins its thread touched, so a
  /// lock-guarded write lands on that lock's token chain even when a
  /// sibling thread created the twin. Guarded by the shard lock.
  uint64_t twin_writers = 0;
  /// In-flight mapper guard (N-app-thread model): set — under the shard
  /// lock — by the one thread currently running this object's slow path
  /// (map-in, fetch, swap-out). Peers that need the object wait on the
  /// shard's condition variable instead of double-mapping it; eviction
  /// scans skip in-flight objects. A guard holder may drop and retake
  /// the shard lock around blocking requests: the flag is what keeps the
  /// mapping state coherent across those windows.
  bool inflight = false;
  /// Copy was warmed by a pipelined lots::touch / lots::prefetch window
  /// and no access has used it yet. The next
  /// access counts NodeStats::prefetch_hits and clears it; a barrier
  /// invalidation that finds it still set counts prefetch_wasted.
  /// Guarded by the shard lock.
  bool prefetched = false;
  /// Home-side mark of a lock-driven migration in progress: set when the
  /// home forwards a kHomeMigrate proposal to the dominant writer,
  /// cleared by HomeEngine::move_home (the ack, the writer's home-commit
  /// notice or the next barrier plan). While set the home declines
  /// further proposals for the object. Guarded by the shard lock.
  bool migrating = false;
  /// Home-side replication bookkeeping (barrier-consistent replication,
  /// Config::replication = R total copies): the word-ts cut of the last
  /// kReplicaUpdate this home shipped; only words newer than it ride the
  /// next diff ship. One cut covers every successor because the ring
  /// holds still between deaths: a ship made while a death is still
  /// unrecovered treats every cut as void, and the recovery voids them.
  /// 0 = no replica (a fresh object, a just-adopted home, a voided cut):
  /// the next barrier ships a FULL image. Cuts are >= 2, so 0 is free.
  /// Guarded by the shard lock.
  uint32_t replica_cut = 0;
  /// Pinning / LRU recency (paper §3.3). Atomic because an ALB hit
  /// refreshes it WITHOUT the shard lock (the pin clock must keep
  /// ticking on cached accesses or the eviction recency window sees a
  /// frozen world); all other readers/writers hold the lock. Relaxed
  /// everywhere — it is a heuristic clock, not a synchronization edge.
  std::atomic<uint64_t> access_stamp{0};
  uint32_t valid_epoch = 0;   ///< copy is complete up to this sync epoch

  /// Where the barrier's changed-word bitmap keeps this object's bits:
  /// one per word this node wrote since the last applied plan, set by
  /// every flush, release or barrier (CoherenceEngine::flush_twins). The
  /// bits are the only record of those writes; the words themselves stay
  /// in the copy until the barrier ships them. kNoMarks while it has
  /// none.
  static constexpr size_t kNoMarks = SIZE_MAX;
  size_t marks = kNoMarks;
  /// Updates received while unmapped; applied on the next map-in.
  std::vector<DiffRecord> pending;

  [[nodiscard]] uint32_t words() const { return (size_bytes + 3) / 4; }
};

/// Word-aligned byte count of an object's data/timestamp/twin images.
inline size_t word_bytes(const ObjectMeta& m) { return static_cast<size_t>(m.words()) * 4; }

/// Bit for app thread `t` in ObjectMeta::twin_writers (saturating:
/// threads ≥ 63 share the top bit, which at worst over-flushes).
inline uint64_t twin_writer_bit(int t) { return 1ull << (t < 63 ? t : 63); }

/// Per-node table of all declared objects, striped into independently
/// lockable shards. IDs start at 1 (0 = null).
///
/// Locking contract:
///  * `get`/`find` require the caller to hold the owning shard's lock
///    (via `lock_shard`) whenever another thread may touch the table;
///    purely single-threaded code (unit tests) may call them bare.
///  * `create`/`remove`/`for_each`/`count` take the shard locks
///    internally and must be called with NO shard lock held.
///  * At most one shard lock may be held at a time, and no thread may
///    block on a network request while holding one (the service thread
///    routes replies and needs the shards to drain its handler queue).
class ObjectDirectory {
 public:
  static constexpr size_t kDefaultShards = 16;

  explicit ObjectDirectory(size_t nshards = kDefaultShards) {
    LOTS_CHECK(nshards >= 1, "ObjectDirectory: need at least one shard");
    shards_.reserve(nshards);
    for (size_t s = 0; s < nshards; ++s) shards_.push_back(std::make_unique<Shard>());
  }

  /// Counter sink for shard-lock acquisitions (optional; benches use it
  /// to compare striped vs single-lock contention).
  void set_stats(NodeStats* stats) { stats_ = stats; }

  [[nodiscard]] size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] size_t shard_of(ObjectId id) const {
    return static_cast<size_t>(id) % shards_.size();
  }

  /// Locks the shard owning `id`. The returned lock may be released and
  /// re-acquired around blocking requests (the meta reference stays
  /// valid: erases happen only in the app-thread collective free path).
  [[nodiscard]] std::unique_lock<std::mutex> lock_shard(ObjectId id) {
    return lock_index(shard_of(id));
  }

  /// Monotonic per-shard invalidation generation backing the per-thread
  /// access lookaside buffers (Node::access fast path): bumped — always
  /// under the shard's lock — whenever an object of the shard leaves the
  /// fast-path-eligible state (unmap/swap-out, share invalidation, a
  /// pending update landing, a twin flush, an eviction about to unmap).
  /// ALB entries snapshot the cell and revalidate with one load; a
  /// mismatch sends the access back through the locked path. The cell
  /// pointer is stable for the directory's lifetime, so entries may
  /// cache it and skip the shard_of() division on the hit path.
  [[nodiscard]] const std::atomic<uint64_t>* generation_cell(ObjectId id) const {
    return &shards_[shard_of(id)]->gen;
  }
  void bump_generation(ObjectId id) {
    shards_[shard_of(id)]->gen.fetch_add(1, std::memory_order_release);
  }

  /// The shard's condition variable, used with the shard lock to wait
  /// out a peer thread's in-flight mapping transition on an object of
  /// this shard (ObjectMeta::inflight). Notified whenever a guard
  /// holder clears the flag.
  [[nodiscard]] std::condition_variable& shard_cv(ObjectId id) {
    return shards_[shard_of(id)]->cv;
  }

  /// Registers the next object in program order (SPMD-deterministic).
  /// `home` may be computed from `peek_next_id()`; the assignment is
  /// published under the shard lock.
  ObjectMeta& create(uint32_t size_bytes, int32_t home) {
    const ObjectId id = next_id_.fetch_add(1, std::memory_order_relaxed);
    auto lk = lock_shard(id);
    ObjectMeta& m = shards_[shard_of(id)]->objects[id];
    m.id = id;
    m.size_bytes = size_bytes;
    m.home = home;
    return m;
  }

  /// Lookup; caller holds the owning shard's lock (see class comment).
  [[nodiscard]] ObjectMeta& get(ObjectId id) {
    Shard& sh = *shards_[shard_of(id)];
    auto it = sh.objects.find(id);
    LOTS_CHECK(it != sh.objects.end(), "unknown object id " + std::to_string(id));
    return it->second;
  }
  [[nodiscard]] ObjectMeta* find(ObjectId id) {
    Shard& sh = *shards_[shard_of(id)];
    auto it = sh.objects.find(id);
    return it == sh.objects.end() ? nullptr : &it->second;
  }

  /// Erases `id`. Takes the shard lock internally: call WITHOUT it held.
  void remove(ObjectId id) {
    auto lk = lock_shard(id);
    shards_[shard_of(id)]->objects.erase(id);
  }

  /// Erases `id` while the caller already holds the owning shard's lock
  /// — lets teardown paths stay atomic from last-state check to erase.
  void remove_locked(ObjectId id) { shards_[shard_of(id)]->objects.erase(id); }

  [[nodiscard]] size_t count() const {
    size_t n = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
      auto lk = const_cast<ObjectDirectory*>(this)->lock_index(s);
      n += shards_[s]->objects.size();
    }
    return n;
  }
  [[nodiscard]] ObjectId peek_next_id() const {
    return next_id_.load(std::memory_order_relaxed);
  }

  // ---- LRU / pin clock (paper §3.3 pinning) ------------------------------
  /// Next access stamp; callers store it into meta.access_stamp under the
  /// shard lock.
  uint64_t stamp() { return pin_clock_.fetch_add(1, std::memory_order_relaxed) + 1; }
  [[nodiscard]] uint64_t newest_stamp() const {
    return pin_clock_.load(std::memory_order_relaxed);
  }

  /// Visits every meta, one shard at a time, holding that shard's lock
  /// for the duration of its visits — barrier summaries and eviction
  /// scans use this instead of a global lock. `fn` must not call back
  /// into locking directory methods.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (size_t s = 0; s < shards_.size(); ++s) {
      auto lk = lock_index(s);
      for (auto& [id, meta] : shards_[s]->objects) fn(meta);
    }
  }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::condition_variable cv;  ///< in-flight mapper hand-off (see shard_cv)
    std::atomic<uint64_t> gen{0};  ///< ALB invalidation epoch (see generation_cell)
    std::unordered_map<ObjectId, ObjectMeta> objects;
  };

  /// Every stripe-lock acquisition in the directory funnels through
  /// here, so shard_lock_acquires counts scans (for_each/count) and
  /// table maintenance as well as lock_shard callers.
  [[nodiscard]] std::unique_lock<std::mutex> lock_index(size_t s) {
    if (stats_) stats_->shard_lock_acquires.fetch_add(1, std::memory_order_relaxed);
    return std::unique_lock(shards_[s]->mu);
  }

  std::atomic<ObjectId> next_id_{1};
  std::atomic<uint64_t> pin_clock_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
  NodeStats* stats_ = nullptr;
};

/// RAII ownership of an object's in-flight guard. Construct with the
/// shard lock (`lk`) held and ObjectMeta::inflight freshly set; the
/// destructor clears the flag under the shard lock — re-acquiring it
/// first when an exception unwinds through one of the windows where a
/// mapper call had dropped `lk` around a blocking request (e.g. a
/// request timeout): the flag must never be cleared unsynchronized, and
/// the notify must not be missable by a parked sibling.
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

}  // namespace lots::core
