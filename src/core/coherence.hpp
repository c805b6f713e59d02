// The coherence engine: twin management, interval flushing, and diff
// application (paper §3.3 twins, §3.4-3.5 mixed protocol mechanics),
// extracted from the node so it can operate per-directory-shard.
//
// The engine owns the "what changed and how does it propagate" half of
// the protocol; the node keeps the "who talks to whom" half (fetch,
// lock, barrier message flows). Every entry point below documents its
// locking contract against the striped ObjectDirectory:
//
//  * per-meta calls (ensure_twin / apply_pending / apply_incoming /
//    apply_delivery / flush_evicted) require the caller to hold the
//    meta's shard lock and reach the object's words, mapped or not,
//    through Mapper::Words;
//  * flush_interval / flush_barrier / end_barrier take shard locks
//    themselves, one object at a time, and must be called with NO shard
//    lock held; barrier_record runs under the caller's shard lock;
//  * build_diff_batches is pure message assembly — no locks involved.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "common/stats.hpp"
#include "core/diff.hpp"
#include "core/mapper.hpp"
#include "core/object.hpp"
#include "net/message.hpp"

namespace lots::core {

class CoherenceEngine {
 public:
  CoherenceEngine(ObjectDirectory& dir, Mapper& mapper, NodeStats& stats)
      : dir_(dir), mapper_(mapper), stats_(stats) {}
  CoherenceEngine(const CoherenceEngine&) = delete;
  CoherenceEngine& operator=(const CoherenceEngine&) = delete;

  /// Copies the object's current data into its twin slot and records it
  /// as twinned this interval (its id is listed once between flushes,
  /// however often evictions take its twin), seeding twin_writers with
  /// app thread `thread` (the faulting thread; every later access check
  /// ORs its own bit in). Caller holds the shard lock; the object must
  /// be mapped.
  void ensure_twin(ObjectMeta& m, int thread = 0);
  /// Test hook: ids on the interval twin list.
  size_t interval_twins() {
    std::lock_guard g(twins_mu_);
    return interval_twins_.size();
  }

  /// Applies all updates parked while the object was unmapped. Caller
  /// holds the shard lock; the object must be mapped.
  void apply_pending(ObjectMeta& m);

  /// Applies an incoming update to the object's data + word stamps,
  /// wherever they live, AND to its twin when one exists: otherwise the
  /// next flush would mistake the foreign words for local writes and
  /// re-stamp them with this node's (possibly inflated) epoch — which can
  /// bury a genuinely newer write (lost update). Caller holds the lock.
  void apply_incoming(ObjectMeta& m, const DiffRecord& rec);

  /// Full delivery path for a record arriving from a peer (release push
  /// or barrier phase 2): applies it when the copy is mapped or swapped
  /// out or this node is the home (which materializes the master copy),
  /// and parks it in `pending` otherwise. Caller holds the shard lock.
  void apply_delivery(ObjectMeta& m, DiffRecord&& rec, int32_t self_rank);

  /// A release's flush: turns the twins app thread `thread`'s access
  /// checks touched (twin_writers bit) into DiffRecords at `flush_epoch`
  /// and returns them, so a lock-guarded write always ships on that
  /// lock's token chain, even into a twin a sibling created, while a
  /// sibling mid-critical-section on another DISJOINT object keeps its
  /// twin (its own release ships it on the right token; flushing
  /// node-wide here would attach it to the wrong lock's scope).
  /// Twin-granularity CONTRACT: sibling app threads writing the SAME
  /// object within one interval must do so under the SAME lock (or
  /// separate the writes with a barrier) — the intra-node per-lock mutex
  /// then serializes their stores against this flush. An unsynchronized
  /// sibling store can land between the diff snapshot and the object's
  /// re-twin, where it would be absorbed into the new twin base and
  /// never diffed (a silent cluster-wide lost update that per-word
  /// stamps cannot see). Cross-NODE writers of one object need no such
  /// rule: they work on separate copies, which the stamps reconcile.
  /// The same twin scan also sets each record's words in the barrier's
  /// changed-word bitmap, the one record of what this node wrote since
  /// the last plan: a long lock-heavy interval sequence costs one bit
  /// per object word, not one record per interval, and the barrier
  /// ships those words with the rest (barrier_record). Call with NO
  /// shard lock held: the engine serializes whole flushes on flush_mu_,
  /// then locks each object's shard in turn.
  std::vector<DiffRecord> flush_interval(uint32_t flush_epoch, int thread);

  /// The barrier's flush (all app threads quiescent): one pass over
  /// every twin that compares data with twin, stamps the changed words
  /// with `flush_epoch`, sets their bits in the barrier's changed-word
  /// bitmap and drops the twin. It builds no record: most written
  /// objects never ship (a lone writer inherits the home, Fig. 6), so
  /// the record waits for the plan (barrier_record). Returns the
  /// barrier's write summary: every object with bits, set by this flush
  /// or by a release or an eviction (flush_evicted) since the last plan,
  /// ascending. When a lock was taken after an eviction flush, the words
  /// that flush stamped are raised to `flush_epoch`. Call with NO shard
  /// lock held.
  std::vector<ObjectId> flush_barrier(uint32_t flush_epoch);

  /// Mapper::evict's flush of a twinned mapped victim, while the node's
  /// `epoch` is still the last plan's (no lock taken since, so no
  /// critical section open): the barrier flush's step for this one
  /// object, stamped cut_ + 1. It marks and stamps the changed words and
  /// drops the twin, so the image goes out untwinned and the barrier
  /// finds nothing to read back; should a lock be taken later in the
  /// interval, flush_barrier raises those stamps to its own. Otherwise,
  /// or when another flush holds flush_mu_ (ordered before shard locks,
  /// and the caller holds the victim's), the twin stays.
  void flush_evicted(ObjectMeta& m, uint32_t epoch);

  /// The record this node ships for a written object the plan homes
  /// elsewhere (under kWriteUpdateOnly: every mod, built before the
  /// enter): every word its bitmap marks, barrier and lock intervals
  /// alike, at its current value and stamp. The record's epoch is the
  /// newest of those stamps, and it carries per-word stamps only when
  /// they differ (the form of a folded chain record, fold_record). Empty
  /// when this node did not write it. Counts diffs_created. Caller holds
  /// the shard lock via `lk` (barrier leader only); a copy parked on the
  /// swap buddy is pulled back first, with `lk` down for the round trip.
  ///
  /// Why a word's current value stands for what this node wrote: a
  /// marked word holds either this node's write under the stamp its
  /// flush gave it, or a value that replaced it since under a newer
  /// stamp (apply_record and a fetched diff take a word only when
  /// newer, and a marked copy always fetches the diff form, fetch.hpp). The
  /// receiver applies a word only when its stamp is newer than its own,
  /// so the replacement, shipped here, lands where this node's older
  /// write would have lost to it, and is a no-op where the receiver
  /// already holds it: the home image is the one shipping the write
  /// itself gives. (A barrier flush's word cannot be replaced before the
  /// build: app threads are parked and phase-2 diffs reach only the new
  /// home, which is not this node.) The words must still be there:
  /// Mapper::evict never drops a marked copy.
  DiffRecord barrier_record(ObjectMeta& m, std::unique_lock<std::mutex>& lk);

  /// The plan was applied: clears the bitmap and the write summary's id
  /// list for the next barrier interval, which starts at `new_epoch`.
  /// Call with NO shard lock held.
  void end_barrier(uint32_t new_epoch);
  /// The node's epoch at the last applied plan.
  uint32_t cut() {
    std::lock_guard fg(flush_mu_);
    return cut_;
  }

  /// Packages per-peer record groups into ONE kDiffBatch message per
  /// peer — the release/barrier paths send O(peers) messages per sync
  /// operation regardless of how many objects changed. Counts
  /// diff_batch_msgs / diff_records_batched / diff_words_sent /
  /// diff_payload_bytes / diff_bytes_saved.
  static std::vector<net::Message> build_diff_batches(
      const std::map<int32_t, std::vector<DiffRecord>>& by_peer, NodeStats& stats);

  /// Broadcast form (write-update ablation): the same record set goes to
  /// every peer except `self_rank`. The payload is encoded once and the
  /// byte buffer cloned per destination — no per-peer record copies.
  static std::vector<net::Message> build_broadcast_batches(std::span<const DiffRecord> records,
                                                           int nprocs, int self_rank,
                                                           NodeStats& stats);

 private:
  static constexpr int kAllThreads = -1;  ///< flush_twins selector: the barrier

  /// The shared flush pass: `thread`'s twins (a release: bitmap marks
  /// and records into `out`) or every twin (the barrier: marks only).
  void flush_twins(uint32_t flush_epoch, int thread, std::vector<DiffRecord>& out);
  /// One twinned object's flush step, the pass's and an eviction's:
  /// compares data with twin, marks and stamps the changed words at
  /// `flush_epoch` (appending them to `rec` when given) and drops the
  /// twin. Returns whether a word changed. Caller holds flush_mu_ and
  /// the object's shard lock.
  bool flush_twin(ObjectMeta& m, uint32_t flush_epoch, DiffRecord* rec);

  ObjectDirectory& dir_;
  Mapper& mapper_;
  NodeStats& stats_;

  /// The barrier's changed-word bitmap: one bit per word of each object
  /// a flush (release or barrier) found written since the last applied
  /// plan, every object's bits in this one buffer at its
  /// ObjectMeta::marks (a barrier unwound by a death keeps its marks for
  /// the redo). Flushes and the reset change it under flush_mu_; the
  /// record builds read it in the barrier collective, with every app
  /// thread parked, so no release runs beside them.
  std::vector<uint64_t> mark_bits_;
  /// Objects a flush marked since the last plan: the write summary's
  /// candidates (guarded by flush_mu_).
  std::vector<ObjectId> written_;
  /// The node's epoch at the last plan (Node::epoch_ starts at 1); an
  /// eviction flush stamps cut_ + 1. Guarded by flush_mu_.
  uint32_t cut_ = 1;

  /// Objects twinned since the last flush (selection happens per meta
  /// via twin_writers), each once (ObjectMeta::twin_listed). Guarded by
  /// its own (leaf) mutex: ensure_twin appends under a shard lock; flush
  /// drains the list, and re-appends the entries it did not select.
  std::mutex twins_mu_;
  std::vector<ObjectId> interval_twins_;
  /// Serializes whole flush passes: two concurrent releases must not
  /// race over the drained list, or the later one would find it empty
  /// and ship a chain missing its own writes. Ordered BEFORE shard
  /// locks (an evictor under one only try_locks it, flush_evicted);
  /// never held while blocking on the network.
  std::mutex flush_mu_;
};

}  // namespace lots::core
