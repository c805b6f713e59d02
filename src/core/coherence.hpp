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
//    apply_delivery) require the caller to hold the meta's shard lock
//    and reach the object's words, mapped or not, through Mapper::Words;
//  * flush_interval takes shard locks itself, one object at a time, and
//    must be called with NO shard lock held;
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

  /// Flush selector: every app thread's twins (the barrier, which runs
  /// with all app threads quiescent).
  static constexpr int kAllThreads = -1;

  /// Copies the object's current data into its twin slot and records it
  /// as twinned this interval, seeding twin_writers with app thread
  /// `thread` (the faulting thread; every later access check ORs its
  /// own bit in). Caller holds the shard lock; the object must be
  /// mapped.
  void ensure_twin(ObjectMeta& m, int thread = 0);

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

  /// Flushes objects twinned this interval into DiffRecords at
  /// `flush_epoch`; returns the records to a release (the barrier gets
  /// none: it reads `local_writes`). `thread` selects WHICH twins:
  /// a release passes the releasing thread's index and flushes exactly
  /// the twins that thread's access checks touched (twin_writers bit) —
  /// so a lock-guarded write always ships on that lock's token chain,
  /// even into a twin a sibling created, while a sibling
  /// mid-critical-section on another DISJOINT object keeps its twin
  /// (its own release ships it on the right token; flushing node-wide
  /// here would attach it to the wrong lock's scope). Twin-granularity
  /// CONTRACT: sibling app threads writing the SAME object within one
  /// interval must do so under the SAME lock (or separate the writes
  /// with a barrier) — the intra-node per-lock mutex then serializes
  /// their stores against this flush. An unsynchronized sibling store
  /// can land between the diff snapshot and the object's re-twin,
  /// where it would be absorbed into the new twin base and never
  /// diffed (a silent cluster-wide lost update that per-word stamps
  /// cannot see). Cross-NODE writers of one object need no such rule:
  /// they work on separate copies, which the stamps reconcile.
  /// kAllThreads (the barrier, all app threads quiescent)
  /// drains everything. Each record is also coalesced into its meta's
  /// `local_writes` (newest per-word stamp wins), so the barrier ships
  /// one bounded, already-merged record per object no matter how many
  /// lock intervals preceded it. Call with NO shard lock held: the engine
  /// serializes whole flushes on flush_mu_, then locks each object's
  /// shard in turn.
  std::vector<DiffRecord> flush_interval(uint32_t flush_epoch, int thread = kAllThreads);

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
  ObjectDirectory& dir_;
  Mapper& mapper_;
  NodeStats& stats_;

  /// Objects twinned since the last flush (selection happens per meta
  /// via twin_writers). Guarded by its own (leaf) mutex: ensure_twin
  /// appends under a shard lock; flush drains the list, and re-appends
  /// the entries it did not select.
  std::mutex twins_mu_;
  std::vector<ObjectId> interval_twins_;
  /// Serializes whole flush passes: two concurrent releases must not
  /// race over the drained list, or the later one would find it empty
  /// and ship a chain missing its own writes. Ordered BEFORE shard
  /// locks; never held while blocking on the network.
  std::mutex flush_mu_;
};

}  // namespace lots::core
