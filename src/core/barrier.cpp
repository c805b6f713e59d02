// Barrier synchronization: migrating-home write-invalidate (paper §3.4,
// Fig. 6), orchestrated by a two-phase protocol at the master (node 0).
//
// Phase 1 — every node flushes its interval twins into changed-word
// marks (stamped words, no records; a copy evicted before the node's
// first lock of the interval was flushed at its eviction) and sends
// the *ids* of the objects it modified (metadata only) to the master.
// When all nodes have arrived the master computes the plan:
//   * single-writer object  -> home migrates to the writer; no object
//     data moves at all ("this information can be piggybacked on the
//     barrier exit message");
//   * multi-writer object   -> home stays put; every non-home writer
//     builds its diff record from its changed-word marks (barrier and
//     lock intervals alike) and sends it to the home.
// Phase 2 — writers deliver diffs, coalesced into ONE kDiffBatch per
// destination peer (acked), then report done; the master releases
// everyone. On exit every node invalidates its copies of modified
// objects it is not the new home of, frees the associated bookkeeping,
// and advances to the new global epoch.
//
// The kWriteUpdateOnly ablation replaces phase 2 with an all-to-all
// update broadcast and skips invalidation — the "very heavy all-to-all
// traffic" the paper argues against. Even that broadcast is one batch
// message per peer.
//
// The master's rendezvous lives in SyncEngine (sync.cpp), the plan's
// computation and application in HomeEngine (home.cpp); this file is
// the node's barrier body. Per-object work (flush, merge,
// plan application) takes only each object's directory-shard lock in
// turn, never across the blocking enter/diff/done requests.
#include <csignal>
#include <map>

#include "core/runtime.hpp"

namespace lots::core {

void Node::barrier() {
  // Thread-collective: all of this node's app threads rendezvous and the
  // last arriver runs the node's barrier once, with every sibling
  // quiescent — so the flush below sees a stable view of the node's
  // twins (every thread's interval writes), and the plan application
  // cannot race an access check from this node. The network protocol is
  // unchanged: one kBarrierEnter per NODE, whatever threads_per_node is.
  group_.collective([&] { barrier_leader(); });
}

void Node::barrier_leader() {
  // A death notice that has not been recovered yet unwinds here, before
  // any new protocol traffic.
  //
  // Committed redo: the last recovery's echo proved that the barrier
  // this node unwound from HAD committed cluster-wide — every live
  // rank's done was in, the master released, and only our exit reply
  // was lost to the death sweep. Our plan was applied and our replicas
  // shipped before that done, so the redone superstep's rewrite (same
  // values, by the idempotence contract) needs no new flush: consume
  // the commit locally and fall back in step with the survivors that
  // never unwound. Entering the protocol instead would deadlock — they
  // are already parked in the NEXT collective.
  if (!sync_.begin_collective(/*run=*/false)) {
    stats_.barriers.fetch_add(1, std::memory_order_relaxed);
    if (chaos_due(KillPoint::When::kBarrier)) std::raise(SIGKILL);
    return;
  }

  // ---- flush local writes of the ending interval ----
  const uint32_t flush_epoch = epoch_.load(std::memory_order_relaxed) + 1;
  const std::vector<ObjectId> mods = coherence_.flush_barrier(flush_epoch);
  epoch_.store(flush_epoch, std::memory_order_relaxed);
  const uint32_t my_epoch = epoch_.load(std::memory_order_relaxed);

  // kWriteUpdateOnly ships every mod: build the records before the enter,
  // while no peer's phase-2 broadcast can have landed on a copy.
  const bool write_update_everywhere = rt_.config().protocol == ProtocolMode::kWriteUpdateOnly;
  std::vector<DiffRecord> broadcast;
  if (write_update_everywhere) {
    for (ObjectId id : mods) {
      auto lk = dir_.lock_shard(id);
      broadcast.push_back(coherence_.barrier_record(dir_.get(id), lk));
    }
  }

  // ---- phase 1: enter with the write summary, receive the plan ----
  std::vector<uint8_t> summary;
  {
    net::Writer w(summary);
    w.u32(my_epoch);
    w.u32(static_cast<uint32_t>(mods.size()));
    for (ObjectId id : mods) w.u32(id);
  }
  net::Message plan_msg = sync_.request(net::MsgType::kBarrierEnter, std::move(summary));
  net::Reader pr(plan_msg.payload);
  const uint32_t new_epoch = pr.u32();
  const uint32_t nentries = pr.u32();
  std::vector<BarrierPlanEntry> plan(nentries);
  for (auto& e : plan) {
    e.object = pr.u32();
    e.new_home = pr.i32();
  }

  // ---- phase 2: deliver diffs, one batch message per peer ----
  std::vector<net::Message> outs;
  std::map<int32_t, std::vector<DiffRecord>> by_peer;
  if (write_update_everywhere) {
    // Ablation: broadcast to every other node (encoded once, cloned per peer).
    outs = CoherenceEngine::build_broadcast_batches(broadcast, nprocs(), rank_, stats_);
  } else {
    // Mixed / write-invalidate: diffs flow to the (possibly migrated)
    // home, and only for multi-writer objects — a single writer becomes
    // the home, moving zero object data. Only here, after the plan, is
    // a record built: the flush left changed-word marks, and an object
    // whose new home is this node never needs one.
    for (const auto& e : plan) {
      if (e.new_home == rank_) continue;  // I hold the newest copy
      auto lk = dir_.lock_shard(e.object);
      ObjectMeta* m = dir_.find(e.object);
      if (!m) continue;
      DiffRecord rec = coherence_.barrier_record(*m, lk);
      if (!rec.word_idx.empty()) by_peer[e.new_home].push_back(std::move(rec));  // my write
    }
    outs = CoherenceEngine::build_diff_batches(by_peer, stats_);
  }
  for (auto& msg : outs) ep_.request(std::move(msg));  // acked delivery

  // ---- apply the plan BEFORE reporting done ----
  // Ordering argument: a node only issues post-barrier fetches after the
  // master's exit; the master releases only after every node reported
  // done; and done is sent only after the local plan (new homes +
  // invalidations) took effect. Hence no fetch can ever reach a node
  // still holding pre-barrier home/validity state — the invariant that
  // the serving home always has a complete, current copy.
  home_.apply_barrier_plan(plan, new_epoch);

  // ---- barrier-consistent replication (RecoveryEngine) ----
  // Ship AFTER the plan applied (this node knows which objects it now
  // homes) and BEFORE the done rendezvous: the ship is acked, so barrier
  // completion implies the backup holds every homed object at the cut.
  // cut = new_epoch - 1: every word timestamp flushed up to and
  // including this barrier is <= cut, every future flush is > cut.
  if (rt_.config().replication && nprocs() > 1) recovery_.ship_replicas(plan, new_epoch - 1);

  // ---- chaos injection, mid-barrier kill point (--kill R:mid-barrier:K) ----
  // The victim dies INSIDE the two-phase protocol during its K-th
  // barrier: entered (the master holds it in in_barrier), plan applied,
  // replicas shipped — but before the done rendezvous, so survivors are
  // left with a partially completed barrier to unwind and redo.
  if (chaos_due(KillPoint::When::kMidBarrier)) std::raise(SIGKILL);

  // ---- phase 2 rendezvous: wait until everyone applied the plan ----
  // The done is our commit vote: once it is on the wire the master may
  // release the barrier whether or not our exit reply survives the next
  // death sweep. If it doesn't, the recovery echo settles it (see
  // committed_redo).
  sync_.request(net::MsgType::kBarrierDone);
  sync_.end_collective(/*run=*/false);
  stats_.barriers.fetch_add(1, std::memory_order_relaxed);

  // ---- chaos injection, post-commit kill point (--kill R:barrier:K) ----
  // The victim dies the instant its K-th barrier fully completes —
  // replicas shipped, done acknowledged — which is exactly the cut the
  // survivors recover to. SIGKILL, not exit(): no destructors, no
  // goodbye, the coordinator sees a raw EOF and the transport sees
  // silence, exercising both detection paths.
  if (chaos_due(KillPoint::When::kBarrier)) std::raise(SIGKILL);
}

/// True when one of this rank's kill points is reached. The barrier and
/// after-recovery points fire when the completed count reaches n; the
/// mid-barrier and in-recovery points fire while the n-th round is
/// still running. Counts committed barriers / recovery rounds, NOT
/// the stats: harnesses reset stats mid-run and a countdown must not
/// rewind with them.
bool Node::chaos_due(KillPoint::When when) const {
  if (rt_.config().cluster.fabric != FabricKind::kUdp) return false;
  using When = KillPoint::When;
  const bool barrier_kind = when == When::kBarrier || when == When::kMidBarrier;
  const auto done = barrier_kind ? sync_.barriers_done() : recovery_.recoveries_done();
  const bool inside = when == When::kMidBarrier || when == When::kInRecovery;
  const uint32_t at = inside ? done + 1 : done;
  for (const KillPoint& k : rt_.config().kill_points) {
    if (k.rank == rank_ && k.when == when && k.n == at) return true;
  }
  return false;
}

}  // namespace lots::core
