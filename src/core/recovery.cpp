// RecoveryEngine: barrier-consistent replication and worker-death
// recovery. See recovery.hpp for what the engine owns and its lock
// order.
//
// Replication: at every barrier, after the barrier plan and before the
// done rendezvous, each (possibly freshly migrated) home ships the words
// of its modified homed objects to its R-1 *backups* — the next R-1 live
// ranks in ring order (Config::replication = R total copies). The ship
// encodes one payload and sends a copy of it, acked, to every backup.
// Because every update is acked before kBarrierDone, barrier completion
// implies each backup holds every object at the just-committed cut: the
// cluster can always fall back to the state of the last barrier, and
// any f < R deaths per barrier interval leave at least one live holder
// per object.
//
// Failure detection feeds on_peer_dead from two directions: the
// lots_launch coordinator broadcasts kPeerDead when a worker's TCP
// connection EOFs before DONE (the bootstrap watcher thread delivers
// it), and the transport's bounded retransmit loop declares a silent
// peer unreachable (Config::cluster.udp_max_retrans) and both uplinks a
// kSuspect verdict and calls in here directly.
//
// Recovery model: the application runs barrier-structured, idempotent
// supersteps over the live worker set (lots::alive). When a worker dies
// between barriers, every in-flight request and lock wait unwinds with
// WorkerDied; the application catches it, calls lots::recover() on every
// surviving thread, re-partitions over the survivors and REDOES the
// current superstep. recover() re-homes the dead rank's objects to the
// replica holder (which materializes its replicas as authoritative home
// copies at the last barrier cut), re-mints every DSM lock (post-cut
// scope chains are redone anyway), and rendezvouses cluster-wide so no
// survivor resumes before every holder is serving.
//
// Views and the collective sequence: a node's view counts the deaths it
// noticed, and recovery is the change to that view. kRecoverEnter
// carries (view, seq), where seq numbers the barriers and run barriers
// the node saw commit; the exit echoes the highest seq, which tells a
// survivor whose exit reply a death sweep ate that its collective
// committed (committed_redo). The master keeps the last released view's
// exit and answers a re-enter for it at once, so every recovery step is
// safe to repeat.
//
// Master failover: the barrier master and recovery rendezvous live on
// the lowest ALIVE rank (SyncEngine::master_rank), and a dead manager's
// locks walk forward to the next live rank (SyncEngine::manager_of). The
// coordinator's kPeerDead broadcast gives every survivor the same dead
// set, so they agree on both.
//
// A death INSIDE the two-phase barrier protocol is recoverable too: the
// interrupted plan may have partially applied cluster-wide, but every
// value it moved belongs to the superstep the survivors are about to
// redo — per-word newest-wins timestamps make the redone flush converge
// every copy, and the dead rank's objects rejoin at their replica cut.
// After any recovery, every home voids its replica cuts so the next
// barrier re-seeds the (possibly rotated) ring with full images.
//
// Remaining limitation (documented in ARCHITECTURE.md): f >= R deaths
// within one barrier interval can erase every holder of an object.
#include "core/recovery.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <unordered_set>

#include "core/runtime.hpp"

namespace lots::core {

RecoveryEngine::RecoveryEngine(Node& node) : node_(node) {}

uint32_t RecoveryEngine::view() const {
  uint32_t dead = 0;
  for (int r = 0; r < node_.nprocs(); ++r) dead += node_.rank_alive(r) ? 0 : 1;
  return dead;
}

std::vector<int> RecoveryEngine::ring_successors(int home, int count) const {
  std::vector<int> out;
  for (int i = 1; i < node_.nprocs() && static_cast<int>(out.size()) < count; ++i) {
    const int r = (home + i) % node_.nprocs();
    if (node_.rank_alive(r)) out.push_back(r);
  }
  return out;
}

void RecoveryEngine::on_peer_dead(int dead) {
  Node& n = node_;
  if (dead < 0 || dead >= n.nprocs() || dead == n.rank_) return;
  // Fence the corpse at the wire (idempotent): stop sending to it,
  // release senders parked on its flow-control window, and drop its late
  // datagrams (the zombie fence — a SIGKILLed worker's retransmits must
  // not land in the new view). Then mark it dead and fail EVERY pending
  // request in one sweep: a request parked at a live peer (a barrier
  // enter at the master, a fetch the dead rank was supposed to unblock)
  // can never complete once a participant died, so all waiters unwind to
  // the recovery path instead of timing out one by one. Marking the rank
  // dead IS the view change — view() counts the endpoint's table — and
  // the sweep must be the ONLY step that wakes waiters: a thread released
  // early would sprint into recover(), park its kRecoverEnter in the
  // pending table, and have this very sweep kill it. fail_all_pending
  // marks the rank dead and drains atomically.
  n.ep_.transport().mark_peer_dead(dead);
  if (!n.ep_.fail_all_pending(dead)) {
    return;  // second verdict (coordinator + transport both noticed)
  }
  // A master re-evaluates the recovery round.
  n.sync_.on_death();
  if (!n.rt_.in_run()) recover_departed();
}

// --- replication: home side (barrier leader) -------------------------------

void RecoveryEngine::ship_replicas(const std::vector<BarrierPlanEntry>& plan, uint32_t cut) {
  Node& n = node_;
  const auto backups = ring_successors(n.rank_, n.rt_.config().replication - 1);
  if (backups.empty()) return;  // no live backup left: nothing to survive for
  // A death noticed since the last recovery may have rotated the ring
  // (a new successor holds none of our cuts), and this barrier can still
  // commit: every cut is void, so every homed object ships in full. Read
  // after the ring, so a death landing in between errs toward full.
  const bool rotated = view() != n.sync_.recovered_view();

  // The ship list: the barrier's modified homed objects, plus every homed
  // object with no valid cut (fresh, voided, rotated ring), since the
  // backups must cover the whole homed set. All get one payload.
  std::vector<ObjectId> ship;
  std::unordered_set<ObjectId> seen;
  for (const auto& e : plan) {
    if (e.new_home == n.rank_ && seen.insert(e.object).second) ship.push_back(e.object);
  }
  n.dir_.for_each([&](ObjectMeta& m) {
    if (m.home == n.rank_ && (rotated || m.replica_cut == 0) && seen.insert(m.id).second) {
      ship.push_back(m.id);
    }
  });
  if (ship.empty()) return;

  std::vector<uint8_t> payload;
  net::Writer w(payload);
  w.u32(cut);
  w.u32(static_cast<uint32_t>(ship.size()));
  for (ObjectId id : ship) {
    auto lk = n.dir_.lock_shard(id);
    ObjectMeta* pm = n.dir_.find(id);
    if (!pm || pm->home != n.rank_) {  // freed / re-homed under us: empty record
      w.u32(id);
      w.u32(0);
      w.u8(0);
      w.u32(0);
      continue;
    }
    ObjectMeta& m = *pm;
    // The sibling app threads are parked in the barrier collective, but
    // the service thread may still be finishing a home-side flow on this
    // object: wait its guard out, then own the mapping state ourselves.
    n.dir_.shard_cv(id).wait(lk, [&] { return !m.inflight; });
    m.inflight = true;
    InflightGuard guard{n.dir_, m, lk};
    // The home's authoritative image: mapped data with pending diffs
    // (phase-2 deliveries that landed while unmapped) applied.
    if (m.map != MapState::kMapped) n.mapper_.map_in(m, lk);
    if (!m.pending.empty()) n.coherence_.apply_pending(m);
    const Mapper::Words view = n.mapper_.words(m);
    const uint32_t* vals = reinterpret_cast<const uint32_t*>(view.data());
    const uint32_t* ts = view.ts();
    const uint32_t words = m.words();
    const bool full = rotated || m.replica_cut == 0;
    w.u32(id);
    w.u32(m.size_bytes);
    w.u8(full ? 1 : 0);
    if (full) {
      w.bytes({reinterpret_cast<const uint8_t*>(vals), static_cast<size_t>(words) * 4});
      w.bytes({reinterpret_cast<const uint8_t*>(ts), static_cast<size_t>(words) * 4});
    } else {
      // Diff since the last shipped cut: exactly the words stamped after
      // it (every word changed since then carries a newer flush epoch;
      // nothing older can have changed).
      uint32_t changed = 0;
      for (uint32_t i = 0; i < words; ++i) changed += ts[i] > m.replica_cut ? 1 : 0;
      w.u32(changed);
      for (uint32_t i = 0; i < words; ++i) {
        if (ts[i] <= m.replica_cut) continue;
        w.u32(i);
        w.u32(vals[i]);
        w.u32(ts[i]);
      }
    }
    // Advance the cut at encode time. If an ack is later swept by a death
    // notice, recovery voids every cut (full re-seed), so a ship a backup
    // never saw cannot leave a silent diff hole.
    m.replica_cut = cut;
  }

  std::vector<net::Endpoint::PendingReply> acks;
  acks.reserve(backups.size());
  for (const int b : backups) {
    // The payload is a byte clone, not a re-encode.
    net::Message up{.type = net::MsgType::kReplicaUpdate, .dst = b, .payload = payload};
    n.stats_.replica_msgs.fetch_add(1, std::memory_order_relaxed);
    n.stats_.replica_bytes.fetch_add(up.payload.size(), std::memory_order_relaxed);
    acks.push_back(n.ep_.request_async(std::move(up)));
  }
  // All fan-out updates acked BEFORE kBarrierDone: barrier completion
  // implies every live backup holds the cut.
  for (auto& ack : acks) ack.wait();
}

// --- replication: backup side (service thread) -----------------------------

void RecoveryEngine::on_replica_update(net::Message&& m) {
  net::Reader r(m.payload);
  const uint32_t cut = r.u32();
  const uint32_t count = r.u32();
  {
    std::lock_guard rl(replica_mu_);
    for (uint32_t i = 0; i < count; ++i) {
      const ObjectId id = r.u32();
      const uint32_t size_bytes = r.u32();
      const bool full = r.u8() != 0;
      if (size_bytes == 0) {  // placeholder for a vanished object
        if (!full) r.u32();
        continue;
      }
      const size_t words = (static_cast<size_t>(size_bytes) + 3) / 4;
      Replica& rep = replicas_[id];
      if (rep.data.size() != words * 4) {
        rep.data.assign(words * 4, 0);
        rep.ts.assign(words, 0);
      }
      if (full) {
        auto dv = r.bytes_view();
        auto tv = r.bytes_view();
        std::memcpy(rep.data.data(), dv.data(), std::min(dv.size(), rep.data.size()));
        std::memcpy(rep.ts.data(), tv.data(), std::min(tv.size(), words * 4));
      } else {
        const uint32_t n = r.u32();
        for (uint32_t k = 0; k < n; ++k) {
          const uint32_t idx = r.u32();
          const uint32_t val = r.u32();
          const uint32_t wts = r.u32();
          if (idx >= words) continue;
          if (wts >= rep.ts[idx]) {  // newest word wins, as everywhere
            rep.ts[idx] = wts;
            std::memcpy(rep.data.data() + static_cast<size_t>(idx) * 4, &val, 4);
          }
        }
      }
      rep.epoch = std::max(rep.epoch, cut);
    }
  }
  node_.ep_.reply(m, {.type = net::MsgType::kReply});
}

void RecoveryEngine::drop_replica(ObjectId id) {
  std::lock_guard rl(replica_mu_);
  replicas_.erase(id);
}

size_t RecoveryEngine::replica_count() {
  std::lock_guard rl(replica_mu_);
  return replicas_.size();
}

// --- recovery (app threads, collective) ------------------------------------

void RecoveryEngine::recover_leader() {
  Node& n = node_;
  // A view change is pending when this node noticed a death it has not
  // recovered. Otherwise the call is spurious, or a sibling round of the
  // same view already ran: nothing to do.
  const uint32_t v = view();
  if (v == n.sync_.recovered_view()) return;
  if (!n.rt_.config().replication) {
    throw SystemError(
        "a worker died but replication is off — run with LOTS_REPLICATE=2 to survive "
        "worker failures");
  }
  // Chaos: die at the top of our own recovery pass, while the other
  // survivors are mid-recovery for the earlier death — exercises the
  // application's recover-retry loop.
  if (n.chaos_due(KillPoint::When::kInRecovery)) std::raise(SIGKILL);
  const auto t0 = std::chrono::steady_clock::now();
  repair_view();
  // Cluster-wide rendezvous at the master — the lowest-numbered ALIVE
  // rank, so the rendezvous itself survives rank 0's death.
  if (n.sync_.recover(v)) {
    // The victim died INSIDE the two-phase barrier protocol. The
    // interrupted plan may have partially applied, but everything it
    // moved belongs to the superstep the survivors now redo: per-word
    // newest-wins stamps converge every copy at the redone barrier, and
    // the full re-seed above restores replica coverage. Count it; no
    // longer fatal.
    n.stats_.recoveries_mid_barrier.fetch_add(1, std::memory_order_relaxed);
  }
  n.stats_.recoveries.fetch_add(1, std::memory_order_relaxed);
  const auto dt = std::chrono::steady_clock::now() - t0;
  n.stats_.recover_wall_us.fetch_add(
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(dt).count()),
      std::memory_order_relaxed);
  // Chaos: die the instant the recovery round completes — rendezvous
  // released, objects re-homed to us, but the next barrier's full-image
  // re-seed still pending. Aimed at a rank that just adopted a dead
  // home's objects, this forces the NEXT repair to fall back on the
  // replicas the other survivors kept from the first fan-out.
  ++chaos_recoveries_;
  if (n.chaos_due(KillPoint::When::kAfterRecovery)) std::raise(SIGKILL);
}

void RecoveryEngine::repair_view() {
  Node& n = node_;
  // Fence the old view: old-generation handoffs die on arrival and the
  // dominance streaks restart; the epoch bump defeats every thread's ALB
  // so no cached pointer survives the re-homing below.
  n.home_.fence();
  n.epoch_.fetch_add(1, std::memory_order_relaxed);
  // One idempotent pass over the directory. Every object whose home is
  // dead moves to the lowest-alive holder in its home's ring order —
  // with R total copies, any f < R deaths leave it within the shipped
  // successor set; a holder that died since is itself a dead home, so a
  // rerun after a mid-recovery death converges. Then the replica cut of
  // every object we home is voided so the next barrier ships FULL images
  // to the (possibly shifted) successor set. That also closes the
  // swept-ack hole: a kReplicaUpdate whose ack a death sweep failed may
  // never have reached its backup, so no pre-death cut is trusted.
  uint32_t reseeded = 0;
  n.dir_.for_each([&](ObjectMeta& m) {
    if (m.home >= 0 && !n.rank_alive(m.home)) {
      const auto holder = ring_successors(m.home, 1);
      LOTS_CHECK(!holder.empty(), "recovery: no live replica holder remains");
      rehome_object(m, holder.front());
    }
    if (m.home == n.rank_ && m.replica_cut != 0) {
      m.replica_cut = 0;
      ++reseeded;
    }
  });
  n.stats_.rings_reseeded.fetch_add(reseeded, std::memory_order_relaxed);
  n.sync_.remint_locks();
}

void RecoveryEngine::recover_departed() noexcept {
  Node& n = node_;
  // Pairs with the seq_cst exchange in Endpoint::fail_all_pending: a
  // death noticed concurrently with leaving run() is seen by at least
  // one side.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const uint32_t v = view();
  if (v == n.sync_.recovered_view() || !n.rt_.config().replication) return;
  try {
    repair_view();
    n.sync_.send_recover_enter(v);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lots: rank %d could not answer recovery after run(): %s\n", n.rank_,
                 e.what());
  }
}

void RecoveryEngine::rehome_object(ObjectMeta& m, int holder) {
  Node& n = node_;
  // Drop every trace of our copy, whatever its state: it may hold
  // post-cut words that died with the home's unshipped interval, and
  // the cut is the one consistent line every survivor can rejoin on.
  n.mapper_.drop_mapping(m, /*keep_disk_image=*/false);
  n.home_.move_home(m, holder);  // the holder full-ships to its successors next barrier
  m.twinned = false;
  m.twin_writers = 0;
  m.pending.clear();
  m.marks = ObjectMeta::kNoMarks;
  if (n.rank_ == holder) {
    // Materialize the replica as the authoritative home copy at the
    // last barrier cut.
    decltype(replicas_)::node_type rep;
    {
      std::lock_guard rl(replica_mu_);
      rep = replicas_.extract(m.id);
    }
    m.share = ShareState::kValid;
    n.stats_.objects_rehomed.fetch_add(1, std::memory_order_relaxed);
    if (rep) {
      // Our copy is gone: fill its zero words from the replica and store.
      const Replica& r = rep.mapped();
      const size_t bytes = word_bytes(m);
      Mapper::Words w = n.mapper_.words(m);
      std::memcpy(w.data(), r.data.data(), std::min(bytes, r.data.size()));
      std::memcpy(w.ts(), r.ts.data(), std::min(bytes, r.ts.size() * 4));
      w.store();
      m.valid_epoch = r.epoch;
    } else {
      // Never shipped: the object was never dirty at any barrier, so
      // its content at the cut is all-zero — exactly what a fresh
      // map-in provides.
      m.valid_epoch = 0;
    }
  } else {
    // Point at the holder. Our valid_epoch may run AHEAD of the replica
    // cut (post-cut updates died with the home), so a diff-since-base
    // fetch would miss words: force the next access to take a FULL copy.
    m.share = ShareState::kInvalid;
    // We may hold a replica of this object from the dead home's
    // fan-out. KEEP it: it sits exactly at the recovery cut the holder
    // just materialized, and it is the only fallback if the new home
    // dies before the next barrier re-seeds the ring (still f < R
    // deaths in one barrier interval). That re-seed overwrites it.
  }
}

}  // namespace lots::core
