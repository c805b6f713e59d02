// The object side of the lock protocol (paper §3.4): what a grant's
// records, a release's flush and a write-invalidate push do to object
// state, plus the lock-driven home-migration handoff. The protocol
// itself — tokens, managers, grants — lives in SyncEngine (sync.cpp),
// which calls in here with its mutex released: every function below
// takes only the affected object's directory-shard lock.
#include <algorithm>
#include <map>

#include "core/runtime.hpp"

namespace lots::core {

void Node::apply_grant_record(const DiffRecord& rec, bool invalidate_only) {
  auto lk = dir_.lock_shard(rec.object);
  ObjectMeta* m = dir_.find(rec.object);
  if (!m) return;
  if (rec.home_hint >= 0) {
    // Home-commit notice (lock-driven adaptive migration): the hinted
    // node is the object's home and committed writes up to rec.epoch
    // locally instead of shipping them on the chain. Repair a stale
    // home view FIRST — the post-invalidation refetch must go to the
    // committing home, not wherever we last believed the home was —
    // then invalidate a copy that predates the commit.
    //
    // Only a notice NEWER than our own cut is news. The token is serial,
    // so any state we hold at valid_epoch >= rec.epoch was built with
    // this commit already visible — acting on the stale hint anyway
    // would, e.g., cede a freshly adopted home back to the PREVIOUS home
    // (whose pointer already names us) and leave a two-node view cycle
    // with no home at all.
    if (m->valid_epoch >= rec.epoch) return;
    if (m->home != rank_) {
      if (m->home != rec.home_hint) {
        m->home = rec.home_hint;
        dir_.bump_generation(rec.object);  // stale-home ALB entries die
      }
      if (m->share == ShareState::kValid) {
        m->share = ShareState::kInvalid;
        m->pending.clear();
        dir_.bump_generation(rec.object);
        stats_.invalidations.fetch_add(1, std::memory_order_relaxed);
      }
    } else if (rec.home_hint != rank_) {
      // Home conflict: we believe we are the home, but the chain says
      // the hinted node committed AS home beyond our cut — it adopted in
      // a handoff we proposed (or one that chased past us). Cede: flip
      // the pointer, drop the pre-commit copy, and treat the notice as
      // the handoff ack.
      m->home = rec.home_hint;
      m->migrating = false;
      dir_.bump_generation(rec.object);
      if (m->share == ShareState::kValid) {
        m->share = ShareState::kInvalid;
        m->pending.clear();
        stats_.invalidations.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return;
  }
  if (invalidate_only) {
    // Write-invalidate ablation: drop our copy; the release already
    // pushed the data to the object's home.
    if (m->home != rank_ && m->share == ShareState::kValid) {
      m->share = ShareState::kInvalid;
      m->pending.clear();
      dir_.bump_generation(rec.object);  // defeat sibling ALB entries
      stats_.invalidations.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  // Write-update: apply immediately if mapped, else defer to map-in.
  if (m->map == MapState::kMapped) {
    coherence_.apply_incoming(*m, rec);
  } else {
    m->pending.push_back(rec);
    dir_.bump_generation(rec.object);  // pending landing: no fast path
  }
}

void Node::commit_in_place(std::vector<DiffRecord>& recs) {
  for (auto& rec : recs) {
    // When the releaser IS the object's home and its copy is settled
    // (mapped, valid, nothing pending), the interval's writes are
    // already committed in place — the home copy is the protocol's
    // source of truth, so the chain carries a ~13 B notice (object,
    // epoch, home hint) instead of the data. This is where migration
    // pays: post-adoption, the dominant writer's releases stop
    // re-shipping its own diffs around the token loop. Mid-handoff
    // (`migrating`) the conversion is OFF: a notice from the ceding home
    // could race its own handoff ack — the adopter cedes back on the
    // notice while the delayed ack flips us forward, and the two views
    // swap into a cycle with no home at all. Plain data records are
    // always safe, just bigger.
    auto lk = dir_.lock_shard(rec.object);
    ObjectMeta* m = dir_.find(rec.object);
    if (m && m->home == rank_ && !m->migrating && m->map == MapState::kMapped &&
        m->share == ShareState::kValid && m->pending.empty()) {
      m->valid_epoch = std::max(m->valid_epoch, rec.epoch);
      DiffRecord notice;
      notice.object = rec.object;
      notice.epoch = rec.epoch;
      notice.home_hint = rank_;
      rec = std::move(notice);
      stats_.home_commit_notices.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void Node::push_to_homes(std::vector<DiffRecord>&& recs) {
  // Batched into ONE kDiffBatch per peer, acked so a post-invalidation
  // fetch cannot miss them.
  std::map<int32_t, std::vector<DiffRecord>> by_home;
  for (auto& rec : recs) {
    int32_t home;
    {
      auto lk = dir_.lock_shard(rec.object);
      ObjectMeta& m = dir_.get(rec.object);
      home = m.home;
      if (home == rank_) {
        m.valid_epoch = std::max(m.valid_epoch, rec.epoch);  // already applied in place
      }
    }
    if (home != rank_) by_home[home].push_back(std::move(rec));
  }
  auto outs = CoherenceEngine::build_diff_batches(by_home, stats_);
  for (auto& msg : outs) ep_.request(std::move(msg));  // acked; no locks held
}

// --- lock-driven adaptive home migration (service thread) -------------------
//
// The handoff is a chain of one-way messages, each under a single shard
// lock, with no blocking and no data movement: manager -> (chases stale
// home views) -> true home H (marks `migrating`, endorses with its
// valid_epoch cut, forwards) -> dominant writer W (adopts iff its copy
// is settled AND valid to at least H's cut) -> ack back to H (flips its
// pointer). The adopting writer's copy is already current — it produced
// every recent interval through its critical sections and the cut check
// proves it didn't miss an in-place home commit — so "migration" is
// purely a pointer flip plus generation bumps. Adoption only ever
// happens on a proposal the current home endorsed (cur_home >= 0): a
// chase that reaches W through a stale pointer keeps chasing instead,
// because a unilateral adoption has no ack target and splits the brain.
// Everything is stamped with the sender's barrier generation and
// dropped on mismatch; the barrier plan re-decides homes from its own
// global view and sweeps any half-done handoff (ObjectMeta::migrating).
//
// Windows this leaves open, and why they are safe under ScC:
//  * two homes (H not yet acked): both serve fetches from complete
//    copies; writes keep flowing on the token chain either way.
//  * H misses W's post-adoption commits: repaired when H next acquires
//    the lock (the home-conflict branch in acquire()) or at the barrier.

void Node::on_home_migrate(net::Message&& m) {
  // Belt to migrate_on's suspenders: replication pins homes between
  // barriers (see release()), so a proposal from a mixed-config peer is
  // dropped rather than moving a home out from under its replica map.
  if (rt_.config().replication) return;
  net::Reader r(m.payload);
  const ObjectId id = r.u32();
  const int32_t new_home = r.i32();
  int32_t cur_home = r.i32();
  const uint32_t gen = r.u32();
  uint32_t home_cut = r.u32();
  uint8_t hops = r.u8();
  if (gen != barrier_gen_.load(std::memory_order_relaxed)) return;  // crossed a barrier
  int32_t fwd_to = -1;
  bool accepted = false;
  bool ack_home = false;
  {
    auto lk = dir_.lock_shard(id);
    ObjectMeta* meta = dir_.find(id);
    if (!meta) return;
    if (rank_ == new_home && cur_home < 0) {
      // The chase hit us through a stale pointer BEFORE reaching the
      // true home. Adopting here would be unilateral — no ack target,
      // so the real home keeps serving too and the split brain later
      // swap-cedes into a homeless cycle. Keep chasing via our own
      // view; the true home will endorse (cur_home) and bounce the
      // proposal back to us.
      if (meta->home == rank_) return;  // already home: nothing to do
      if (++hops > static_cast<uint8_t>(nprocs())) return;
      fwd_to = meta->home;
    } else if (rank_ == new_home) {
      // Adoption: only with a settled, complete copy — mapped, valid,
      // nothing pending, no mapping transition in flight, and valid to
      // at least the endorsing home's cut. The cut check is what makes
      // the handoff lossless: the home may have committed in place
      // (notice, no data on the chain) after our last refetch, and a
      // copy older than its cut would silently drop those words — the
      // late notice would then cede us right back and leave a homeless
      // pointer cycle. Anything less and we decline; the streak
      // re-triggers once the notice-driven refetch brings us current.
      accepted = meta->home != rank_ && !meta->inflight && !meta->migrating &&
                 meta->map == MapState::kMapped && meta->share == ShareState::kValid &&
                 meta->pending.empty() && meta->valid_epoch >= home_cut;
      if (accepted) {
        meta->home = rank_;
        dir_.bump_generation(id);  // home write: defeat stale ALB entries
        stats_.home_migrations.fetch_add(1, std::memory_order_relaxed);
        stats_.lock_migrations.fetch_add(1, std::memory_order_relaxed);
      }
      ack_home = cur_home >= 0 && cur_home != rank_;
    } else if (meta->home == rank_) {
      if (meta->migrating) return;  // one handoff at a time per object
      meta->migrating = true;
      cur_home = rank_;
      home_cut = meta->valid_epoch;  // the adopter must be valid to here
      fwd_to = new_home;
    } else {
      // Stale view (the manager's, or a chain of moves): chase our own
      // home pointer, bounded by distinct ranks. A dropped proposal is
      // harmless — the next streak re-proposes, the barrier re-plans.
      if (++hops > static_cast<uint8_t>(nprocs())) return;
      fwd_to = meta->home;
    }
  }
  if (fwd_to >= 0 && fwd_to != rank_) {
    net::Message fwd;
    fwd.type = net::MsgType::kHomeMigrate;
    fwd.dst = fwd_to;
    fwd.flow = id;
    net::Writer w(fwd.payload);
    w.u32(id);
    w.i32(new_home);
    w.i32(cur_home);
    w.u32(gen);
    w.u32(home_cut);
    w.u8(hops);
    ep_.send(std::move(fwd));
  }
  if (ack_home) {
    net::Message ack;
    ack.type = net::MsgType::kHomeMigrateAck;
    ack.dst = cur_home;
    ack.flow = id;
    net::Writer w(ack.payload);
    w.u32(id);
    w.i32(new_home);
    w.u32(gen);
    w.u8(accepted ? 1 : 0);
    ep_.send(std::move(ack));
  }
}

void Node::on_home_migrate_ack(net::Message&& m) {
  net::Reader r(m.payload);
  const ObjectId id = r.u32();
  const int32_t adopted_by = r.i32();
  const uint32_t gen = r.u32();
  const bool accepted = r.u8() != 0;
  if (gen != barrier_gen_.load(std::memory_order_relaxed)) return;  // crossed a barrier
  auto lk = dir_.lock_shard(id);
  ObjectMeta* meta = dir_.find(id);
  // `migrating` may already be clear: the adopter's home-commit notice
  // doubles as an implicit ack (acquire()'s home-conflict branch), and
  // barriers sweep the flag. A late real ack is then a no-op.
  if (!meta || !meta->migrating) return;
  meta->migrating = false;
  if (accepted && meta->home == rank_ && adopted_by >= 0 && adopted_by != rank_) {
    meta->home = adopted_by;
    dir_.bump_generation(id);  // home write: defeat stale ALB entries
  }
}

}  // namespace lots::core
