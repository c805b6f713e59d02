// HomeEngine: the home-placement policy (the barrier plan's rule, the
// lock manager's dominance streaks), the home transition, the object
// side of the lock protocol (what a grant's records, a release's flush
// and a write-invalidate push do to object state), the lock-driven
// handoff and the barrier plan's application.
#include "core/home.hpp"

#include <algorithm>
#include <map>

#include "core/runtime.hpp"

namespace lots::core {

net::Message HomeEngine::encode(const Proposal& p, int32_t dst) {
  net::Message m{.type = net::MsgType::kHomeMigrate, .dst = dst, .flow = p.id};
  net::Writer w(m.payload);
  w.u32(p.id);
  w.i32(p.new_home);
  w.i32(p.cur_home);
  w.u32(p.gen);
  w.u32(p.home_cut);
  w.u8(p.hops);
  return m;
}

bool HomeEngine::move_home(ObjectMeta& m, int32_t new_home) {
  m.migrating = false;
  if (m.home == new_home) return false;
  m.home = new_home;
  // Defeat sibling ALB entries that would ship diffs to the old home.
  node_.dir_.bump_generation(m.id);
  // An adopted home voids its predecessor's replicas: the next barrier's
  // ship_replicas sends OUR successors full images.
  if (new_home == node_.rank_) m.replica_cut = 0;
  return true;
}

bool HomeEngine::migrate_on() const {
  const Config& cfg = node_.config();
  // Replication declines lock-driven migration: the replica map is keyed
  // by the HOME, and a home that moves between barriers would leave its
  // objects' last shipped cut parked at the old home's backup while the
  // new home starts with no replica cut — a recovery in that window
  // would lose the interval. Homes still migrate at barriers, where
  // ship_replicas re-ships under the new map before the cut commits.
  return cfg.lock_migration && !cfg.replication &&
         (cfg.protocol == ProtocolMode::kMixed || cfg.protocol == ProtocolMode::kAdaptive);
}

// --- home placement (service thread) -----------------------------------------

std::vector<BarrierPlanEntry> HomeEngine::plan_barrier(
    const std::map<ObjectId, std::vector<int32_t>>& writers,
    const std::unordered_map<ObjectId, int32_t>& old_homes) {
  const bool adaptive = node_.config().protocol == ProtocolMode::kAdaptive;
  std::vector<BarrierPlanEntry> plan;
  plan.reserve(writers.size());
  for (const auto& [id, ws] : writers) {
    const bool multi = ws.size() > 1;
    // A writer can enter before the master's own app thread reached the
    // collective alloc of `id` (no home view, -1); the object then still
    // has the round-robin initial home alloc_object gives it.
    const int32_t seen = old_homes.at(id);
    const int32_t old_home = seen >= 0 ? seen : initial_home(id, node_.nprocs());
    // Fig. 6: a lone writer inherits the home (no data transfer); with
    // several writers the existing home arbitrates the merge.
    int32_t new_home = multi ? old_home : ws.front();
    // §5 adaptation — ping-pong damping: when the lone writer alternates
    // (w, x, w, ...), migrating the home bounces it right back next
    // barrier ("the bucket will be requested next by the process that
    // originally owns it"), so pin the home instead; the writer then
    // pushes a diff like any multi-writer would.
    if (adaptive && !multi && writer_hist_[id].ping_pong(ws.front())) new_home = old_home;
    if (new_home != old_home) {
      node_.stats_.home_migrations.fetch_add(1, std::memory_order_relaxed);
    }
    plan.push_back({id, new_home});
  }
  return plan;
}

std::vector<net::Message> HomeEngine::on_release_writes(int32_t src,
                                                        const std::vector<ObjectId>& mods) {
  std::vector<net::Message> proposals;
  if (!migrate_on()) return proposals;
  const uint32_t gen = this->gen();
  for (const ObjectId id : mods) {
    const int32_t home_view = node_.home_of(id);
    if (home_view < 0) continue;
    MigrateStreak& st = migrate_streaks_[id];
    // A barrier or view repair since the streak's last release voids its
    // old-home observations. The HISTORY survives: ping-ponging writers
    // commonly alternate across barriers (the paper's RX shape), and
    // wiping the A-B-A record would re-arm the bounce damping stops.
    if (st.gen != gen) st = {.gen = gen, .hist = st.hist};
    if (st.last_writer == src) {
      ++st.streak;
    } else {
      st.last_writer = src;
      st.streak = 1;
    }
    if (st.streak < node_.config().migrate_streak || src == home_view) continue;
    // Dominance threshold reached. Damping, the barrier plan's rule: a
    // writer that alternates with the previous migration target (A→B→A)
    // is ping-ponging — pin the home instead of bouncing it.
    const bool damped = st.hist.ping_pong(src);
    st.streak = 0;  // cooldown either way: re-earn the streak
    if (damped) continue;
    // The current home endorses; the chase starts from our view.
    proposals.push_back(encode({.id = id, .new_home = src, .gen = gen}, home_view));
  }
  return proposals;
}

// --- the object side of the lock protocol -------------------------------------

void HomeEngine::drop_copy(ObjectMeta& m) {
  if (m.share != ShareState::kValid) return;
  m.share = ShareState::kInvalid;
  m.pending.clear();
  node_.dir_.bump_generation(m.id);  // defeat sibling ALB entries
  node_.stats_.invalidations.fetch_add(1, std::memory_order_relaxed);
}

void HomeEngine::apply_grant_record(const DiffRecord& rec, bool invalidate_only) {
  Node& n = node_;
  auto lk = n.dir_.lock_shard(rec.object);
  ObjectMeta* m = n.dir_.find(rec.object);
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
    //
    // Home conflict: when we believe we are the home, a notice naming
    // another node says it committed AS home beyond our cut — it adopted
    // in a handoff we proposed (or one that chased past us). Cede the
    // same way, treating the notice as the handoff ack.
    if (m->valid_epoch >= rec.epoch) return;
    if (m->home == n.rank_ && rec.home_hint == n.rank_) return;
    move_home(*m, rec.home_hint);
    drop_copy(*m);
    return;
  }
  if (invalidate_only) {
    // Write-invalidate ablation: drop our copy; the release already
    // pushed the data to the object's home.
    if (m->home != n.rank_) drop_copy(*m);
    return;
  }
  // Write-update: apply immediately if mapped, else defer to map-in.
  if (m->map == MapState::kMapped) {
    n.coherence_.apply_incoming(*m, rec);
  } else {
    m->pending.push_back(rec);
    n.dir_.bump_generation(rec.object);  // pending landing: no fast path
  }
}

std::vector<ObjectId> HomeEngine::commit_in_place(std::vector<DiffRecord>& recs) {
  std::vector<ObjectId> mods;
  if (!migrate_on()) return mods;
  Node& n = node_;
  for (auto& rec : recs) {
    mods.push_back(rec.object);
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
    auto lk = n.dir_.lock_shard(rec.object);
    ObjectMeta* m = n.dir_.find(rec.object);
    if (m && m->home == n.rank_ && !m->migrating && m->map == MapState::kMapped &&
        m->share == ShareState::kValid && m->pending.empty()) {
      m->valid_epoch = std::max(m->valid_epoch, rec.epoch);
      DiffRecord notice;
      notice.object = rec.object;
      notice.epoch = rec.epoch;
      notice.home_hint = n.rank_;
      rec = std::move(notice);
      n.stats_.home_commit_notices.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return mods;
}

void HomeEngine::push_to_homes(std::vector<DiffRecord>&& recs) {
  // Batched into ONE kDiffBatch per peer, acked so a post-invalidation
  // fetch cannot miss them.
  Node& n = node_;
  std::map<int32_t, std::vector<DiffRecord>> by_home;
  for (auto& rec : recs) {
    int32_t home;
    {
      auto lk = n.dir_.lock_shard(rec.object);
      ObjectMeta& m = n.dir_.get(rec.object);
      home = m.home;
      if (home == n.rank_) m.valid_epoch = std::max(m.valid_epoch, rec.epoch);  // in place
    }
    if (home != n.rank_) by_home[home].push_back(std::move(rec));
  }
  auto outs = CoherenceEngine::build_diff_batches(by_home, n.stats_);
  for (auto& msg : outs) n.ep_.request(std::move(msg));  // acked; no locks held
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
//    the lock (apply_grant_record's home-conflict cede) or at the
//    barrier.

void HomeEngine::on_home_migrate(net::Message&& m) {
  Node& n = node_;
  // Belt to migrate_on's suspenders: replication pins homes
  // between barriers, so a proposal from a mixed-config peer is dropped
  // rather than moving a home out from under its replica map.
  if (n.config().replication) return;
  net::Reader r(m.payload);
  Proposal p{r.u32(), r.i32(), r.i32(), r.u32(), r.u32(), r.u8()};  // braces: read in order
  if (p.gen != gen()) return;  // crossed a barrier
  int32_t fwd_to = -1;
  bool accepted = false;
  bool ack_home = false;
  {
    auto lk = n.dir_.lock_shard(p.id);
    ObjectMeta* meta = n.dir_.find(p.id);
    if (!meta) return;
    if (n.rank_ == p.new_home && p.cur_home < 0) {
      // The chase hit us through a stale pointer BEFORE reaching the
      // true home. Adopting here would be unilateral — no ack target,
      // so the real home keeps serving too and the split brain later
      // swap-cedes into a homeless cycle. Keep chasing via our own
      // view; the true home will endorse (cur_home) and bounce the
      // proposal back to us.
      if (meta->home == n.rank_) return;  // already home: nothing to do
      if (++p.hops > static_cast<uint8_t>(n.nprocs())) return;
      fwd_to = meta->home;
    } else if (n.rank_ == p.new_home) {
      // Adoption: only with a settled, complete copy — mapped, valid,
      // nothing pending, no mapping transition in flight, and valid to
      // at least the endorsing home's cut. The cut check is what makes
      // the handoff lossless: the home may have committed in place
      // (notice, no data on the chain) after our last refetch, and a
      // copy older than its cut would silently drop those words — the
      // late notice would then cede us right back and leave a homeless
      // pointer cycle. Anything less and we decline; the streak
      // re-triggers once the notice-driven refetch brings us current.
      accepted = meta->home != n.rank_ && !meta->inflight && !meta->migrating &&
                 meta->map == MapState::kMapped && meta->share == ShareState::kValid &&
                 meta->pending.empty() && meta->valid_epoch >= p.home_cut;
      if (accepted) {
        move_home(*meta, n.rank_);
        n.stats_.home_migrations.fetch_add(1, std::memory_order_relaxed);
        n.stats_.lock_migrations.fetch_add(1, std::memory_order_relaxed);
      }
      ack_home = p.cur_home >= 0 && p.cur_home != n.rank_;
    } else if (meta->home == n.rank_) {
      if (meta->migrating) return;  // one handoff at a time per object
      meta->migrating = true;
      p.cur_home = n.rank_;
      p.home_cut = meta->valid_epoch;  // the adopter must be valid to here
      fwd_to = p.new_home;
    } else {
      // Stale view (the manager's, or a chain of moves): chase our own
      // home pointer, bounded by distinct ranks. A dropped proposal is
      // harmless — the next streak re-proposes, the barrier re-plans.
      if (++p.hops > static_cast<uint8_t>(n.nprocs())) return;
      fwd_to = meta->home;
    }
  }
  if (fwd_to >= 0 && fwd_to != n.rank_) n.ep_.send(encode(p, fwd_to));
  if (ack_home) {
    net::Message ack{.type = net::MsgType::kHomeMigrateAck, .dst = p.cur_home, .flow = p.id};
    net::Writer w(ack.payload);
    w.u32(p.id);
    w.i32(p.new_home);
    w.u32(p.gen);
    w.u8(accepted ? 1 : 0);
    n.ep_.send(std::move(ack));
  }
}

void HomeEngine::on_home_migrate_ack(net::Message&& m) {
  Node& n = node_;
  net::Reader r(m.payload);
  const ObjectId id = r.u32();
  const int32_t adopted_by = r.i32();
  const uint32_t gen = r.u32();
  const bool accepted = r.u8() != 0;
  if (gen != this->gen()) return;  // crossed a barrier
  auto lk = n.dir_.lock_shard(id);
  ObjectMeta* meta = n.dir_.find(id);
  // `migrating` may already be clear: the adopter's home-commit notice
  // doubles as an implicit ack (apply_grant_record's home-conflict
  // cede), and barriers sweep the flag. A late real ack is then a
  // no-op.
  if (!meta || !meta->migrating) return;
  const bool flip =
      accepted && meta->home == n.rank_ && adopted_by >= 0 && adopted_by != n.rank_;
  move_home(*meta, flip ? adopted_by : meta->home);  // a decline only settles
}

// --- the barrier plan ---------------------------------------------------------

void HomeEngine::apply_barrier_plan(const std::vector<BarrierPlanEntry>& plan,
                                    uint32_t new_epoch) {
  Node& n = node_;
  // Fence the lock-driven migration machinery FIRST: kHomeMigrate /
  // kHomeMigrateAck messages stamped with the old generation are dropped
  // from here on, so no handoff decided against pre-barrier state can
  // land after the plan (which re-decides every modified object's home
  // from the master's global view) — and every dominance streak restarts.
  fence();
  const bool write_update_everywhere = n.config().protocol == ProtocolMode::kWriteUpdateOnly;
  std::vector<ObjectId> adopt_remote;
  for (const auto& e : plan) {
    auto lk = n.dir_.lock_shard(e.object);
    ObjectMeta* m = n.dir_.find(e.object);
    if (!m) continue;
    if (write_update_everywhere) {
      // Updates were broadcast; everyone stays valid, homes do not move.
      m->valid_epoch = new_epoch;
      continue;
    }
    // Any half-done lock-driven handoff dies with the plan (a migrated
    // object is by definition modified, so the plan always covers it).
    const bool moved = move_home(*m, e.new_home);
    if (e.new_home == n.rank_) {
      m->share = ShareState::kValid;
      m->valid_epoch = new_epoch;
      // A home must answer fetches from local state. If our only copy
      // is parked on the swap buddy (spilled after the writing interval
      // flushed), pull it back before reporting done — otherwise the
      // fetch service would serve zeros.
      if (m->on_remote) adopt_remote.push_back(e.object);
    } else {
      if (m->share == ShareState::kValid) {
        n.stats_.invalidations.fetch_add(1, std::memory_order_relaxed);
      }
      if (m->prefetched) {
        // A warmed copy nobody accessed before it went stale again.
        m->prefetched = false;
        n.stats_.prefetch_wasted.fetch_add(1, std::memory_order_relaxed);
      }
      m->share = ShareState::kInvalid;
      // All app threads are parked in the barrier collective, so no ALB
      // hit can race this; the bump (move_home's, when the home moved)
      // still defeats their cached entries the moment they resume (belt
      // to the epoch-stamp suspenders).
      if (!moved) n.dir_.bump_generation(e.object);
      // The stale copy (and its word stamps) is retained as a diff base
      // while it stays mapped; valid_epoch still names its global cut.
      m->pending.clear();
    }
  }
  // Adopt remotely parked images for objects we just became home of.
  // Runs before barrier() reports done, so no fetch can observe a home
  // without its data (the buddy's service thread answers kSwapGet from
  // disk state alone, so this cannot deadlock the rendezvous).
  for (ObjectId id : adopt_remote) {
    auto lk = n.dir_.lock_shard(id);
    ObjectMeta* m = n.dir_.find(id);
    if (m && m->on_remote) n.mapper_.rehydrate_remote(*m, lk);
  }
  n.coherence_.end_barrier(new_epoch);  // every written object is planned: drop the marks
  n.sync_.barrier_cut();  // scope chains restart
  n.epoch_.store(new_epoch, std::memory_order_relaxed);
}

}  // namespace lots::core
