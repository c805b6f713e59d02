// Lock synchronization: homeless write-update under Scope Consistency
// (paper §3.4).
//
// Each lock has a static *manager* (lock_id % nprocs, walked forward to
// the next ALIVE rank after a manager death) that serializes
// acquisitions, and a *token* that parks at the last releaser. The token
// carries the lock's scope update chain — the DiffRecords produced in
// critical sections guarded by this lock since the last barrier. A grant
// moves the token (and chain) directly from the previous holder to the
// next acquirer, which applies the updates immediately: write-update,
// with no home involved (homeless).
//
// Chain representation follows Config::diff_mode:
//  * kPerWordTimestamp — the chain is compacted at every release to one
//    last-value-per-word record per object (paper §3.5: outdated data is
//    never re-sent).
//  * kAccumulatedRecords — every interval's record is retained and
//    re-transmitted with each grant: the TreadMarks-style *diff
//    accumulation* the paper eliminates, kept for the ablation bench.
//
// In the kWriteInvalidateOnly ablation mode a release instead pushes the
// merged updates to each object's home and the chain carries only
// invalidation notices (empty records); acquirers invalidate and refetch
// on access.
//
// Locking: protocol bookkeeping (tokens_, managed_locks_, lock_waits_)
// sits under the node-level sync_mu_; object-state effects (applying a
// grant's updates, invalidations) take only the affected object's
// directory-shard lock, never while sync_mu_ is held. A token being
// released is mutated without sync_mu_: the manager cannot forward it
// until our kLockRelease message lands, so no grant for it can race.
//
// N app threads per node: same-lock acquires from one node first
// serialize on a node-local per-lock mutex (held from acquire through
// release, giving intra-node mutual exclusion), so at most one thread
// per node is inside the manager protocol for a given lock — the
// single-slot lock_waits_/tokens_ bookkeeping is preserved. Different
// locks proceed concurrently from different threads; the interval epoch
// is atomic for exactly that reason.
#include <cstdio>
#include <cstdlib>
#include <map>

#include "core/runtime.hpp"

namespace lots::core {
namespace {

/// LOTS_DEBUG_HOME=1: trace every home-pointer event (adoption, cede,
/// repair, ack, notice) to stderr. Diagnostic only — the migration
/// protocol is all one-way messages, so post-mortem event order is the
/// main debugging tool.
bool home_debug() {
  static const bool on = std::getenv("LOTS_DEBUG_HOME") != nullptr;
  return on;
}

/// Groups records by object and merges each group (last value per word).
/// The word entries the merge drops are exactly what the accumulated
/// mode would have re-sent (NodeStats::merge_redundant_words).
///
/// Home-commit notices (DiffRecord::home_hint ≥ 0, lock-driven adaptive
/// migration) compact separately: only the newest notice per object
/// survives, and the merged data record is filtered down to words
/// stamped strictly AFTER it — a word ts ≤ the notice epoch was flushed
/// no later than the committing release, so the home copy the notice
/// advertises already holds it (epochs are Lamport-ordered along the
/// token chain). The notice is emitted FIRST: the acquirer's notice
/// handling may clear the object's pending queue, which must not erase
/// the data record the same grant parks right after it.
std::vector<DiffRecord> compact_chain(std::vector<DiffRecord>& chain, NodeStats& stats) {
  std::map<ObjectId, std::vector<DiffRecord>> by_obj;
  for (auto& rec : chain) by_obj[rec.object].push_back(std::move(rec));
  std::vector<DiffRecord> out;
  out.reserve(by_obj.size());
  uint64_t redundant = 0;
  for (auto& [id, recs] : by_obj) {
    DiffRecord notice;
    bool have_notice = false;
    std::vector<DiffRecord> data;
    for (auto& rec : recs) {
      if (rec.home_hint >= 0) {
        if (!have_notice || rec.epoch > notice.epoch) notice = std::move(rec);
        have_notice = true;
      } else {
        data.push_back(std::move(rec));
      }
    }
    DiffRecord merged;
    if (!data.empty()) {
      merged = merge_records(data, /*since_epoch=*/have_notice ? notice.epoch : 0, &redundant);
    }
    if (have_notice) out.push_back(std::move(notice));
    if (!merged.word_idx.empty()) out.push_back(std::move(merged));
  }
  stats.merge_redundant_words.fetch_add(redundant, std::memory_order_relaxed);
  return out;
}

}  // namespace

std::mutex& Node::local_lock_mutex(uint32_t lock_id) {
  std::lock_guard sl(sync_mu_);
  auto& slot = local_lock_mu_[lock_id];
  if (!slot) slot = std::make_unique<std::mutex>();
  return *slot;
}

void Node::acquire(uint32_t lock_id) {
  // Unrecovered death notice: unwind before queueing on the local mutex
  // (a sibling that unwound inside its critical section may still hold
  // it until the application recovers).
  check_death();
  // Intra-node mutual exclusion first: a sibling app thread holding the
  // same DSM lock blocks us here, not inside the manager protocol. The
  // guard unlocks if the protocol throws (request timeout, usage
  // error) — a leaked mutex would hang every sibling behind a dead
  // lock; on success it is released un-unlocked and stays held until
  // release() (same thread).
  std::unique_lock local(local_lock_mutex(lock_id));
  // Live-aware managership: the static hash rank, walked forward past
  // dead ranks — after a manager's death, survivors agree on its ring
  // successor, which mints fresh state on first touch.
  const int32_t manager = static_cast<int32_t>(manager_of(lock_id));
  const uint32_t my_epoch = epoch_.load(std::memory_order_relaxed);
  {
    // Register the wait and gate on the view in ONE sync_mu_ section:
    // on_peer_dead moves the view before its lock-wait sweep takes this
    // mutex, so a death is either seen by the gate or fails the slot.
    // The gate throws before the slot exists, leaving nothing behind.
    std::lock_guard sl(sync_mu_);
    check_death();
    lock_waits_[lock_id] = LockWait{};
  }
  net::Message req;
  req.type = net::MsgType::kLockAcquire;
  req.dst = manager;
  // Every message about one lock shares flow = lock_id: on a striped
  // transport our earlier kLockRelease to this manager must land before
  // this re-acquire, or the manager would forward a token we still hold.
  req.flow = lock_id;
  net::Writer w(req.payload);
  w.u32(lock_id);
  w.u32(my_epoch);
  ep_.send(std::move(req));

  net::Message grant;
  {
    std::unique_lock sl(sync_mu_);
    lock_cv_.wait(sl, [&] {
      const LockWait& wslot = lock_waits_[lock_id];
      return wslot.granted || wslot.failed >= 0;
    });
    LockWait& wslot = lock_waits_[lock_id];
    if (!wslot.granted) {
      // A peer died while we waited (on_peer_dead failed every
      // non-granted wait): unwind to the application's recovery handler.
      // `local` unlocks on the throw, so siblings are not wedged.
      const int dead = wslot.failed;
      lock_waits_.erase(lock_id);
      throw WorkerDied(dead, "worker " + std::to_string(dead) +
                                 " died while this thread waited on lock " +
                                 std::to_string(lock_id));
    }
    grant = std::move(wslot.grant);
    lock_waits_.erase(lock_id);
  }

  // Decode the token: {lock, holder_epoch, is_notice, nrecs, records}.
  // Updates are applied under each object's shard lock only — another
  // lock's grant or a fetch for an unrelated object proceeds in parallel.
  net::Reader r(grant.payload);
  r.u32();  // lock id (already known)
  const uint32_t holder_epoch = r.u32();
  const bool is_notice = r.u8() != 0;
  const uint32_t nrecs = r.u32();
  LockToken tok;
  tok.epoch = holder_epoch;
  for (uint32_t i = 0; i < nrecs; ++i) {
    const uint8_t flags = r.u8();
    if (flags == 1) {
      // Home-commit notice (lock-driven adaptive migration): the hinted
      // node is the object's home and committed writes up to rec.epoch
      // locally instead of shipping them on the chain. Repair a stale
      // home view FIRST — the post-invalidation refetch must go to the
      // committing home, not wherever we last believed the home was —
      // then invalidate a copy that predates the commit.
      DiffRecord rec;
      rec.object = r.u32();
      rec.epoch = r.u32();
      rec.home_hint = r.i32();
      {
        auto lk = dir_.lock_shard(rec.object);
        ObjectMeta* m = dir_.find(rec.object);
        // Only a notice NEWER than our own cut is news. The token is
        // serial, so any state we hold at valid_epoch >= rec.epoch was
        // built with this commit already visible — acting on the stale
        // hint anyway would, e.g., cede a freshly adopted home back to
        // the PREVIOUS home (whose pointer already names us) and leave
        // a two-node view cycle with no home at all.
        if (m && rec.home_hint >= 0 && m->valid_epoch < rec.epoch) {
          if (m->home != rank_) {
            if (m->home != rec.home_hint) {
              if (home_debug()) {
                fprintf(stderr, "[home r%d] repair obj=%u %d->%d (e=%u cut=%u)\n", rank_,
                        rec.object, m->home, rec.home_hint, rec.epoch, m->valid_epoch);
              }
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
            // Home conflict: we believe we are the home, but the chain
            // says the hinted node committed AS home beyond our cut —
            // it adopted in a handoff we proposed (or one that chased
            // past us). Cede: flip the pointer, drop the pre-commit
            // copy, and treat the notice as the handoff ack.
            if (home_debug()) {
              fprintf(stderr, "[home r%d] cede obj=%u self->%d (e=%u cut=%u mig=%d)\n", rank_,
                      rec.object, rec.home_hint, rec.epoch, m->valid_epoch, (int)m->migrating);
            }
            m->home = rec.home_hint;
            m->migrating = false;
            dir_.bump_generation(rec.object);
            if (m->share == ShareState::kValid) {
              m->share = ShareState::kInvalid;
              m->pending.clear();
              stats_.invalidations.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      }
      tok.chain.push_back(std::move(rec));
      continue;
    }
    DiffRecord rec = decode_record(r);
    if (is_notice) {
      // Write-invalidate ablation: drop our copy; the release already
      // pushed the data to the object's home.
      auto lk = dir_.lock_shard(rec.object);
      ObjectMeta* m = dir_.find(rec.object);
      if (m && m->home != rank_ && m->share == ShareState::kValid) {
        m->share = ShareState::kInvalid;
        m->pending.clear();
        dir_.bump_generation(rec.object);  // defeat sibling ALB entries
        stats_.invalidations.fetch_add(1, std::memory_order_relaxed);
      }
      lk.unlock();
      tok.chain.push_back(std::move(rec));  // notices stay in the chain
      continue;
    }
    // Write-update: apply immediately if mapped, else defer to map-in.
    {
      auto lk = dir_.lock_shard(rec.object);
      ObjectMeta* m = dir_.find(rec.object);
      if (m) {
        if (m->map == MapState::kMapped) {
          coherence_.apply_incoming(*m, rec);
        } else {
          m->pending.push_back(rec);
          dir_.bump_generation(rec.object);  // pending landing: no fast path
        }
      }
    }
    tok.chain.push_back(std::move(rec));  // the chain travels with the token
  }
  {
    std::lock_guard sl(sync_mu_);
    tokens_[lock_id] = std::move(tok);
  }
  // epoch_ = max(epoch_, holder_epoch) + 1, racing only against sibling
  // threads' own acquire/release epoch bumps.
  uint32_t cur = epoch_.load(std::memory_order_relaxed);
  while (!epoch_.compare_exchange_weak(cur, std::max(cur, holder_epoch) + 1,
                                       std::memory_order_relaxed)) {
  }
  stats_.lock_acquires.fetch_add(1, std::memory_order_relaxed);
  local.release();  // held into the critical section; release() unlocks
}

void Node::release(uint32_t lock_id) {
  const int32_t manager = static_cast<int32_t>(manager_of(lock_id));
  LockToken* tok = nullptr;
  {
    std::lock_guard sl(sync_mu_);
    auto it = tokens_.find(lock_id);
    // Checked BEFORE touching the local mutex: a release without a
    // matching acquire never locked it, so there is nothing to unlock.
    LOTS_CHECK(it != tokens_.end(), "release of a lock this node does not hold");
    tok = &it->second;  // stable address; see file comment on release races
  }
  // From here the calling thread owns the local mutex (its acquire
  // locked it); unlock on EVERY exit, including a throw mid-flush or
  // mid-send.
  std::unique_lock local(local_lock_mutex(lock_id), std::adopt_lock);
  // Flush the twins this thread's access checks touched (twin_writers):
  // its critical-section writes ship on THIS token even into twins a
  // sibling created, while a sibling's disjoint mid-critical-section
  // objects stay out of this lock's scope chain (the sibling's own
  // release ships them on the right token).
  const uint32_t flush_epoch = epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::vector<DiffRecord> recs =
      coherence_.flush_interval(flush_epoch, Runtime::thread_index());
  tok->epoch = flush_epoch;

  const Config& cfg = rt_.config();
  // Replication declines lock-driven migration: the replica map is keyed
  // by the HOME, and a home that moves between barriers would leave its
  // objects' last shipped cut parked at the old home's backup while the
  // new home starts from an empty watermark — a recovery in that window
  // would lose the interval. Homes still migrate at barriers, where
  // ship_replicas re-ships under the new map before the cut commits.
  const bool migrate_on = cfg.lock_migration && !cfg.replication &&
                          (cfg.protocol == ProtocolMode::kMixed ||
                           cfg.protocol == ProtocolMode::kAdaptive);
  std::vector<ObjectId> mods;
  if (migrate_on) {
    mods.reserve(recs.size());
    for (auto& rec : recs) {
      mods.push_back(rec.object);
      // Home-commit conversion: when the releaser IS the object's home
      // and its copy is settled (mapped, valid, nothing pending), the
      // interval's writes are already committed in place — the home copy
      // is the protocol's source of truth, so the chain carries a ~13 B
      // notice (object, epoch, home hint) instead of the data. This is
      // where migration pays: post-adoption, the dominant writer's
      // releases stop re-shipping its own diffs around the token loop.
      // Mid-handoff (`migrating`) the conversion is OFF: a notice from
      // the ceding home could race its own handoff ack — the adopter
      // cedes back on the notice while the delayed ack flips us forward,
      // and the two views swap into a cycle with no home at all. Plain
      // data records are always safe, just bigger.
      auto lk = dir_.lock_shard(rec.object);
      ObjectMeta* m = dir_.find(rec.object);
      if (m && m->home == rank_ && !m->migrating && m->map == MapState::kMapped &&
          m->share == ShareState::kValid && m->pending.empty()) {
        m->valid_epoch = std::max(m->valid_epoch, rec.epoch);
        DiffRecord notice;
        notice.object = rec.object;
        notice.epoch = rec.epoch;
        notice.home_hint = rank_;
        if (home_debug()) {
          fprintf(stderr, "[home r%d] notice obj=%u e=%u\n", rank_, notice.object, notice.epoch);
        }
        rec = std::move(notice);
        stats_.home_commit_notices.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  if (cfg.protocol == ProtocolMode::kWriteInvalidateOnly) {
    push_release_updates_home_based(*tok, std::move(recs));
  } else {
    for (auto& rec : recs) tok->chain.push_back(std::move(rec));
    if (cfg.diff_mode == DiffMode::kPerWordTimestamp) {
      // §3.5: keep only the latest value of every field.
      tok->chain = compact_chain(tok->chain, stats_);
    }
  }

  net::Message rel;
  rel.type = net::MsgType::kLockRelease;
  rel.dst = manager;
  rel.flow = lock_id;  // FIFO with this node's later re-acquire
  net::Writer w(rel.payload);
  w.u32(lock_id);
  if (migrate_on && !mods.empty()) {
    // Dominance piggyback: the ids this release modified, capped — the
    // manager only needs enough signal to spot single-writer streaks.
    constexpr size_t kMaxMods = 64;
    const uint32_t n = static_cast<uint32_t>(std::min(mods.size(), kMaxMods));
    w.u32(n);
    for (uint32_t i = 0; i < n; ++i) w.u32(mods[i]);
  }
  ep_.send(std::move(rel));
}  // `local` unlocks, admitting the next sibling thread

/// Write-invalidate ablation: merged release updates go to each object's
/// home — batched into ONE kDiffBatch per peer, acked so a
/// post-invalidation fetch cannot miss them; the token chain receives
/// one empty "notice" record per modified object.
void Node::push_release_updates_home_based(LockToken& tok, std::vector<DiffRecord>&& recs) {
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
    DiffRecord notice;
    notice.object = rec.object;
    notice.epoch = rec.epoch;
    bool dup = false;
    for (auto& existing : tok.chain) {
      if (existing.object == rec.object) {
        existing.epoch = rec.epoch;
        dup = true;
        break;
      }
    }
    if (!dup) tok.chain.push_back(std::move(notice));
    if (home != rank_) by_home[home].push_back(std::move(rec));
  }
  auto outs = CoherenceEngine::build_diff_batches(by_home, stats_);
  for (auto& msg : outs) ep_.request(std::move(msg));  // acked; no locks held
}

// --- manager side (service thread) -----------------------------------------

void Node::on_lock_acquire(net::Message&& m) {
  net::Reader r(m.payload);
  const uint32_t lock_id = r.u32();
  const uint32_t acq_epoch = r.u32();
  std::unique_lock lk(sync_mu_);
  ManagerState& s = managed_locks_[lock_id];
  if (s.token_at < 0) {
    s.token_at = rank_;  // token is born at the manager, chain empty
    tokens_.emplace(lock_id, LockToken{});
  }
  if (s.busy) {
    s.waiters.push_back(std::move(m));
    return;
  }
  s.busy = true;
  s.granted_to = m.src;
  if (s.token_at == rank_) {
    send_grant_locked(lock_id, m.src, acq_epoch);
  } else {
    net::Message fwd;
    fwd.type = net::MsgType::kLockForward;
    fwd.dst = s.token_at;
    fwd.flow = lock_id;  // one FIFO per lock across the whole protocol
    net::Writer w(fwd.payload);
    w.u32(lock_id);
    w.i32(m.src);
    w.u32(acq_epoch);
    lk.unlock();
    ep_.send(std::move(fwd));
  }
}

void Node::on_lock_release(net::Message&& m) {
  net::Reader r(m.payload);
  const uint32_t lock_id = r.u32();
  const Config& cfg = rt_.config();
  // Mirrors release(): under replication the releaser never writes the
  // dominance piggyback, so the manager must not try to read it.
  const bool migrate_on = cfg.lock_migration && !cfg.replication &&
                          (cfg.protocol == ProtocolMode::kMixed ||
                           cfg.protocol == ProtocolMode::kAdaptive);
  // Dominance piggyback: (id, this node's home view) pairs. Home views
  // come from the shard locks BEFORE sync_mu_ (lock order, as
  // on_barrier_enter does); releases without the piggyback (migration
  // off, or an older sender) leave the reader empty.
  std::vector<std::pair<ObjectId, int32_t>> mods;
  if (migrate_on && r.remaining()) {
    const uint32_t n = r.u32();
    mods.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      const ObjectId id = r.u32();
      auto olk = dir_.lock_shard(id);
      if (const ObjectMeta* om = dir_.find(id)) mods.emplace_back(id, om->home);
    }
  }
  std::vector<net::Message> proposals;
  std::unique_lock lk(sync_mu_);
  if (!mods.empty()) {
    const uint32_t gen = barrier_gen_.load(std::memory_order_relaxed);
    for (const auto& [id, home_view] : mods) {
      MigrateStreak& st = migrate_streaks_[id];
      if (st.last_writer == m.src) {
        ++st.streak;
      } else {
        st.last_writer = m.src;
        st.streak = 1;
      }
      if (st.streak < cfg.migrate_streak || m.src == home_view || home_view < 0) continue;
      // Dominance threshold reached. Damping, exactly the barrier
      // master's writer_hist shape: a writer that alternates with the
      // previous migration target (A→B→A) is ping-ponging — pin the
      // home instead of bouncing it.
      const int32_t cur = m.src;
      const bool damped = st.hist.first != cur && st.hist.second == cur;
      st.hist = {cur, st.hist.first};
      st.streak = 0;  // cooldown either way: re-earn the streak
      if (home_debug()) {
        fprintf(stderr, "[home r%d] propose obj=%u new=%d dst=%d damped=%d\n", rank_, id, cur,
                home_view, (int)damped);
      }
      if (damped) continue;
      net::Message mig;
      mig.type = net::MsgType::kHomeMigrate;
      mig.dst = home_view;  // chases the home chain from our view
      mig.flow = id;
      net::Writer w(mig.payload);
      w.u32(id);
      w.i32(cur);       // proposed new home: the dominant writer
      w.i32(-1);        // current home fills itself in when forwarding
      w.u32(gen);       // dropped if a barrier intervenes
      w.u32(0);         // home cut: the endorsing home's valid_epoch
      w.u8(0);          // stale-view chase hops
      proposals.push_back(std::move(mig));
    }
  }
  ManagerState& s = managed_locks_[lock_id];
  s.token_at = m.src;
  s.busy = false;
  s.granted_to = -1;
  // One-way proposal sends; sending under sync_mu_ is the
  // send_grant_locked precedent (delivery is queued, never inline).
  for (auto& p : proposals) ep_.send(std::move(p));
  if (s.waiters.empty()) return;
  net::Message next = std::move(s.waiters.front());
  s.waiters.erase(s.waiters.begin());
  s.busy = true;
  s.granted_to = next.src;
  net::Reader nr(next.payload);
  const uint32_t nlock = nr.u32();
  const uint32_t nepoch = nr.u32();
  if (s.token_at == rank_) {
    send_grant_locked(nlock, next.src, nepoch);
    return;
  }
  net::Message fwd;
  fwd.type = net::MsgType::kLockForward;
  fwd.dst = s.token_at;
  fwd.flow = nlock;  // one FIFO per lock across the whole protocol
  net::Writer w(fwd.payload);
  w.u32(nlock);
  w.i32(next.src);
  w.u32(nepoch);
  lk.unlock();
  ep_.send(std::move(fwd));
}

// --- token holder side (service thread) ------------------------------------

void Node::on_lock_forward(net::Message&& m) {
  net::Reader r(m.payload);
  const uint32_t lock_id = r.u32();
  const int32_t acquirer = r.i32();
  const uint32_t acq_epoch = r.u32();
  std::unique_lock lk(sync_mu_);
  send_grant_locked(lock_id, acquirer, acq_epoch);
}

/// Caller holds sync_mu_.
void Node::send_grant_locked(uint32_t lock_id, int32_t to, uint32_t /*acq_epoch*/) {
  auto it = tokens_.find(lock_id);
  LOTS_CHECK(it != tokens_.end(), "lock forward reached a node without the token");
  LockToken tok = std::move(it->second);
  tokens_.erase(it);

  net::Message g;
  g.type = net::MsgType::kLockGrant;
  g.dst = to;
  g.flow = lock_id;  // one FIFO per lock across the whole protocol
  net::Writer w(g.payload);
  w.u32(lock_id);
  w.u32(tok.epoch);
  w.u8(rt_.config().protocol == ProtocolMode::kWriteInvalidateOnly ? 1 : 0);
  w.u32(static_cast<uint32_t>(tok.chain.size()));
  const size_t before = g.payload.size();
  uint64_t saved = 0;
  for (const auto& rec : tok.chain) {
    // Per-record flags byte: 0 = a diff record (encode_record — also the
    // write-invalidate mode's empty notices, covered by the global
    // is_notice), 1 = a home-commit notice (lock-driven migration),
    // which carries no words and names the committing home.
    if (rec.home_hint >= 0) {
      w.u8(1);
      w.u32(rec.object);
      w.u32(rec.epoch);
      w.i32(rec.home_hint);
      continue;
    }
    w.u8(0);
    saved += encode_record(w, rec);
    stats_.diff_words_sent.fetch_add(rec.words(), std::memory_order_relaxed);
  }
  stats_.diff_payload_bytes.fetch_add(g.payload.size() - before, std::memory_order_relaxed);
  stats_.diff_bytes_saved.fetch_add(saved, std::memory_order_relaxed);
  ep_.send(std::move(g));
}

// --- acquirer side (service thread): park the grant for the app ------------

void Node::on_lock_grant(net::Message&& m) {
  net::Reader r(m.payload);
  const uint32_t lock_id = r.u32();
  std::unique_lock lk(sync_mu_);
  auto it = lock_waits_.find(lock_id);
  if (it == lock_waits_.end()) {
    // After a death notice this is expected: the waiting thread already
    // unwound with WorkerDied (on_peer_dead failed its wait) and a grant
    // minted before the notice landed late. The token it carries is void
    // — recovery re-mints every lock. With no death in sight it is a
    // protocol bug, as before.
    LOTS_CHECK(view() > 0, "unsolicited lock grant");
    return;
  }
  it->second.grant = std::move(m);
  it->second.granted = true;
  lock_cv_.notify_all();
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
      if (home_debug()) {
        fprintf(stderr, "[home r%d] unendorsed-chase obj=%u new=%d via=%d hops=%u\n", rank_, id,
                new_home, meta->home, (unsigned)hops);
      }
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
      if (home_debug()) {
        fprintf(stderr,
                "[home r%d] adopt obj=%u cur=%d ok=%d (view=%d infl=%d mig=%d share=%d cut=%u "
                "need=%u)\n",
                rank_, id, cur_home, (int)accepted, meta->home, (int)meta->inflight,
                (int)meta->migrating, (int)meta->share, meta->valid_epoch, home_cut);
      }
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
      if (home_debug()) {
        fprintf(stderr, "[home r%d] endorse obj=%u new=%d\n", rank_, id, new_home);
      }
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
  if (home_debug()) {
    fprintf(stderr, "[home r%d] ack obj=%u adopted_by=%d acc=%d view=%d\n", rank_, id, adopted_by,
            (int)accepted, meta->home);
  }
  if (accepted && meta->home == rank_ && adopted_by >= 0 && adopted_by != rank_) {
    meta->home = adopted_by;
    dir_.bump_generation(id);  // home write: defeat stale ALB entries
  }
}

}  // namespace lots::core
