// SyncEngine: the lock protocol, the master rendezvous and the
// sync-entry gates. See sync.hpp for what the engine owns and its lock
// order.
//
// Locks: homeless write-update under Scope Consistency (paper §3.4).
// Each lock has a static *manager* (manager_of) that serializes
// acquisitions, and a *token* that parks at the last releaser. The token
// carries the lock's scope update chain — the DiffRecords produced in
// critical sections guarded by this lock since the last barrier. A grant
// moves the token (and chain) directly from the previous holder to the
// next acquirer, which applies the updates immediately: write-update,
// with no home involved (homeless).
//
// Chain representation follows Config::diff_mode:
//  * kPerWordTimestamp — one entry per object, ascending by id: its
//    home-commit notice, then one last-value-per-word record (paper
//    §3.5: outdated data is never re-sent). A release folds each record
//    it flushed into the chain in place (fold_record, core/diff.hpp); a
//    release that flushed nothing leaves the chain alone.
//  * kAccumulatedRecords — every interval's record is retained and
//    re-transmitted with each grant: the TreadMarks-style *diff
//    accumulation* the paper eliminates, kept for the ablation bench.
//
// In the kWriteInvalidateOnly ablation mode a release instead pushes its
// records to each object's home, and the chain carries only
// invalidation notices (empty records, one per object, folded the same
// way in both diff modes); acquirers invalidate and refetch on access.
//
// A token being released is mutated without sync_mu_: the manager
// cannot forward it until our kLockRelease lands, so no grant for it can
// race. Same-lock acquires from one node first serialize on a node-local
// per-lock mutex (held from acquire through release), so at most one
// thread per node is inside the manager protocol for a given lock — the
// single-slot tokens_ bookkeeping holds. Different locks proceed
// concurrently from different threads.
//
// A grant is the kReply to the acquirer's kLockAcquire, sent by the node
// that holds the token (a kLockForward carries the acquire's seq there),
// so a lock wait is an ordinary Endpoint request: the death sweep fails
// it and the request deadline bounds it. A grant minted before a death
// notice lands after the acquirer unwound, finds no pending request and
// is dropped; its token is void, as recovery re-mints every lock.
#include "core/sync.hpp"

#include <algorithm>
#include <map>

#include "core/runtime.hpp"

namespace lots::core {
SyncEngine::SyncEngine(Node& node) : node_(node) {}

void SyncEngine::handle(net::Message&& m) {
  using net::MsgType;
  switch (m.type) {
    case MsgType::kLockAcquire: on_lock_acquire(std::move(m)); return;
    case MsgType::kLockForward: on_lock_forward(std::move(m)); return;
    case MsgType::kLockRelease: on_lock_release(std::move(m)); return;
    case MsgType::kBarrierEnter: on_barrier_enter(std::move(m)); return;
    case MsgType::kRecoverEnter: on_recover_enter(std::move(m)); return;
    case MsgType::kBarrierDone:
    case MsgType::kRunBarrierEnter: {
      const bool done = m.type == MsgType::kBarrierDone;
      std::unique_lock lk(sync_mu_);
      std::vector<net::Message> round = park(done ? kDone : kRun, std::move(m));
      if (round.empty()) return;
      if (done) master_.in_barrier.clear();  // everyone left the protocol unharmed
      lk.unlock();
      reply_all(round, {});
      return;
    }
    default:
      LOTS_CHECK(false, std::string("not a sync message: ") + net::to_string(m.type));
  }
}

// --- lock protocol: acquirer / releaser side (app threads) ------------------

std::mutex& SyncEngine::local_lock_mutex(uint32_t lock_id) {
  std::lock_guard sl(sync_mu_);
  auto& slot = local_lock_mu_[lock_id];
  if (!slot) slot = std::make_unique<std::mutex>();
  return *slot;
}

int SyncEngine::manager_of(uint32_t lock_id) const {
  const int n = node_.nprocs();
  const int base = static_cast<int>(lock_id % static_cast<uint32_t>(n));
  for (int i = 0; i < n; ++i) {
    const int r = (base + i) % n;
    if (node_.rank_alive(r)) return r;
  }
  return base;
}

void SyncEngine::acquire(uint32_t lock_id) {
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
  // Every message about one lock shares flow = lock_id: on a striped
  // transport our earlier kLockRelease to this manager must land before
  // this re-acquire, or the manager would forward a token we still hold.
  net::Message req{.type = net::MsgType::kLockAcquire, .dst = manager_of(lock_id), .flow = lock_id};
  net::Writer w(req.payload);
  w.u32(lock_id);
  // The grant is the kReply to this request, sent by whichever node
  // holds the token. A death fails the wait like any other request's
  // (WorkerDied); `local` unlocks on the throw.
  const net::Message grant = sync_request(std::move(req), recovered_view_);

  // Decode the token: {holder_epoch, is_notice, nrecs, records}.
  // Each record's flags byte: 0 = a diff record, 1 = a home-commit
  // notice (object, epoch, home hint). The node applies every record
  // with sync_mu_ released, under that object's shard lock only.
  net::Reader r(grant.payload);
  const uint32_t holder_epoch = r.u32();
  const bool is_notice = r.u8() != 0;
  const uint32_t nrecs = r.u32();
  LockToken tok;
  tok.epoch = holder_epoch;
  for (uint32_t i = 0; i < nrecs; ++i) {
    DiffRecord rec;
    if (r.u8() == 1) {
      rec.object = r.u32();
      rec.epoch = r.u32();
      rec.home_hint = r.i32();
    } else {
      rec = decode_record(r);
    }
    node_.home_.apply_grant_record(rec, is_notice);
    tok.chain.push_back(std::move(rec));  // the chain travels with the token
  }
  {
    std::lock_guard sl(sync_mu_);
    tokens_[lock_id] = std::move(tok);
  }
  // epoch_ = max(epoch_, holder_epoch) + 1, racing only against sibling
  // threads' own acquire/release epoch bumps.
  uint32_t cur = node_.epoch_.load(std::memory_order_relaxed);
  while (!node_.epoch_.compare_exchange_weak(cur, std::max(cur, holder_epoch) + 1,
                                             std::memory_order_relaxed)) {
  }
  node_.stats_.lock_acquires.fetch_add(1, std::memory_order_relaxed);
  local.release();  // held into the critical section; release() unlocks
}

void SyncEngine::release(uint32_t lock_id) {
  const int32_t manager = manager_of(lock_id);
  LockToken* tok = nullptr;
  {
    std::lock_guard sl(sync_mu_);
    auto it = tokens_.find(lock_id);
    // Checked BEFORE touching the local mutex: a release without a
    // matching acquire never locked it, so there is nothing to unlock.
    LOTS_CHECK(it != tokens_.end(), "release of a lock this node does not hold");
    tok = &it->second;  // stable address; see the file comment
  }
  // From here the calling thread owns the local mutex (its acquire
  // locked it); unlock on EVERY exit, including a throw mid-flush or
  // mid-send.
  std::unique_lock local(local_lock_mutex(lock_id), std::adopt_lock);
  // Flush the twins this thread's access checks touched (twin_writers):
  // its critical-section writes ship on THIS token even into twins a
  // sibling created, while a sibling's disjoint mid-critical-section
  // objects stay out of this lock's scope chain.
  const uint32_t flush_epoch = node_.epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::vector<DiffRecord> recs =
      node_.coherence_.flush_interval(flush_epoch, Runtime::thread_index());
  tok->epoch = flush_epoch;

  const std::vector<ObjectId> mods = node_.home_.commit_in_place(recs);

  if (node_.config().protocol == ProtocolMode::kWriteInvalidateOnly) {
    // The chain carries one empty notice per modified object; the data
    // goes to the homes.
    for (const auto& rec : recs) {
      DiffRecord notice;
      notice.object = rec.object;
      notice.epoch = rec.epoch;
      fold_record(tok->chain, std::move(notice));
    }
    node_.home_.push_to_homes(std::move(recs));
  } else if (node_.config().diff_mode == DiffMode::kPerWordTimestamp) {
    // §3.5: keep only the latest value of every field.
    uint64_t redundant = 0;
    for (auto& rec : recs) redundant += fold_record(tok->chain, std::move(rec));
    node_.stats_.merge_redundant_words.fetch_add(redundant, std::memory_order_relaxed);
  } else {
    for (auto& rec : recs) tok->chain.push_back(std::move(rec));
  }

  // flow: FIFO with this node's later re-acquire.
  net::Message rel{.type = net::MsgType::kLockRelease, .dst = manager, .flow = lock_id};
  net::Writer w(rel.payload);
  w.u32(lock_id);
  if (!mods.empty()) {
    // Dominance piggyback: the ids this release modified, capped — the
    // manager only needs enough signal to spot single-writer streaks.
    constexpr size_t kMaxMods = 64;
    const uint32_t n = static_cast<uint32_t>(std::min(mods.size(), kMaxMods));
    w.u32(n);
    for (uint32_t i = 0; i < n; ++i) w.u32(mods[i]);
  }
  node_.ep_.send(std::move(rel));
}  // `local` unlocks, admitting the next sibling thread

// --- lock protocol: manager side (service thread) ---------------------------

void SyncEngine::on_lock_acquire(net::Message&& m) {
  net::Reader r(m.payload);
  const uint32_t lock_id = r.u32();
  std::unique_lock lk(sync_mu_);
  ManagerState& s = managed_locks_[lock_id];
  if (s.token_at < 0) {
    s.token_at = node_.rank();  // token is born at the manager, chain empty
    tokens_.emplace(lock_id, LockToken{});
  }
  if (s.busy) {
    s.waiters.push_back(std::move(m));
    return;
  }
  serve_acquire(s, m, lk);
}

void SyncEngine::serve_acquire(ManagerState& s, const net::Message& req,
                               std::unique_lock<std::mutex>& lk) {
  net::Reader r(req.payload);
  const uint32_t lock_id = r.u32();
  s.busy = true;
  if (s.token_at == node_.rank()) {
    send_grant_locked(lock_id, req.src, req.seq);
    return;
  }
  // flow: one FIFO per lock across the whole protocol. The acquire's seq
  // rides along so the holder's grant answers it.
  net::Message fwd{.type = net::MsgType::kLockForward, .dst = s.token_at, .flow = lock_id};
  net::Writer w(fwd.payload);
  w.u32(lock_id);
  w.i32(req.src);
  w.u64(req.seq);
  lk.unlock();
  node_.ep_.send(std::move(fwd));
}

void SyncEngine::on_lock_release(net::Message&& m) {
  net::Reader r(m.payload);
  const uint32_t lock_id = r.u32();
  // Dominance piggyback (present only when the releaser migrates): the
  // home engine's streaks decide, with sync_mu_ released.
  std::vector<ObjectId> mods(r.remaining() ? r.u32() : 0);
  for (ObjectId& id : mods) id = r.u32();
  for (auto& p : node_.home_.on_release_writes(m.src, mods)) node_.ep_.send(std::move(p));
  std::unique_lock lk(sync_mu_);
  ManagerState& s = managed_locks_[lock_id];
  s.token_at = m.src;
  s.busy = false;
  if (s.waiters.empty()) return;
  net::Message next = std::move(s.waiters.front());
  s.waiters.erase(s.waiters.begin());
  serve_acquire(s, next, lk);
}

// --- lock protocol: token holder side (service thread) ----------------------

void SyncEngine::on_lock_forward(net::Message&& m) {
  net::Reader r(m.payload);
  const uint32_t lock_id = r.u32();
  const int32_t acquirer = r.i32();
  const uint64_t acquire_seq = r.u64();
  std::lock_guard lk(sync_mu_);
  send_grant_locked(lock_id, acquirer, acquire_seq);
}

void SyncEngine::send_grant_locked(uint32_t lock_id, int32_t to, uint64_t acquire_seq) {
  auto it = tokens_.find(lock_id);
  LOTS_CHECK(it != tokens_.end(), "lock forward reached a node without the token");
  LockToken tok = std::move(it->second);
  tokens_.erase(it);

  NodeStats& stats = node_.stats_;
  // The grant answers the acquirer's kLockAcquire; flow: one FIFO per
  // lock across the whole protocol.
  net::Message g{.type = net::MsgType::kReply, .dst = to, .req_seq = acquire_seq, .flow = lock_id};
  net::Writer w(g.payload);
  w.u32(tok.epoch);
  w.u8(node_.config().protocol == ProtocolMode::kWriteInvalidateOnly ? 1 : 0);
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
    stats.diff_words_sent.fetch_add(rec.words(), std::memory_order_relaxed);
  }
  stats.diff_payload_bytes.fetch_add(g.payload.size() - before, std::memory_order_relaxed);
  stats.diff_bytes_saved.fetch_add(saved, std::memory_order_relaxed);
  node_.ep_.send(std::move(g));
}

// --- collectives: node side -------------------------------------------------

void SyncEngine::check_view(uint32_t v) const {
  if (node_.view() == v) return;
  int dead = -1;
  for (int r = 0; r < node_.nprocs(); ++r) dead = node_.rank_alive(r) ? dead : r;
  throw WorkerDied(dead, "worker " + std::to_string(dead) +
                             " died; the application must run lots::recover() "
                             "before synchronizing again");
}

net::Message SyncEngine::sync_request(net::Message m, uint32_t v) {
  net::Endpoint::PendingReply pending = node_.ep_.request_async(std::move(m));
  check_view(v);  // the abandoned handle deregisters itself on the throw
  return pending.wait();
}

int SyncEngine::master_rank() const {
  for (int r = 0; r < node_.nprocs(); ++r) {
    if (node_.rank_alive(r)) return r;
  }
  return 0;  // unreachable: this node is alive
}

net::Message SyncEngine::request(net::MsgType type, std::vector<uint8_t> payload) {
  // The master is rank 0 until it dies, then the next alive rank.
  return sync_request({.type = type, .dst = master_rank(), .payload = std::move(payload)},
                      recovered_view_);
}

bool SyncEngine::begin_collective(bool run) {
  check_death();
  return !committed_redo(run);
}

void SyncEngine::end_collective(bool run) { coll_seq_ = next_seq(run); }

bool SyncEngine::committed_redo(bool run) {
  if (next_seq(run) > committed_seq_) return false;
  coll_seq_ = next_seq(run);
  node_.stats_.recoveries_commit_skips.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void SyncEngine::run_barrier() {
  // Event-only synchronization (paper §3.6): no flush, no invalidation.
  // Committed redo — the same echo check as the barrier leader: the run
  // barrier this node unwound from released without our exit reply
  // surviving the death sweep; the peers have moved on.
  if (!begin_collective(/*run=*/true)) return;
  request(net::MsgType::kRunBarrierEnter);  // the enter IS the vote
  end_collective(/*run=*/true);
}

void SyncEngine::barrier_cut() {
  // The barrier reconciles everything: scope update chains reset.
  std::lock_guard sl(sync_mu_);
  for (auto& [lock_id, tok] : tokens_) {
    (void)lock_id;
    tok.chain.clear();
  }
}

// --- recovery ---------------------------------------------------------------

void SyncEngine::remint_locks() {
  // Every lock this node manages is re-minted, not just those the dead
  // rank held: at the recovery point all in-flight grants, queued
  // waiters and parked tokens belong to intervals the survivors are
  // about to redo — their scope chains carry only post-cut records
  // (barriers clear them), which the redo regenerates. Locally parked
  // tokens for remotely managed locks are dropped for the same reason
  // (their managers re-mint them on their own recovery pass).
  std::lock_guard sl(sync_mu_);
  tokens_.clear();
  for (auto& [lock_id, s] : managed_locks_) {
    s.busy = false;
    s.token_at = node_.rank();
    s.waiters.clear();
    tokens_[lock_id] = LockToken{};
  }
}

net::Message SyncEngine::recover_enter(uint32_t v) const {
  net::Message enter{.type = net::MsgType::kRecoverEnter, .dst = master_rank()};
  net::Writer w(enter.payload);
  w.u32(v);
  w.u64(coll_seq_);
  return enter;
}

void SyncEngine::send_recover_enter(uint32_t v) { node_.ep_.send(recover_enter(v)); }

bool SyncEngine::recover(uint32_t v) {
  // Nobody resumes before every survivor finished its local repair (a
  // post-recovery fetch must find the holder already serving its
  // materialized copy) and the master discarded the parked rendezvous
  // state of the old view. A death noticed after `v` was read moves the
  // view and throws to the application's retry, which repairs again at
  // the new view. A sweep that leaves the view at `v` came from a death
  // this round already repaired: enter again WITHOUT redoing the repair
  // — the master may have released the round, and re-minting the locks
  // would wipe what the resumed survivors have done with them since.
  net::Message exit;
  for (;;) {
    try {
      exit = sync_request(recover_enter(v), v);
      break;
    } catch (const WorkerDied&) {
      if (node_.view() != v) throw;
    }
  }
  net::Reader r(exit.payload);
  const bool mid_barrier = r.u8() != 0;
  // The echo: the highest collective number any survivor entered with.
  // It exceeds ours only when our vote for our next collective was in
  // and that collective released without our exit reply — commit needs
  // every live rank's vote, and no node votes on the collective after
  // that before it consumed its exit. The application redoes
  // everything since its last barrier(), run barriers included, so the
  // numbering restarts there; the redo skips whatever the echo covers.
  committed_seq_ = r.u64();
  coll_seq_ = coll_seq_ >> 32 << 32;
  recovered_view_ = v;
  return mid_barrier;
}

void SyncEngine::on_death() {
  std::unique_lock lk(sync_mu_);
  // If we are (or just became) the master, re-evaluate the recovery
  // round: the survivors may ALL have entered already, parked waiting
  // on the rank that just died.
  maybe_release_recover(lk);
}

// --- the master rendezvous (service thread of master_rank()) ---------------

std::vector<net::Message> SyncEngine::park(Kind k, net::Message&& m) {
  auto& table = master_.parked[k];
  const int32_t src = m.src;
  table[src] = std::move(m);
  // Rendezvous over the LIVE set: after a recovery the dead rank never
  // enters again, and the survivors' rounds must complete without it.
  for (int r = 0; r < node_.nprocs(); ++r) {
    if (node_.rank_alive(r) && !table.count(r)) return {};
  }
  return take(k);
}

std::vector<net::Message> SyncEngine::take(Kind k) {
  std::vector<net::Message> round;
  for (auto& [rank, req] : master_.parked[k]) {
    (void)rank;
    round.push_back(std::move(req));
  }
  master_.parked[k].clear();
  return round;
}

void SyncEngine::reply_all(std::vector<net::Message>& round, const std::vector<uint8_t>& payload) {
  for (auto& req : round) node_.ep_.reply(req, {.type = net::MsgType::kReply, .payload = payload});
}

void SyncEngine::on_barrier_enter(net::Message&& m) {
  // Look up homes only for ids the master has not seen this barrier —
  // on the node, with sync_mu_ released. Handlers run on the single
  // service thread, so no other enter lands between the two sections.
  std::vector<ObjectId> unseen;
  {
    net::Reader r(m.payload);
    r.u32();  // epoch: read from the round at release
    const uint32_t nmods = r.u32();
    std::lock_guard sl(sync_mu_);
    for (uint32_t i = 0; i < nmods; ++i) {
      const ObjectId id = r.u32();
      if (!master_.old_homes.count(id)) unseen.push_back(id);
    }
  }
  std::vector<std::pair<ObjectId, int32_t>> homes;
  homes.reserve(unseen.size());
  for (ObjectId id : unseen) homes.emplace_back(id, node_.home_of(id));

  std::unique_lock lk(sync_mu_);
  for (const auto& [id, h] : homes) master_.old_homes.try_emplace(id, h);
  // Death accounting: the rank is now inside the two-phase protocol
  // (cleared when the done round releases) — a member that dies before
  // that point leaves a plan that may have partially applied.
  master_.in_barrier.insert(m.src);
  std::vector<net::Message> round = park(kEnter, std::move(m));
  if (round.empty()) return;

  // Everyone is here: the home engine plans from the round's write
  // summaries, with sync_mu_ released.
  const std::unordered_map<ObjectId, int32_t> old_homes = std::move(master_.old_homes);
  master_.old_homes.clear();
  lk.unlock();
  uint32_t max_epoch = 0;
  std::map<ObjectId, std::vector<int32_t>> writers;
  for (const net::Message& req : round) {
    net::Reader r(req.payload);
    max_epoch = std::max(max_epoch, r.u32());
    const uint32_t nmods = r.u32();
    for (uint32_t i = 0; i < nmods; ++i) writers[r.u32()].push_back(req.src);
  }
  const std::vector<BarrierPlanEntry> plan = node_.home_.plan_barrier(writers, old_homes);
  std::vector<uint8_t> payload;
  net::Writer w(payload);
  w.u32(max_epoch + 1);  // the new epoch
  w.u32(static_cast<uint32_t>(plan.size()));
  for (const BarrierPlanEntry& e : plan) {
    w.u32(e.object);
    w.i32(e.new_home);
  }
  reply_all(round, payload);
}

void SyncEngine::on_recover_enter(net::Message&& m) {
  net::Reader r(m.payload);
  const uint32_t v = r.u32();  // sender's view
  std::unique_lock lk(sync_mu_);
  if (v == master_.released.first && !master_.released.second.empty()) {
    // A re-enter for the round already released: the sender's exit
    // reply was swept by a notice for a death it had already counted.
    // Answer with that round's exit; the other survivors have left.
    net::Message resp{.type = net::MsgType::kReply, .payload = master_.released.second};
    lk.unlock();
    node_.ep_.reply(m, std::move(resp));
    return;
  }
  // Latest entry per rank wins: a survivor that unwound (its parked
  // enter swept by a mid-recovery death) re-enters at a higher view,
  // superseding the stale request, whose reply is owed to a request its
  // sender already failed.
  const int32_t src = m.src;
  master_.parked[kRecover][src] = std::move(m);
  maybe_release_recover(lk);
}

void SyncEngine::maybe_release_recover(std::unique_lock<std::mutex>& lk) {
  auto& entries = master_.parked[kRecover];
  if (entries.empty()) return;
  // Release only when every LIVE rank has entered at EXACTLY this
  // master's view. A smaller view is a stale round — its sender has been
  // unwound and will re-enter. A LARGER view means that survivor noticed
  // a death the master has not seen yet: releasing now would resume the
  // lagging survivors without repairing it, and the ahead survivor —
  // already counting that death in this round — would never re-enter
  // the next rendezvous. Hold the round instead; our own death notice
  // re-evaluates here once we catch up.
  const uint32_t v = node_.view();
  uint64_t max_seq = 0;
  for (int rnk = 0; rnk < node_.nprocs(); ++rnk) {
    if (!node_.rank_alive(rnk)) continue;
    auto it = entries.find(rnk);
    if (it == entries.end()) return;
    net::Reader er(it->second.payload);
    if (er.u32() != v) return;
    max_seq = std::max(max_seq, er.u64());
  }
  // Every survivor finished local repair. A DEAD rank still inside the
  // two-phase barrier means the victim died mid-protocol and the plan
  // may have partially applied cluster-wide. Not fatal — the redone
  // superstep re-flushes every value the plan moved and the re-seeded
  // rings restore coverage — but survivors count it.
  bool mid_barrier = false;
  for (const int32_t member : master_.in_barrier) {
    if (!node_.rank_alive(member)) mid_barrier = true;
  }
  // The exit: the mid-barrier verdict and the collective-sequence echo.
  std::vector<uint8_t> payload;
  net::Writer w(payload);
  w.u8(mid_barrier ? 1 : 0);
  w.u64(max_seq);
  std::vector<net::Message> round = take(kRecover);
  // Discard the old view's rendezvous state. The parked requesters were
  // already failed by their own nodes' death sweeps, so no reply is
  // owed; their redone supersteps re-enter fresh rounds.
  for (auto& table : master_.parked) table.clear();
  master_.old_homes.clear();
  master_.in_barrier.clear();
  master_.released = {v, payload};
  lk.unlock();
  reply_all(round, payload);
}

}  // namespace lots::core
