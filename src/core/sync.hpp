// The synchronization engine: the lock and collective transport of the
// scope-consistency model (paper §3.4-3.6) and the recovery rendezvous,
// extracted from the node the way FetchEngine and CoherenceEngine are.
//
// The engine owns the protocol state — lock tokens and their scope
// chains, the manager queues, the per-lock intra-node mutexes, the
// master's rendezvous tables, and the node's collective sequence and
// recovered view — together with every handler that touches it: lock
// acquire/forward/release and the master side of barrier enter/done,
// run barrier and recover enter. The node reaches that state only
// through the named calls below. Who should be home — the barrier plan
// and the lock-driven handoff proposals — is HomeEngine's decision.
//
// Lock order, by construction: sync_mu_ guards everything above and is
// the only lock the engine takes. Object state belongs to the node and
// its HomeEngine — a grant's records, the release flush and its
// home-commit notices, the master's home lookups, the home placement —
// and the engine calls into it only with sync_mu_ released, so sync_mu_
// is never held while a shard lock is taken. Sends under sync_mu_ are
// allowed (delivery is queued); blocking requests never run under it.
//
// The master rendezvous: each collective kind (barrier enter, barrier
// done, run barrier, recover enter) parks requests in its own per-rank
// table, a retried request replacing its rank's stale one. A round
// releases when every LIVE rank has an entry — for recover, an entry at
// the master's own view — and every exit and grant is a plain kReply.
// The recovery release clears all four tables.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/diff.hpp"
#include "core/object.hpp"
#include "net/message.hpp"

namespace lots::core {

class Node;

class SyncEngine {
 public:
  explicit SyncEngine(Node& node);
  SyncEngine(const SyncEngine&) = delete;
  SyncEngine& operator=(const SyncEngine&) = delete;

  // ---- application side ----
  void acquire(uint32_t lock_id);
  void release(uint32_t lock_id);
  /// The run barrier's node body (collective leader): one kRunBarrierEnter.
  void run_barrier();

  // ---- the barrier leader's calls ----
  /// Gates on the recovered view (throws WorkerDied while a death is
  /// unrecovered), then returns false when this barrier (`run` false)
  /// or run barrier was already committed cluster-wide and only our
  /// exit reply was lost to a death sweep — the caller skips it.
  bool begin_collective(bool run);
  /// Sends `type` with `payload` to the master and waits for its reply
  /// (barrier enter/done). Registers the request, THEN gates on the
  /// recovered view, then waits.
  net::Message request(net::MsgType type, std::vector<uint8_t> payload = {});
  /// Counts the barrier or run barrier as committed (exit in hand).
  void end_collective(bool run);
  /// Coherence barriers committed since node birth (chaos kill points).
  [[nodiscard]] uint32_t barriers_done() const { return static_cast<uint32_t>(coll_seq_ >> 32); }
  /// The barrier cut: scope chains restart.
  void barrier_cut();

  // ---- recovery's calls ----
  /// The last view this node finished recovering.
  [[nodiscard]] uint32_t recovered_view() const { return recovered_view_; }
  /// Re-mints every lock this node manages and drops every local token
  /// (the view-change half of repair).
  void remint_locks();
  /// Recovery rendezvous at view `v` (recovery leader): enters until
  /// released, retrying sweeps from deaths `v` already counts. Records
  /// the exit's collective-sequence echo and `v` as recovered. Returns
  /// true when a dead rank died inside the two-phase barrier protocol.
  bool recover(uint32_t v);
  /// kRecoverEnter(v, seq) for a node whose application left run():
  /// nobody waits for the exit.
  void send_recover_enter(uint32_t v);
  /// A death notice (after the endpoint's sweep failed every pending
  /// request, lock waits included): lets the master re-evaluate the
  /// recovery round under the shrunk live set.
  void on_death();

  /// Service thread: every lock and collective message.
  void handle(net::Message&& m);

 private:
  struct LockToken {
    std::vector<DiffRecord> chain;  ///< scope update history (homeless)
    uint32_t epoch = 0;             ///< epoch of the last release
  };
  struct ManagerState {
    bool busy = false;
    int32_t token_at = -1;  ///< node where the token (and chain) parks
    std::vector<net::Message> waiters;  ///< queued kLockAcquire messages
  };
  /// Collective kinds parked at the master.
  enum Kind : size_t { kEnter, kDone, kRun, kRecover, kKinds };
  /// Master state (used on master_rank() only).
  struct Master {
    /// Parked requests per kind, by rank (see the file comment).
    std::array<std::unordered_map<int32_t, net::Message>, kKinds> parked;
    /// The master's home view of each object named this barrier (-1:
    /// none yet), looked up when the first enter naming it arrives.
    std::unordered_map<ObjectId, int32_t> old_homes;
    /// Ranks inside the two-phase barrier (entered, done not released).
    /// A dead member means the plan may have partially applied; the
    /// recovery exit reports it.
    std::unordered_set<int32_t> in_barrier;
    /// The last released recovery view and its exit payload: a re-enter
    /// for that view (its exit swept by a death it already counted) is
    /// answered at once.
    std::pair<uint32_t, std::vector<uint8_t>> released;
  };

  // -- lock protocol --
  void on_lock_acquire(net::Message&& m);  // manager side
  void on_lock_forward(net::Message&& m);  // token-holder side
  void on_lock_release(net::Message&& m);  // manager side
  /// Moves the token to `to` as the kReply to its kLockAcquire numbered
  /// `acquire_seq`. Caller holds sync_mu_.
  void send_grant_locked(uint32_t lock_id, int32_t to, uint64_t acquire_seq);
  /// Grants (token here) or forwards (token elsewhere) to the parked
  /// kLockAcquire `req`. Caller holds sync_mu_ via `lk`.
  void serve_acquire(ManagerState& s, const net::Message& req, std::unique_lock<std::mutex>& lk);
  /// The node-local mutex for DSM lock `lock_id`: serializes same-lock
  /// acquires from this node's app threads ahead of the manager.
  std::mutex& local_lock_mutex(uint32_t lock_id);
  /// Live-aware managership: the static hash rank (lock_id % nprocs)
  /// walked forward to the next ALIVE rank, which mints the lock's
  /// state on first touch.
  [[nodiscard]] int manager_of(uint32_t lock_id) const;

  // -- master rendezvous --
  /// Barrier master / recovery rendezvous rank: the lowest ALIVE rank.
  [[nodiscard]] int master_rank() const;
  void on_barrier_enter(net::Message&& m);
  void on_recover_enter(net::Message&& m);
  /// Parks `m` in its kind's table. When every live rank has an entry,
  /// takes the round and returns its requests; empty otherwise. Caller
  /// holds sync_mu_.
  std::vector<net::Message> park(Kind k, net::Message&& m);
  /// Empties `k`'s table into a round. Caller holds sync_mu_.
  std::vector<net::Message> take(Kind k);
  /// Releases the recovery round if every live rank entered at the
  /// master's CURRENT view. Caller holds sync_mu_ via `lk`; replies go
  /// out after it is released.
  void maybe_release_recover(std::unique_lock<std::mutex>& lk);
  /// Answers every request of a released round with `payload`.
  void reply_all(std::vector<net::Message>& round, const std::vector<uint8_t>& payload);

  // -- sync-entry gates --
  /// Throws WorkerDied when the node's view is not `v`. Sync entries call
  /// it AFTER registering their wait: a death noticed earlier shows as a
  /// moved view, one noticed later finds the registration in its sweep.
  void check_view(uint32_t v) const;
  /// Throws WorkerDied while a noticed death is unrecovered.
  void check_death() const { check_view(recovered_view_); }
  /// Registers the request, THEN gates on view `v`, then waits.
  net::Message sync_request(net::Message m, uint32_t v);
  /// The number of this node's next barrier (`run` false) or run barrier.
  [[nodiscard]] uint64_t next_seq(bool run) const {
    return run ? coll_seq_ + 1 : ((coll_seq_ >> 32) + 1) << 32;
  }
  /// True (and the collective counted) when this collective's number is
  /// at or below committed_seq_.
  bool committed_redo(bool run);
  net::Message recover_enter(uint32_t v) const;

  Node& node_;

  /// Guards the lock and master state below. Never held while taking a
  /// shard lock or blocking on a request.
  std::mutex sync_mu_;
  std::unordered_map<uint32_t, LockToken> tokens_;
  std::unordered_map<uint32_t, ManagerState> managed_locks_;
  /// unique_ptr: mutexes must not move on rehash.
  std::unordered_map<uint32_t, std::unique_ptr<std::mutex>> local_lock_mu_;
  Master master_;

  // -- views and the collective sequence (collective / recovery leader
  //    only, every sibling app thread parked) --
  /// The last view this node finished recovering.
  uint32_t recovered_view_ = 0;
  /// The number of the last barrier or run barrier this node saw commit:
  /// coherence barriers in the high half, run barriers since the last of
  /// them in the low half, so SPMD order numbers both kinds in one
  /// increasing sequence. The low half restarts at every barrier and at
  /// recovery exit, because the application redoes everything since its
  /// last barrier().
  uint64_t coll_seq_ = 0;
  /// The last recovery exit's echo: the highest coll_seq_ any survivor
  /// entered with. A number at or below it committed cluster-wide even
  /// if our exit reply was swept; committed_redo() consumes its redo.
  uint64_t committed_seq_ = 0;
};

}  // namespace lots::core
