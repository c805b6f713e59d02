// The home engine: which node homes each object (paper §3.4: where
// barrier diffs go, who serves fetches and commits lock-path writes in
// place). It decides who SHOULD be home — the barrier plan (Fig. 6 with
// the §5 damping) and the lock manager's dominance streaks, each with
// its own writer history, touched only by the service thread — and
// makes the move: move_home is the one transition; after
// ObjectDirectory::create sets the initial home, nothing else writes
// ObjectMeta::home. Each caller keeps its own staleness rule: the
// barrier plan (the master's global view), a grant's home-commit notice
// (only one newer than our cut), the lock-driven handoff (only within
// one barrier generation), FetchEngine::settle (whoever answered a
// chased fetch), RecoveryEngine::rehome_object (the live replica holder)
// and the test hook Node::set_home_for_test.
//
// The handoff fence: kHomeMigrate/kHomeMigrateAck carry the sender's
// gen() and are dropped on mismatch; the barrier plan and a view repair
// fence() before they move any home, which also restarts the streaks.
// Lock order: every call takes only the affected object's shard lock
// (move_home: the caller holds it); SyncEngine calls in with its mutex
// released.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "core/object.hpp"
#include "net/message.hpp"

namespace lots::core {

class Node;

class HomeEngine {
 public:
  explicit HomeEngine(Node& node) : node_(node) {}
  HomeEngine(const HomeEngine&) = delete;
  HomeEngine& operator=(const HomeEngine&) = delete;

  /// Round-robin initial home, as in JIAJIA's page allocation.
  static int32_t initial_home(ObjectId id, int nprocs) {
    return static_cast<int32_t>(id % static_cast<uint32_t>(nprocs));
  }

  /// The handoff fence (see the file comment).
  [[nodiscard]] uint32_t gen() const { return gen_.load(std::memory_order_relaxed); }
  void fence() { gen_.fetch_add(1, std::memory_order_relaxed); }

  /// Makes `new_home` the object's home (caller holds its shard lock):
  /// settles any half-done handoff (`migrating`) and, when the home
  /// actually changes, bumps the ALB generation and voids the replica
  /// cut if this node becomes home. Returns whether the home changed;
  /// moving to the current home only settles the handoff.
  bool move_home(ObjectMeta& m, int32_t new_home);

  // ---- home placement (service thread; SyncEngine's calls) ----
  /// The barrier plan, in object-id order, from each modified object's
  /// writing ranks and the master's home view of it (-1: none yet);
  /// home_migrations counts the moves.
  std::vector<BarrierPlanEntry> plan_barrier(const std::map<ObjectId, std::vector<int32_t>>& writers,
                                             const std::unordered_map<ObjectId, int32_t>& old_homes);
  /// The lock manager's side: `src` released writes to `mods`. Returns a
  /// kHomeMigrate proposal per object whose streak reached
  /// Config::migrate_streak (none while lock-driven migration is off).
  std::vector<net::Message> on_release_writes(int32_t src, const std::vector<ObjectId>& mods);

  // ---- the object side of the lock protocol (SyncEngine's calls) ----
  /// Applies one record of a lock grant's chain: a home-commit notice
  /// repairs or cedes the home view, a write-invalidate notice
  /// (`invalidate_only`) drops the copy, a diff record lands in place
  /// (or pending while unmapped).
  void apply_grant_record(const DiffRecord& rec, bool invalidate_only);
  /// Home-commit conversion: each release record of an object this node
  /// homes with a settled copy becomes a notice naming this node.
  /// Returns the ids for the manager's streaks (none, and nothing
  /// converted, while lock-driven migration is off).
  std::vector<ObjectId> commit_in_place(std::vector<DiffRecord>& recs);
  /// Write-invalidate ablation: pushes the release's records to each
  /// object's home, one acked kDiffBatch per peer.
  void push_to_homes(std::vector<DiffRecord>&& recs);
  void on_home_migrate(net::Message&& m);      // chased along the home chain
  void on_home_migrate_ack(net::Message&& m);  // old-home side

  /// The barrier leader's plan application (new homes, invalidations),
  /// run before it reports done.
  void apply_barrier_plan(const std::vector<BarrierPlanEntry>& plan, uint32_t new_epoch);

 private:
  /// One kHomeMigrate hop (the handoff is described in home.cpp).
  struct Proposal {
    ObjectId id = kNullObject;
    int32_t new_home = -1;  ///< the dominant writer
    int32_t cur_home = -1;  ///< the endorsing home; -1 until it forwards
    uint32_t gen = 0;       ///< the proposer's barrier generation
    uint32_t home_cut = 0;  ///< the endorsing home's valid_epoch
    uint8_t hops = 0;       ///< stale-view chase hops
  };
  static net::Message encode(const Proposal& p, int32_t dst);

  /// The last two writers an adaptive home decision saw for one object
  /// (-1: none yet) — the §5 ping-pong damping rule of both policies.
  struct WriterHistory {
    int32_t last = -1;
    int32_t before = -1;
    /// Records `w`; true when it alternates with the previous writer
    /// (A-B-A), the ping-pong shape whose home should stay pinned.
    bool ping_pong(int32_t w) {
      const bool alternates = last != w && before == w;
      before = last;
      last = w;
      return alternates;
    }
  };
  /// Per-object single-writer streak, tracked by the lock manager from
  /// the ids piggybacked on kLockRelease; restarts when gen() moves on.
  struct MigrateStreak {
    uint32_t gen = 0;
    int32_t last_writer = -1;
    uint32_t streak = 0;
    WriterHistory hist;
  };

  /// Lock-driven migration (Config::lock_migration), which replication
  /// and the non-diff protocols decline.
  [[nodiscard]] bool migrate_on() const;
  /// Drops a valid copy that predates a home's commit (shard lock held).
  void drop_copy(ObjectMeta& m);

  Node& node_;
  std::atomic<uint32_t> gen_{0};
  std::unordered_map<ObjectId, WriterHistory> writer_hist_;  ///< barrier master's
  std::unordered_map<ObjectId, MigrateStreak> migrate_streaks_;  ///< lock manager's
};

}  // namespace lots::core
