// The recovery engine: barrier-consistent replication and worker-death
// recovery, extracted from the node the way FetchEngine and SyncEngine
// are (recovery.cpp has the protocol).
//
// The engine owns the backup store (this node's replicas of other
// homes' objects), the ring math that names each home's backups, the
// replica ship and its backup side, the death notice, and the local half
// of a view change: re-homing a dead home's objects and voiding replica
// cuts (ObjectMeta::replica_cut, one per object; a ship made while a
// death is unrecovered ignores it). The node forwards recover(),
// on_peer_dead() and view() here. Liveness is the endpoint's dead-rank
// table (Node::rank_alive), the one table every death verdict sets.
//
// Lock order: replica_mu_ guards the backup store and is a leaf mutex —
// taken inside shard locks (rehome_object, the free), never the other
// way around.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/object.hpp"
#include "net/message.hpp"

namespace lots::core {

class Node;

class RecoveryEngine {
 public:
  explicit RecoveryEngine(Node& node);
  RecoveryEngine(const RecoveryEngine&) = delete;
  RecoveryEngine& operator=(const RecoveryEngine&) = delete;

  /// The membership view: deaths this node has noticed (monotonic).
  /// Sync entries throw while it differs from the last recovered view;
  /// kRecoverEnter carries it, and the master releases a recovery round
  /// only when every live rank entered at the master's own view.
  [[nodiscard]] uint32_t view() const;
  /// Death notice (bootstrap watcher thread, transport verdict; any
  /// thread, idempotent per rank): fences the rank at the transport,
  /// marks it dead in the endpoint — the view change, which closes the
  /// sync-entry gate until recover() runs — and fails every outstanding
  /// request and lock wait with WorkerDied.
  void on_peer_dead(int dead);

  /// Barrier leader, between apply_barrier_plan and the done rendezvous:
  /// one acked kReplicaUpdate per live ring successor (R-1 of them), all
  /// with one payload — the words stamped after the replica cut of the
  /// plan's objects homed here, and full images of homed objects with no
  /// cut, or of every homed object when a death since the last recovery
  /// may have rotated the ring. `cut` = new_epoch - 1: every current
  /// word ts is <= cut, every future one is > cut.
  void ship_replicas(const std::vector<BarrierPlanEntry>& plan, uint32_t cut);
  /// Backup side (service thread): applies a kReplicaUpdate and acks it.
  void on_replica_update(net::Message&& m);
  /// Drops this node's replica of `id` (the collective free).
  void drop_replica(ObjectId id);
  /// Test hook: replicas this node holds as a backup.
  size_t replica_count();

  /// lots::recover()'s body (collective last arriver, siblings parked).
  /// When view() moved past the last recovered view, repairs it and
  /// rendezvouses cluster-wide (kRecoverEnter(view, seq) at the lowest
  /// ALIVE rank); otherwise returns at once. With R total copies any
  /// f < R deaths per barrier interval recover, rank 0 and deaths inside
  /// the barrier protocol included; replication off throws SystemError.
  void recover_leader();
  /// For a node whose application has left Runtime::run() and so can no
  /// longer call recover(): on an unrecovered death it repairs locally
  /// and enters the round itself, so a survivor whose exit reply of the
  /// last collective was swept can finish recovery and skip that
  /// collective. Called when run() returns and on later death notices.
  void recover_departed() noexcept;
  /// Recovery rounds completed since node birth (Node::chaos_due).
  [[nodiscard]] uint32_t recoveries_done() const { return chaos_recoveries_; }

 private:
  /// A backup's copy of one object, complete as of `epoch` (the last
  /// barrier cut its home shipped).
  struct Replica {
    uint32_t epoch = 0;
    std::vector<uint8_t> data;  ///< word-aligned data image
    std::vector<uint32_t> ts;   ///< per-word timestamps
  };

  /// The first `count` LIVE ranks after `home` in ring order: the backup
  /// set a home with R = count+1 copies ships to. The first of them
  /// holds `home`'s replicas for any f < R deaths, so recovery re-homes
  /// to it.
  [[nodiscard]] std::vector<int> ring_successors(int home, int count) const;
  /// The local half of a view change: fences the old view, re-homes in
  /// one idempotent directory pass every object whose home is dead,
  /// voids the replica cuts of this node's homed objects and re-mints its
  /// locks.
  void repair_view();
  /// Re-homes one object whose home died to `holder` (caller holds the
  /// shard lock): the holder materializes its replica as the
  /// authoritative copy, everyone else invalidates toward the holder.
  void rehome_object(ObjectMeta& m, int holder);

  Node& node_;
  std::mutex replica_mu_;  ///< leaf: guards replicas_
  std::unordered_map<ObjectId, Replica> replicas_;
  /// Recovery rounds for the chaos kill points ONLY. Not a stat:
  /// harnesses reset stats mid-run, and a kill countdown must not rewind
  /// with them. Written only by the recovery leader.
  uint32_t chaos_recoveries_ = 0;
};

}  // namespace lots::core
