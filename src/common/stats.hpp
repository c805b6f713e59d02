// Per-node statistics used by tests (protocol assertions) and by the
// benchmark harness (traffic -> modeled time). Counters are plain
// uint64_t owned by a single node; aggregation across nodes happens in
// the harness after the run, so no atomics are needed on the hot path
// except the few counters the service thread shares with the app thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>

namespace lots {

/// Wire-level transport counters (UdpTransport): syscall batching and
/// send-failure visibility. Separated from the protocol counters so a
/// bare transport (benches, unit tests, no Node attached) can own a
/// private instance; when a NodeStats is attached the transport counts
/// into its nested `transport` member instead.
struct TransportStats {
  std::atomic<uint64_t> send_syscalls{0};   ///< sendmmsg/sendto invocations
  std::atomic<uint64_t> recv_syscalls{0};   ///< recvmmsg calls that returned data
  std::atomic<uint64_t> datagrams_sent{0};  ///< datagrams put on the wire
  std::atomic<uint64_t> datagrams_recv{0};  ///< datagrams taken off the wire
  std::atomic<uint64_t> send_errors{0};     ///< sendmmsg failures / short writes
                                            ///< (a full SNDBUF looks like wire
                                            ///< loss; the RTO path recovers it,
                                            ///< but it must be visible)
  std::atomic<uint64_t> acks_coalesced{0};  ///< per-datagram ACKs suppressed in
                                            ///< favor of one cumulative ACK per
                                            ///< peer per receive batch
  std::atomic<uint64_t> zombie_drops{0};    ///< datagrams fenced off because the
                                            ///< source rank is marked dead (a
                                            ///< zombie's late traffic must not
                                            ///< corrupt the recovered view)
};

/// Statistics for one DSM node. The app thread and the service thread of
/// the same node both increment these, hence relaxed atomics.
struct NodeStats {
  // network
  std::atomic<uint64_t> msgs_sent{0};
  std::atomic<uint64_t> bytes_sent{0};
  std::atomic<uint64_t> msgs_recv{0};
  std::atomic<uint64_t> bytes_recv{0};
  std::atomic<uint64_t> fragments_sent{0};
  TransportStats transport;  ///< wire-level syscall/batch counters

  // coherence
  std::atomic<uint64_t> diffs_created{0};
  std::atomic<uint64_t> diff_words_sent{0};
  std::atomic<uint64_t> diff_batch_msgs{0};      ///< kDiffBatch messages sent
  std::atomic<uint64_t> diff_records_batched{0}; ///< records carried by them
  std::atomic<uint64_t> diff_words_redundant{0};  ///< accumulation waste
  std::atomic<uint64_t> merge_redundant_words{0}; ///< word entries a release's
                                                  ///< fold into its lock chain
                                                  ///< (fold_record) dropped:
                                                  ///< superseded or home-held
                                                  ///< values the accumulated mode
                                                  ///< would have re-sent
  std::atomic<uint64_t> diff_payload_bytes{0};    ///< encoded bytes of diff
                                                  ///< records + word diffs put
                                                  ///< on the wire
  std::atomic<uint64_t> diff_bytes_saved{0};      ///< bytes the RLE encoders
                                                  ///< shaved off the flat forms
  std::atomic<uint64_t> object_fetches{0};
  std::atomic<uint64_t> page_fetches{0};
  std::atomic<uint64_t> invalidations{0};
  std::atomic<uint64_t> home_migrations{0};
  std::atomic<uint64_t> lock_migrations{0};      ///< home handoffs adopted via the
                                                 ///< lock-release path (subset of
                                                 ///< home_migrations, counted at
                                                 ///< the adopting writer)
  std::atomic<uint64_t> home_commit_notices{0};  ///< chain records converted to
                                                 ///< home-commit notices because
                                                 ///< the releaser was the home
  std::atomic<uint64_t> lock_acquires{0};
  std::atomic<uint64_t> barriers{0};

  // fault tolerance (barrier-consistent replication + recovery)
  std::atomic<uint64_t> replica_msgs{0};   ///< kReplicaUpdate batches shipped
                                           ///< (one per backup per barrier)
  std::atomic<uint64_t> replica_bytes{0};  ///< payload bytes of those batches
  std::atomic<uint64_t> recoveries{0};     ///< completed recover() passes
  std::atomic<uint64_t> recoveries_mid_barrier{0};  ///< of those, recoveries from
                                                    ///< a death inside the
                                                    ///< two-phase barrier
  std::atomic<uint64_t> recoveries_commit_skips{0};  ///< barriers and run
                                                     ///< barriers returned at
                                                     ///< once because their
                                                     ///< number was at or below
                                                     ///< the recovery echo
                                                     ///< (committed; exit
                                                     ///< reply swept)
  std::atomic<uint64_t> recover_wall_us{0};  ///< wall time spent in recover()
  std::atomic<uint64_t> objects_rehomed{0};  ///< replicas materialized as
                                             ///< authoritative home copies
  std::atomic<uint64_t> rings_reseeded{0};   ///< homed objects whose replica cuts
                                             ///< were voided for a full re-ship
                                             ///< after a ring rotation

  // large object space machinery
  std::atomic<uint64_t> access_checks{0};
  std::atomic<uint64_t> slow_path_checks{0};
  std::atomic<uint64_t> alb_hits{0};       ///< accesses served from the per-thread
                                           ///< lookaside buffer (no shard lock)
  std::atomic<uint64_t> alb_evictions{0};  ///< ALB slots overwritten by a
                                           ///< different object (capacity misses)
  std::atomic<uint64_t> shard_lock_acquires{0};  ///< object-directory stripe locks taken
  std::atomic<uint64_t> swap_ins{0};
  std::atomic<uint64_t> swap_outs{0};
  std::atomic<uint64_t> swap_bytes_in{0};
  std::atomic<uint64_t> swap_bytes_out{0};
  std::atomic<uint64_t> evictions{0};
  std::atomic<uint64_t> remote_swap_puts{0};  ///< §5 remote swapping
  std::atomic<uint64_t> remote_swap_gets{0};

  // multi-app-thread mapper coordination
  std::atomic<uint64_t> inflight_waits{0};  ///< access parked behind a peer
                                            ///< thread mapping the same object
  std::atomic<uint64_t> evict_races{0};     ///< victim vanished before eviction

  // async fetch engine (src/core/fetch.hpp)
  std::atomic<uint64_t> fetch_pipelined{0};  ///< fetches issued through the
                                             ///< async window (touch/prefetch)
  std::atomic<uint64_t> prefetch_hits{0};    ///< accesses served warm from a
                                             ///< prefetched/pipelined copy
  std::atomic<uint64_t> prefetch_wasted{0};  ///< prefetched copies invalidated
                                             ///< before any access used them
  std::atomic<uint64_t> fetch_stall_us{0};   ///< wall time app threads spent
                                             ///< blocked on fetch replies
  std::atomic<uint64_t> fetch_redirect_retries{0};  ///< redirect chases that
                                             ///< revisited a home and backed
                                             ///< off instead of aborting

  // service layer (request-queue execution mode, src/core/workqueue.hpp)
  std::atomic<uint64_t> service_items{0};  ///< client work items executed by
                                           ///< this node's app threads via
                                           ///< lots::serve()

  // modeled time (microseconds), accumulated from the cost models
  std::atomic<uint64_t> net_wait_us{0};
  std::atomic<uint64_t> disk_wait_us{0};

  void reset();
  /// Adds every counter of `other` into this (harness aggregation).
  void accumulate(const NodeStats& other);
  void print(std::ostream& os, const std::string& label) const;
};

}  // namespace lots
