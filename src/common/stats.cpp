#include "common/stats.hpp"

#include "common/error.hpp"

namespace lots {
namespace {

template <typename Fn>
void for_each_counter(NodeStats& s, Fn&& fn) {
  fn(s.msgs_sent);
  fn(s.bytes_sent);
  fn(s.msgs_recv);
  fn(s.bytes_recv);
  fn(s.fragments_sent);
  fn(s.transport.send_syscalls);
  fn(s.transport.recv_syscalls);
  fn(s.transport.datagrams_sent);
  fn(s.transport.datagrams_recv);
  fn(s.transport.send_errors);
  fn(s.transport.acks_coalesced);
  fn(s.transport.zombie_drops);
  fn(s.diffs_created);
  fn(s.diff_words_sent);
  fn(s.diff_batch_msgs);
  fn(s.diff_records_batched);
  fn(s.diff_words_redundant);
  fn(s.merge_redundant_words);
  fn(s.diff_payload_bytes);
  fn(s.diff_bytes_saved);
  fn(s.object_fetches);
  fn(s.page_fetches);
  fn(s.invalidations);
  fn(s.home_migrations);
  fn(s.lock_migrations);
  fn(s.home_commit_notices);
  fn(s.lock_acquires);
  fn(s.barriers);
  fn(s.replica_msgs);
  fn(s.replica_bytes);
  fn(s.recoveries);
  fn(s.recoveries_mid_barrier);
  fn(s.recoveries_commit_skips);
  fn(s.recover_wall_us);
  fn(s.objects_rehomed);
  fn(s.rings_reseeded);
  fn(s.access_checks);
  fn(s.slow_path_checks);
  fn(s.alb_hits);
  fn(s.alb_evictions);
  fn(s.shard_lock_acquires);
  fn(s.swap_ins);
  fn(s.swap_outs);
  fn(s.swap_bytes_in);
  fn(s.swap_bytes_out);
  fn(s.evictions);
  fn(s.remote_swap_puts);
  fn(s.remote_swap_gets);
  fn(s.inflight_waits);
  fn(s.evict_races);
  fn(s.fetch_pipelined);
  fn(s.prefetch_hits);
  fn(s.prefetch_wasted);
  fn(s.fetch_stall_us);
  fn(s.fetch_redirect_retries);
  fn(s.service_items);
  fn(s.net_wait_us);
  fn(s.disk_wait_us);
}

}  // namespace

void NodeStats::reset() {
  for_each_counter(*this, [](std::atomic<uint64_t>& c) { c.store(0, std::memory_order_relaxed); });
}

void NodeStats::accumulate(const NodeStats& other) {
  auto& o = const_cast<NodeStats&>(other);
  auto* dst = this;
  // Walk both structs in lockstep by collecting pointers. The capacity
  // is checked on every write so outgrowing it when counters are added
  // fails loudly instead of corrupting the stack.
  constexpr size_t kMaxCounters = 64;
  std::atomic<uint64_t>* mine[kMaxCounters];
  std::atomic<uint64_t>* theirs[kMaxCounters];
  size_t n = 0, m = 0;
  for_each_counter(*dst, [&](std::atomic<uint64_t>& c) {
    LOTS_CHECK(n < kMaxCounters, "NodeStats::accumulate: counter walk outgrew kMaxCounters");
    mine[n++] = &c;
  });
  for_each_counter(o, [&](std::atomic<uint64_t>& c) {
    LOTS_CHECK(m < kMaxCounters, "NodeStats::accumulate: counter walk outgrew kMaxCounters");
    theirs[m++] = &c;
  });
  for (size_t i = 0; i < n; ++i) {
    mine[i]->fetch_add(theirs[i]->load(std::memory_order_relaxed), std::memory_order_relaxed);
  }
}

void NodeStats::print(std::ostream& os, const std::string& label) const {
  os << "[" << label << "]"
     << " msgs=" << msgs_sent.load() << " bytes=" << bytes_sent.load()
     << " fetches=" << object_fetches.load() + page_fetches.load()
     << " diffs=" << diffs_created.load() << " diff_words=" << diff_words_sent.load()
     << " redundant_words=" << diff_words_redundant.load()
     << " merge_redundant=" << merge_redundant_words.load()
     << " diff_payload_bytes=" << diff_payload_bytes.load()
     << " rle_saved=" << diff_bytes_saved.load()
     << " inval=" << invalidations.load() << " homemig=" << home_migrations.load()
     << " lockmig=" << lock_migrations.load() << " notices=" << home_commit_notices.load()
     << " redirect_retries=" << fetch_redirect_retries.load()
     << " pipelined=" << fetch_pipelined.load() << " prefetch(hit/waste)="
     << prefetch_hits.load() << "/"
     << prefetch_wasted.load() << " fetch_stall_us=" << fetch_stall_us.load()
     << " checks=" << access_checks.load() << " alb(hit/evict)=" << alb_hits.load() << "/"
     << alb_evictions.load() << " swaps(in/out)=" << swap_ins.load() << "/"
     << swap_outs.load() << " syscalls(s/r)=" << transport.send_syscalls.load() << "/"
     << transport.recv_syscalls.load() << " dgrams(s/r)=" << transport.datagrams_sent.load()
     << "/" << transport.datagrams_recv.load()
     << " send_errors=" << transport.send_errors.load()
     << " acks_coalesced=" << transport.acks_coalesced.load()
     << " replica(msgs/bytes)=" << replica_msgs.load() << "/" << replica_bytes.load()
     << " replica_bytes_per_barrier="
     << (barriers.load() ? replica_bytes.load() / barriers.load() : 0)
     << " recoveries(total/mid_barrier)=" << recoveries.load() << "/"
     << recoveries_mid_barrier.load()
     << " commit_skips=" << recoveries_commit_skips.load()
     << " recover_wall_us=" << recover_wall_us.load()
     << " rehomed=" << objects_rehomed.load()
     << " reseeded=" << rings_reseeded.load()
     << " zombie_drops=" << transport.zombie_drops.load()
     << " service_items=" << service_items.load()
     << " net_wait_us=" << net_wait_us.load()
     << " disk_wait_us=" << disk_wait_us.load() << "\n";
}

}  // namespace lots
