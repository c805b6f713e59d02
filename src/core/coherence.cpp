#include "core/coherence.hpp"

#include <algorithm>
#include <cstring>

namespace lots::core {

void CoherenceEngine::ensure_twin(ObjectMeta& m, int thread) {
  LOTS_CHECK(m.map == MapState::kMapped, "ensure_twin: not mapped");
  std::memcpy(space_.twin(m.dmm_offset), space_.dmm(m.dmm_offset), word_bytes(m));
  m.twinned = true;
  m.twin_writers = twin_writer_bit(thread);
  std::lock_guard g(twins_mu_);
  interval_twins_.push_back(m.id);
}

void CoherenceEngine::apply_pending(ObjectMeta& m) {
  LOTS_CHECK(m.map == MapState::kMapped, "apply_pending: not mapped");
  uint32_t complete_to = 0;
  for (const DiffRecord& rec : m.pending) {
    apply_incoming(m, rec);
    if (rec.completes_to_epoch) complete_to = std::max(complete_to, rec.epoch);
  }
  m.pending.clear();
  // A prefetch landing's diff-since-base (or full copy) makes the copy
  // complete to the home's cut — but only once it is actually applied.
  if (complete_to > m.valid_epoch) m.valid_epoch = complete_to;
}

void CoherenceEngine::apply_incoming(ObjectMeta& m, const DiffRecord& rec) {
  LOTS_CHECK(m.map == MapState::kMapped, "apply_incoming: not mapped");
  uint8_t* data = space_.dmm(m.dmm_offset);
  uint32_t* ts = space_.ctrl_words(m.dmm_offset);
  const size_t applied = apply_record(rec, data, ts);
  stats_.diff_words_redundant.fetch_add(rec.words() - applied, std::memory_order_relaxed);
  if (m.twinned && applied) {
    // Mirror the accepted words into the twin so the next flush diffs
    // only this node's own writes. A word was accepted exactly when its
    // stamp now equals the record's epoch.
    uint8_t* twin = space_.twin(m.dmm_offset);
    for (size_t i = 0; i < rec.word_idx.size(); ++i) {
      const uint32_t wi = rec.word_idx[i];
      if (ts[wi] == rec.ts_of(i)) {
        std::memcpy(twin + static_cast<size_t>(wi) * 4, &rec.word_val[i], 4);
      }
    }
  }
}

void CoherenceEngine::apply_delivery(ObjectMeta& m, DiffRecord&& rec, int32_t self_rank) {
  const uint32_t rec_epoch = rec.epoch;
  const size_t bytes = word_bytes(m);
  if (m.map == MapState::kMapped) {
    apply_incoming(m, rec);
  } else if (m.on_disk) {
    std::vector<uint8_t> image((m.twinned ? 3 : 2) * bytes);
    LOTS_CHECK(disk_.read_object(rec.object, image), "diff target image vanished");
    apply_record(rec, image.data(), reinterpret_cast<uint32_t*>(image.data() + bytes));
    disk_.write_object(rec.object, image);
  } else if (m.home == self_rank) {
    // The home must materialize the master copy even if it never
    // touched the object itself.
    std::vector<uint8_t> image(2 * bytes, 0);
    apply_record(rec, image.data(), reinterpret_cast<uint32_t*>(image.data() + bytes));
    disk_.write_object(rec.object, image);
    m.on_disk = true;
  } else {
    // A parked update makes the fast-path predicate `pending.empty()`
    // false: defeat any ALB entry still pointing at the object.
    m.pending.push_back(std::move(rec));
    dir_.bump_generation(m.id);
  }
  if (m.home == self_rank) {
    m.valid_epoch = std::max(m.valid_epoch, rec_epoch);
  }
}

std::vector<DiffRecord> CoherenceEngine::flush_interval(uint32_t flush_epoch, int thread) {
  // Whole flushes serialize (see flush_mu_ comment), then the drained
  // list is filtered per meta: a releasing thread flushes exactly the
  // twins its access checks touched (twin_writers), keeping siblings'
  // disjoint twins for their own releases; the barrier takes all.
  std::lock_guard fg(flush_mu_);
  std::vector<ObjectId> twins;
  {
    std::lock_guard g(twins_mu_);
    twins.swap(interval_twins_);
  }
  std::vector<ObjectId> keep;
  std::vector<DiffRecord> out;
  for (ObjectId id : twins) {
    auto lk = dir_.lock_shard(id);
    ObjectMeta* m = dir_.find(id);
    if (!m || !m->twinned) continue;
    if (thread != kAllThreads && (m->twin_writers & twin_writer_bit(thread)) == 0) {
      keep.push_back(id);  // untouched by this thread: not in this scope
      continue;
    }
    m->twin_writers = 0;
    // The flush clears twinned/twin_writers: a sibling's cached ALB
    // entry must not skip the re-twin on its next access. (The epoch
    // stamp already defeats entries at every sync boundary; this bump
    // closes the window between the epoch advance and this clear.)
    dir_.bump_generation(id);
    const size_t bytes = word_bytes(*m);
    DiffRecord rec;
    if (m->map == MapState::kMapped) {
      rec = compute_twin_diff(id, flush_epoch, {space_.dmm(m->dmm_offset), bytes},
                              {space_.twin(m->dmm_offset), bytes});
      m->twinned = false;
      if (rec.word_idx.empty()) continue;  // read-only access: nothing to do
      uint32_t* ts = space_.ctrl_words(m->dmm_offset);
      for (uint32_t wi : rec.word_idx) ts[wi] = flush_epoch;
    } else {
      // The dirty object was swapped out mid-interval: diff the disk
      // image in place, without disturbing the DMM.
      LOTS_CHECK(m->on_disk, "twinned unmapped object lost its disk image");
      std::vector<uint8_t> image(3 * bytes);
      LOTS_CHECK(disk_.read_object(id, image), "flush: disk image vanished");
      rec = compute_twin_diff(id, flush_epoch, {image.data(), bytes},
                              {image.data() + 2 * bytes, bytes});
      m->twinned = false;
      auto* ts = reinterpret_cast<uint32_t*>(image.data() + bytes);
      for (uint32_t wi : rec.word_idx) ts[wi] = flush_epoch;
      disk_.write_object(id, std::span<const uint8_t>(image.data(), 2 * bytes));
      if (rec.word_idx.empty()) continue;
    }
    stats_.diffs_created.fetch_add(1, std::memory_order_relaxed);
    // Coalesce into the standing interval record: keep the newest value
    // and stamp per word instead of appending one record per interval.
    m->local_writes.push_back(rec);
    if (m->local_writes.size() > 1) {
      uint64_t redundant = 0;
      DiffRecord merged = merge_records(m->local_writes, /*since_epoch=*/0, &redundant);
      stats_.merge_redundant_words.fetch_add(redundant, std::memory_order_relaxed);
      m->local_writes.clear();
      m->local_writes.push_back(std::move(merged));
    }
    out.push_back(std::move(rec));
  }
  if (!keep.empty()) {
    // Back onto the list for their owners' releases (appended after
    // whatever ensure_twin added while we were flushing).
    std::lock_guard g(twins_mu_);
    interval_twins_.insert(interval_twins_.end(), keep.begin(), keep.end());
  }
  return out;
}

std::vector<net::Message> CoherenceEngine::build_diff_batches(
    const std::map<int32_t, std::vector<DiffRecord>>& by_peer, NodeStats& stats) {
  std::vector<net::Message> msgs;
  msgs.reserve(by_peer.size());
  for (const auto& [peer, group] : by_peer) {
    if (group.empty()) continue;
    net::Message msg;
    msg.type = net::MsgType::kDiffBatch;
    msg.dst = peer;
    net::Writer w(msg.payload);
    w.u32(static_cast<uint32_t>(group.size()));
    uint64_t saved = 0;
    const size_t before = msg.payload.size();
    for (const DiffRecord& rec : group) {
      saved += encode_record(w, rec);
      stats.diff_words_sent.fetch_add(rec.words(), std::memory_order_relaxed);
    }
    stats.diff_payload_bytes.fetch_add(msg.payload.size() - before,
                                       std::memory_order_relaxed);
    stats.diff_bytes_saved.fetch_add(saved, std::memory_order_relaxed);
    stats.diff_batch_msgs.fetch_add(1, std::memory_order_relaxed);
    stats.diff_records_batched.fetch_add(group.size(), std::memory_order_relaxed);
    msgs.push_back(std::move(msg));
  }
  return msgs;
}

std::vector<net::Message> CoherenceEngine::build_broadcast_batches(
    std::span<const DiffRecord> records, int nprocs, int self_rank, NodeStats& stats) {
  std::vector<net::Message> msgs;
  if (records.empty() || nprocs <= 1) return msgs;
  std::vector<uint8_t> payload;
  net::Writer w(payload);
  w.u32(static_cast<uint32_t>(records.size()));
  uint64_t words = 0;
  uint64_t saved = 0;
  const size_t before = payload.size();
  for (const DiffRecord& rec : records) {
    saved += encode_record(w, rec);
    words += rec.words();
  }
  const uint64_t payload_bytes = payload.size() - before;
  msgs.reserve(static_cast<size_t>(nprocs - 1));
  for (int peer = 0; peer < nprocs; ++peer) {
    if (peer == self_rank) continue;
    net::Message msg;
    msg.type = net::MsgType::kDiffBatch;
    msg.dst = peer;
    msg.payload = payload;  // byte clone, not a record re-encode
    stats.diff_words_sent.fetch_add(words, std::memory_order_relaxed);
    stats.diff_payload_bytes.fetch_add(payload_bytes, std::memory_order_relaxed);
    stats.diff_bytes_saved.fetch_add(saved, std::memory_order_relaxed);
    stats.diff_batch_msgs.fetch_add(1, std::memory_order_relaxed);
    stats.diff_records_batched.fetch_add(records.size(), std::memory_order_relaxed);
    msgs.push_back(std::move(msg));
  }
  return msgs;
}

}  // namespace lots::core
