#include "core/coherence.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace lots::core {

void CoherenceEngine::ensure_twin(ObjectMeta& m, int thread) {
  LOTS_CHECK(m.map == MapState::kMapped, "ensure_twin: not mapped");
  const Mapper::Words w = mapper_.words(m);
  std::memcpy(w.twin(), w.data(), word_bytes(m));
  m.twinned = true;
  m.twin_writers = twin_writer_bit(thread);
  if (m.twin_listed) return;  // re-twinned since an eviction took its twin
  m.twin_listed = true;
  std::lock_guard g(twins_mu_);
  interval_twins_.push_back(m.id);
}

void CoherenceEngine::apply_pending(ObjectMeta& m) {
  LOTS_CHECK(m.map == MapState::kMapped, "apply_pending: not mapped");
  for (const DiffRecord& rec : m.pending) apply_incoming(m, rec);
  m.pending.clear();
}

void CoherenceEngine::apply_incoming(ObjectMeta& m, const DiffRecord& rec) {
  Mapper::Words w = mapper_.words(m);
  const size_t applied = apply_record(rec, w.data(), w.ts());
  stats_.diff_words_redundant.fetch_add(rec.words() - applied, std::memory_order_relaxed);
  m.newest_ts = std::max(m.newest_ts, rec.epoch);
  for (uint32_t t : rec.word_ts) m.newest_ts = std::max(m.newest_ts, t);
  if (m.twinned && applied) {
    // Mirror the accepted words into the twin so the next flush diffs
    // only this node's own writes. A word was accepted exactly when its
    // stamp now equals the record's epoch.
    for (size_t i = 0; i < rec.word_idx.size(); ++i) {
      const uint32_t wi = rec.word_idx[i];
      if (w.ts()[wi] == rec.ts_of(i)) {
        std::memcpy(w.twin() + static_cast<size_t>(wi) * 4, &rec.word_val[i], 4);
      }
    }
  }
  w.store();
}

void CoherenceEngine::apply_delivery(ObjectMeta& m, DiffRecord&& rec, int32_t self_rank) {
  const uint32_t rec_epoch = rec.epoch;
  if (m.map == MapState::kMapped || m.on_disk || m.home == self_rank) {
    apply_incoming(m, rec);
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

namespace {

/// Calls fn(word) for each set bit of a `words`-bit map, ascending.
template <class Fn>
void for_each_mark(const uint64_t* bits, uint32_t words, Fn&& fn) {
  for (uint32_t b = 0; b < (words + 63) / 64; ++b) {
    for (uint64_t x = bits[b]; x != 0; x &= x - 1) {
      fn(b * 64 + static_cast<uint32_t>(std::countr_zero(x)));
    }
  }
}

}  // namespace

std::vector<DiffRecord> CoherenceEngine::flush_interval(uint32_t flush_epoch, int thread) {
  LOTS_CHECK(thread >= 0, "flush_interval: a release flushes one thread's twins");
  std::vector<DiffRecord> out;
  std::lock_guard fg(flush_mu_);
  flush_twins(flush_epoch, thread, out);
  return out;
}

std::vector<ObjectId> CoherenceEngine::flush_barrier(uint32_t flush_epoch) {
  std::vector<ObjectId> mods, evicted;
  uint32_t evict_stamp;
  {
    std::vector<DiffRecord> none;
    std::lock_guard fg(flush_mu_);
    flush_twins(flush_epoch, kAllThreads, none);
    evict_stamp = cut_ + 1;
    for (ObjectId id : written_) {
      auto lk = dir_.lock_shard(id);
      const ObjectMeta* m = dir_.find(id);
      if (!m || m->marks == ObjectMeta::kNoMarks) continue;
      mods.push_back(id);
      if (m->evict_marked && flush_epoch != evict_stamp) evicted.push_back(id);
    }
  }
  // An eviction flush stamps cut_ + 1, this flush's stamp unless a lock
  // was taken since (flush_evicted). A grant may have handed a peer a
  // newer base since, whose diff_since would skip those words: raise them
  // to this flush's stamp, as a barrier flush of their twin would. App
  // threads are parked, so the bitmap needs no flush_mu_, and a parked
  // copy comes back with its shard lock down.
  for (ObjectId id : evicted) {
    auto lk = dir_.lock_shard(id);
    ObjectMeta& m = dir_.get(id);
    if (m.on_remote) mapper_.rehydrate_remote(m, lk);
    Mapper::Words w = mapper_.words(m);
    bool raised = false;
    for_each_mark(&mark_bits_[m.marks], m.words(), [&](uint32_t wi) {
      if (w.ts()[wi] != evict_stamp) return;
      w.ts()[wi] = flush_epoch;
      raised = true;
    });
    if (!raised) continue;
    m.newest_ts = std::max(m.newest_ts, flush_epoch);
    w.store();
  }
  std::sort(mods.begin(), mods.end());
  mods.erase(std::unique(mods.begin(), mods.end()), mods.end());
  return mods;
}

void CoherenceEngine::flush_twins(uint32_t flush_epoch, int thread,
                                  std::vector<DiffRecord>& out) {
  // Whole flushes serialize (the caller holds flush_mu_), then the
  // drained list is filtered per meta: a releasing thread flushes
  // exactly the twins its access checks touched (twin_writers), keeping
  // siblings' disjoint twins for their own releases; the barrier takes
  // all.
  std::vector<ObjectId> twins;
  {
    std::lock_guard g(twins_mu_);
    twins.swap(interval_twins_);
  }
  std::vector<ObjectId> keep;
  const bool release = thread != kAllThreads;
  for (ObjectId id : twins) {
    auto lk = dir_.lock_shard(id);
    ObjectMeta* m = dir_.find(id);
    if (!m) continue;
    if (m->twinned && release && (m->twin_writers & twin_writer_bit(thread)) == 0) {
      keep.push_back(id);  // untouched by this thread: not in this scope
      continue;
    }
    m->twin_listed = false;
    if (!m->twinned) continue;  // flushed at its eviction, or dropped there
    DiffRecord rec;
    rec.object = id;
    rec.epoch = flush_epoch;
    if (flush_twin(*m, flush_epoch, release ? &rec : nullptr) && release) {
      stats_.diffs_created.fetch_add(1, std::memory_order_relaxed);
      out.push_back(std::move(rec));  // the release ships it
    }
  }
  if (!keep.empty()) {
    // Back onto the list for their owners' releases (appended after
    // whatever ensure_twin added while we were flushing).
    std::lock_guard g(twins_mu_);
    interval_twins_.insert(interval_twins_.end(), keep.begin(), keep.end());
  }
}

bool CoherenceEngine::flush_twin(ObjectMeta& m, uint32_t flush_epoch, DiffRecord* rec) {
  m.twin_writers = 0;
  // The flush clears twinned/twin_writers: a sibling's cached ALB
  // entry must not skip the re-twin on its next access. (The epoch
  // stamp already defeats entries at every sync boundary; this bump
  // closes the window between the epoch advance and this clear.)
  dir_.bump_generation(m.id);
  // A dirty object swapped out mid-interval diffs its disk image in
  // place, without disturbing the DMM; storing it drops the twin.
  const size_t bytes = word_bytes(m);
  Mapper::Words w = mapper_.words(m);
  m.twinned = false;
  const bool fresh = m.marks == ObjectMeta::kNoMarks;
  if (fresh) {
    m.marks = mark_bits_.size();
    mark_bits_.resize(m.marks + (m.words() + 63) / 64);
  }
  const size_t changed = mark_twin_diff({w.data(), bytes}, {w.twin(), bytes},
                                        &mark_bits_[m.marks], w.ts(), flush_epoch, rec);
  const bool wrote = changed != 0;
  if (wrote) {
    // A whole rewrite gives every word this stamp: it becomes the floor.
    m.ts_floor = changed == m.words() ? flush_epoch : std::min(m.ts_floor, flush_epoch);
    m.newest_ts = std::max(m.newest_ts, flush_epoch);
  }
  // Read-only access: a mapping stays clean; an image drops its twin.
  if (wrote || m.map != MapState::kMapped) w.store();
  if (fresh && wrote) written_.push_back(m.id);
  if (fresh && !wrote) {
    mark_bits_.resize(m.marks);
    m.marks = ObjectMeta::kNoMarks;
  }
  return wrote;
}

void CoherenceEngine::flush_evicted(ObjectMeta& m, uint32_t epoch) {
  std::unique_lock fg(flush_mu_, std::try_to_lock);
  // An epoch past the cut means a lock was taken since the plan: a
  // section may be open, and its writes must ship on the token's chain.
  if (!fg.owns_lock() || epoch != cut_) return;
  if (flush_twin(m, cut_ + 1, nullptr)) m.evict_marked = true;
}

DiffRecord CoherenceEngine::barrier_record(ObjectMeta& m, std::unique_lock<std::mutex>& lk) {
  DiffRecord rec;
  if (m.marks == ObjectMeta::kNoMarks) return rec;
  // A spilled copy comes back first (app threads are parked: no
  // in-flight guard is needed while `lk` is down).
  if (m.on_remote) mapper_.rehydrate_remote(m, lk);
  // Every marked word ships at its current value under its current
  // stamp (coherence.hpp: why that equals shipping what this node
  // wrote), never re-stamped: a foreign newer word would be buried.
  LOTS_CHECK(m.map == MapState::kMapped || m.on_disk,
             "barrier record: written object " + std::to_string(m.id) + " lost its words");
  const Mapper::Words w = mapper_.words(m);
  rec.object = m.id;
  std::vector<uint32_t> ts;
  for_each_mark(&mark_bits_[m.marks], m.words(), [&](uint32_t wi) {
    uint32_t v;
    std::memcpy(&v, w.data() + static_cast<size_t>(wi) * 4, 4);
    rec.word_idx.push_back(wi);
    rec.word_val.push_back(v);
    ts.push_back(w.ts()[wi]);
    rec.epoch = std::max(rec.epoch, ts.back());
  });
  // One stamp for every word: the epoch carries it (a folded chain
  // record's form, fold_record).
  if (std::any_of(ts.begin(), ts.end(), [&](uint32_t t) { return t != rec.epoch; })) {
    rec.word_ts = std::move(ts);
  }
  stats_.diffs_created.fetch_add(1, std::memory_order_relaxed);
  return rec;
}

void CoherenceEngine::end_barrier(uint32_t new_epoch) {
  std::lock_guard fg(flush_mu_);
  for (ObjectId id : written_) {
    auto lk = dir_.lock_shard(id);
    if (ObjectMeta* m = dir_.find(id)) {
      m->marks = ObjectMeta::kNoMarks;
      m->evict_marked = false;
    }
  }
  cut_ = new_epoch;
  written_.clear();
  mark_bits_.clear();
}

std::vector<net::Message> CoherenceEngine::build_diff_batches(
    const std::map<int32_t, std::vector<DiffRecord>>& by_peer, NodeStats& stats) {
  std::vector<net::Message> msgs;
  msgs.reserve(by_peer.size());
  for (const auto& [peer, group] : by_peer) {
    if (group.empty()) continue;
    net::Message msg{.type = net::MsgType::kDiffBatch, .dst = peer};
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
    // The payload is a byte clone, not a record re-encode.
    net::Message msg{.type = net::MsgType::kDiffBatch, .dst = peer, .payload = payload};
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
