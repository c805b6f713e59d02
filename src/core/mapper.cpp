// Mapper: map-in, swap-out, eviction and §5 remote swapping. See
// mapper.hpp for what the mapper owns and its locking contract.
#include "core/mapper.hpp"

#include <cstring>
#include <thread>

#include "core/runtime.hpp"
#include "mem/eviction.hpp"

namespace lots::core {
namespace {

// An object's disk image, the one statement of its layout:
//   [data words][timestamp words][twin words, only while twinned]
// evict writes it, map_in and Words read it, Words rewrites it, remote
// parking ships it verbatim.
size_t image_part_count(const ObjectMeta& m) { return m.twinned ? 3 : 2; }
size_t image_bytes(const ObjectMeta& m) { return image_part_count(m) * word_bytes(m); }

// A mapping's DMM data, control and twin ranges at `off`, in image
// order: the image is their first image_part_count(m), so disk I/O moves
// it with one vectored call and stages no copy.
template <class Byte>
std::array<std::span<Byte>, 3> mapped_image(const mem::SpaceLayout& space, size_t off,
                                            size_t bytes) {
  return {{{space.dmm(off), bytes},
           {reinterpret_cast<uint8_t*>(space.ctrl_words(off)), bytes},
           {space.twin(off), bytes}}};
}

}  // namespace

Mapper::Mapper(Node& node)
    : node_(node),
      space_(node.config().dmm_bytes),
      dmm_(node.config().dmm_bytes, node.config().page_bytes),
      disk_(node.config().disk_dir, node.rank(), node.config().disk, &node.stats_),
      stmt_pins_(static_cast<size_t>(node.config().threads_per_node)) {}

Mapper::Words::Words(Mapper& mapper, ObjectMeta& m) : mapper_(mapper), m_(m) {
  if (m.map == MapState::kMapped) {
    data_ = mapper.space_.dmm(m.dmm_offset);
    ts_ = mapper.space_.ctrl_words(m.dmm_offset);
    twin_ = mapper.space_.twin(m.dmm_offset);
    return;
  }
  LOTS_CHECK(m.on_disk || !m.twinned, "twinned unmapped object lost its disk image");
  image_.resize(image_bytes(m));  // zeros unless an image exists
  if (m.on_disk) LOTS_CHECK(mapper.disk_.read_object(m.id, image_), "disk image vanished");
  const size_t bytes = word_bytes(m);
  data_ = image_.data();
  ts_ = reinterpret_cast<uint32_t*>(image_.data() + bytes);
  twin_ = m.twinned ? image_.data() + 2 * bytes : nullptr;
}

void Mapper::Words::store() {
  if (m_.map == MapState::kMapped) {  // dirty: a kept image no longer holds it
    if (m_.on_disk) mapper_.disk_.free_object(m_.id);
    m_.on_disk = false;
    return;
  }
  mapper_.disk_.write_object(m_.id, std::span<const uint8_t>(image_.data(), image_bytes(m_)));
  m_.on_disk = true;
  std::vector<uint8_t>().swap(image_);  // free the buffer now, not at scope end
}

bool Mapper::stmt_pinned(ObjectId id) const {
  for (const StmtPins& p : stmt_pins_) {
    for (const auto& slot : p.ids) {
      if (slot.load(std::memory_order_relaxed) == id) return true;
    }
  }
  return false;
}

uint8_t* Mapper::map_in(ObjectMeta& m, std::unique_lock<std::mutex>& lk) {
  LOTS_CHECK(m.map == MapState::kUnmapped, "map_in: already mapped");
  const size_t bytes = word_bytes(m);
  if (m.on_remote) rehydrate_remote(m, lk);
  const size_t off = alloc_dmm_or_evict(m, lk);
  if (m.on_disk) {
    const auto parts = mapped_image<uint8_t>(space_, off, bytes);
    LOTS_CHECK(disk_.read_object(m.id, std::span(parts).first(image_part_count(m))),
               "disk image vanished");
    // Keep an untwinned image (it still counts) while the store is in
    // budget: until Words dirties the mapping, eviction only unmaps.
    const size_t cap = node_.config().disk_capacity_bytes;
    if (m.twinned || (cap > 0 && disk_.stored_bytes() > cap)) {
      disk_.free_object(m.id);
      m.on_disk = false;
    }
  } else {
    std::memset(space_.dmm(off), 0, bytes);
    std::memset(space_.ctrl_words(off), 0, bytes);
  }
  m.dmm_offset = off;
  m.map = MapState::kMapped;
  return space_.dmm(off);
}

void Mapper::rehydrate_remote(ObjectMeta& m, std::unique_lock<std::mutex>& lk) {
  lk.unlock();
  net::Message reply = node_.ep_.request(swap_msg(net::MsgType::kSwapGet, m.id));
  node_.ep_.send(swap_msg(net::MsgType::kSwapDrop, m.id));
  lk.lock();
  net::Reader r(reply.payload);
  disk_.write_object(m.id, r.bytes_view());
  m.on_remote = false;
  m.on_disk = true;
  node_.stats_.remote_swap_gets.fetch_add(1, std::memory_order_relaxed);
}

size_t Mapper::alloc_dmm_or_evict(ObjectMeta& target, std::unique_lock<std::mutex>& lk) {
  const size_t need = word_bytes(target);
  ObjectDirectory& dir = node_.dir_;
  int pinned_scans = 0;
  for (;;) {
    if (auto off = dmm_.alloc(need)) return *off;
    if (!node_.config().large_object_space) {
      throw UsageError(
          "DMM area exhausted in LOTS-x mode: the application does not fit in the "
          "process space (enable large_object_space)");
    }
    // Candidates: every settled mapped object but the target. The pin
    // window is widened by the app-thread count (N threads advance the
    // pin clock N times faster). The scan takes each shard lock in turn,
    // so the target's is released first; our guard keeps it still.
    lk.unlock();
    std::vector<mem::VictimCandidate> cands;
    bool saw_inflight = false;
    dir.for_each([&](ObjectMeta& m) {
      if (m.map != MapState::kMapped || m.id == target.id) return;
      saw_inflight |= m.inflight;
      // Statement pins exclude hard; the recency window is the paper's
      // soft LRU protection on top.
      if (m.inflight || stmt_pinned(m.id)) return;
      cands.push_back({m.id, word_bytes(m), m.access_stamp.load(std::memory_order_relaxed)});
    });
    mem::EvictionConfig ecfg;
    ecfg.pin_window *= static_cast<uint64_t>(node_.app_threads());
    auto victim = mem::choose_victim(cands, need, dir.newest_stamp(), ecfg);
    if (!victim) {
      if (saw_inflight) {
        // Every usable victim is mid-transition. If they are this
        // thread's OWN pipelined fetch window nobody else will settle
        // them: drain it, then rescan. Otherwise a sibling settles them
        // in a moment: yield and rescan.
        node_.stats_.evict_races.fetch_add(1, std::memory_order_relaxed);
        pinned_scans = 0;
        if (!FetchEngine::drain_active_window()) std::this_thread::yield();
        lk.lock();
        continue;
      }
      // Every candidate was statement-pinned. A sibling's ring moves
      // under the scan (each object is checked at another instant), so
      // on a node with several app threads only kPinnedScans such scans
      // in a row make the §5 case (any other scan restarts the count).
      // With one app thread every pin is this thread's own and cannot move.
      if (!node_.one_app_thread_ && ++pinned_scans < kPinnedScans) {
        node_.stats_.evict_races.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
        lk.lock();
        continue;
      }
      lk.lock();  // mapper calls throw only while holding lk
      throw UsageError(
          "cannot evict: every mapped object is pinned by the current statement "
          "(paper §5 limitation — enlarge the DMM area)");
    }
    pinned_scans = 0;
    {
      const auto vid = static_cast<ObjectId>(*victim);
      auto vlk = dir.lock_shard(vid);
      ObjectMeta& v = dir.get(vid);
      // Re-validate under the victim's lock: a sibling may have begun
      // evicting or touching it since the scan. Defeat its ALB entries,
      // THEN recheck the pins: against the hit path's pin-store -> fence
      // -> generation-load, the two seq_cst fences guarantee a racing
      // lock-free hit either saw the bump (and misses) or left a pin
      // this recheck sees (store-buffer argument). With one app thread
      // every pin is this evictor's own, already before the recheck in
      // program order, and neither side needs a CPU fence (Node::access).
      dir.bump_generation(vid);
      if (!node_.one_app_thread_) std::atomic_thread_fence(std::memory_order_seq_cst);
      if (v.inflight || v.map != MapState::kMapped || stmt_pinned(v.id)) {
        node_.stats_.evict_races.fetch_add(1, std::memory_order_relaxed);
      } else {
        v.inflight = true;
        InflightGuard vguard{dir, v, vlk};
        evict(v, vlk);
        node_.stats_.evictions.fetch_add(1, std::memory_order_relaxed);
      }
    }
    lk.lock();
  }
}

void Mapper::evict(ObjectMeta& m, std::unique_lock<std::mutex>& lk) {
  LOTS_CHECK(m.map == MapState::kMapped, "evict: not mapped");
  const size_t bytes = word_bytes(m);
  const size_t off = m.dmm_offset;
  // A twin equal to its data carries no write (its flush would diff
  // empty): drop it, so a read-only twin never reaches disk. Until the
  // node takes a lock in the interval, a written twin is flushed here,
  // as the barrier would flush it, and the image goes out untwinned;
  // after, a section's write must still ship on its token's chain.
  if (m.twinned && std::memcmp(space_.dmm(off), space_.twin(off), bytes) == 0) m.twinned = false;
  if (m.twinned) node_.coherence_.flush_evicted(m, node_.epoch_.load(std::memory_order_relaxed));
  const bool marked = m.marks != ObjectMeta::kNoMarks;
  if (!m.twinned && (m.on_disk || (!marked && m.share != ShareState::kValid))) {
    // Clean: a kept image equals the data while mapped (Words::store
    // frees it on any change). A stale copy is dropped with its image,
    // unless marked: it holds words the next barrier ships
    // (CoherenceEngine::barrier_record), so it is kept or written out.
    drop_mapping(m, /*keep_disk_image=*/m.share == ShareState::kValid || marked);
    return;
  }
  const Config& cfg = node_.config();
  const bool local_full = cfg.disk_capacity_bytes > 0 &&
                          disk_.stored_bytes() + image_bytes(m) > cfg.disk_capacity_bytes;
  const auto image = mapped_image<const uint8_t>(space_, off, bytes);
  const auto parts = std::span(image).first(image_part_count(m));
  if (!local_full || m.home == node_.rank_ || m.twinned || !m.pending.empty()) {
    // Within budget, or a home or dirty copy (twinned or with parked
    // updates): those stay local regardless.
    disk_.write_object(m.id, parts);
    m.on_disk = true;
    drop_mapping(m, /*keep_disk_image=*/true);
    return;
  }
  // §5 remote swapping: spill a clean non-home copy to the buddy's disk
  // (a home always answers fetches from local state; a marked copy comes
  // back before the barrier reads it). The image goes into the request
  // before the block is freed for reuse. Unmapping before the lock is
  // released makes a concurrent incoming diff land in `pending`; the
  // image holds the copy.
  net::Message req = swap_msg(net::MsgType::kSwapPut, m.id);
  net::Writer w(req.payload);
  w.u32(static_cast<uint32_t>(image_bytes(m)));  // as Writer::bytes frames one run
  for (const auto& part : parts) w.raw(part.data(), part.size());
  drop_mapping(m, /*keep_disk_image=*/true);
  lk.unlock();
  node_.ep_.request(std::move(req));  // acked: the image is durable remotely
  lk.lock();
  m.on_remote = true;
  node_.stats_.remote_swap_puts.fetch_add(1, std::memory_order_relaxed);
}

void Mapper::drop_mapping(ObjectMeta& m, bool keep_disk_image) {
  if (m.map == MapState::kMapped) {
    node_.dir_.bump_generation(m.id);  // defeat cached ALB pointers first
    dmm_.free(m.dmm_offset);
    m.map = MapState::kUnmapped;
    m.dmm_offset = 0;
  }
  if (!keep_disk_image) {
    if (m.on_disk) {
      disk_.free_object(m.id);
      m.on_disk = false;
    }
    if (m.on_remote) {
      node_.ep_.send(swap_msg(net::MsgType::kSwapDrop, m.id));
      m.on_remote = false;
    }
    m.valid_epoch = 0;  // no diff base left: next fetch is a full copy
  }
}

void Mapper::force_swap_out(ObjectId id) {
  ObjectDirectory& dir = node_.dir_;
  auto lk = dir.lock_shard(id);
  ObjectMeta& m = dir.get(id);
  // Hold the guard ourselves: evict may drop the lock around a
  // remote spill, and access() must not see the half-unmapped state.
  while (m.inflight) dir.shard_cv(id).wait(lk);
  if (m.map != MapState::kMapped) return;
  m.inflight = true;
  InflightGuard guard{dir, m, lk};
  evict(m, lk);
}

net::Message Mapper::swap_msg(net::MsgType type, ObjectId id) const {
  net::Message msg{.type = type,
                   .dst = (node_.rank_ + 1) % node_.nprocs(),
                   .flow = (static_cast<uint64_t>(node_.rank_) + 1) << 32 | id};
  net::Writer(msg.payload).u64(msg.flow);
  return msg;
}

void Mapper::on_swap_put(net::Message&& m) {
  net::Reader r(m.payload);
  const uint64_t key = r.u64();
  disk_.write_object(key, r.bytes_view());
  node_.ep_.reply(m, {.type = net::MsgType::kReply});
}

void Mapper::on_swap_get(net::Message&& m) {
  net::Reader r(m.payload);
  const uint64_t key = r.u64();
  std::vector<uint8_t> image(disk_.size_of(key).value_or(0));
  LOTS_CHECK(disk_.read_object(key, image), "remote swap image vanished");
  net::Message resp{.type = net::MsgType::kReply};
  net::Writer(resp.payload).bytes(image);
  node_.ep_.reply(m, std::move(resp));
}

void Mapper::on_swap_drop(net::Message&& m) {
  net::Reader r(m.payload);
  disk_.free_object(r.u64());
}

}  // namespace lots::core
