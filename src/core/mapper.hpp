// The mapper: dynamic memory mapping (paper §3.2-3.3) and §5 remote
// swapping. It owns the process-space partition, the DMM allocator, the
// disk store and the statement-pin rings, and every mapping transition:
// map-in, swap-out, eviction, dropping a copy, parking a clean copy on
// the swap buddy's disk (the kSwap* handlers are the buddy side). Only
// mapper.cpp knows the disk image layout; everyone else reaches an
// object's words through Words.
//
// Locking: map_in, rehydrate_remote and drop_mapping run with the
// object's shard lock held via `lk` AND its in-flight guard owned by the
// caller, which keeps the mapping state single-writer while `lk` is
// released around remote-swap requests and eviction scans. They throw
// only while holding `lk`. words() needs only the shard lock.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/object.hpp"
#include "mem/dmm_allocator.hpp"
#include "mem/space_layout.hpp"
#include "net/message.hpp"
#include "storage/disk_store.hpp"

namespace lots::core {

class Node;

class Mapper {
 public:
  explicit Mapper(Node& node);
  Mapper(const Mapper&) = delete;
  Mapper& operator=(const Mapper&) = delete;

  /// One object's data words, per-word timestamps and twin, wherever
  /// they live: mapped, the DMM/control/twin areas, edited in place;
  /// swapped out, a copy of the disk image that store() writes back;
  /// neither, zeros that store() materializes (only the home does so).
  class Words {
   public:
    [[nodiscard]] uint8_t* data() const { return data_; }
    [[nodiscard]] uint32_t* ts() const { return ts_; }
    /// Always there while mapped; in an image only while twinned.
    [[nodiscard]] uint8_t* twin() const { return twin_; }
    /// Ends a view that changed the words. An image is written back
    /// (its twin only while still twinned), setting on_disk; a mapping
    /// is marked dirty: its kept image is freed. Read-only views skip it.
    void store();

   private:
    friend class Mapper;
    Words(Mapper& mapper, ObjectMeta& m);
    Mapper& mapper_;
    ObjectMeta& m_;
    std::vector<uint8_t> image_;  ///< empty while mapped
    uint8_t* data_;
    uint32_t* ts_;
    uint8_t* twin_;
  };
  Words words(ObjectMeta& m) { return Words(*this, m); }
  /// Data address of a mapped object.
  [[nodiscard]] uint8_t* data(const ObjectMeta& m) const { return space_.dmm(m.dmm_offset); }

  /// Maps an unmapped object (evicting as needed) from its disk image —
  /// pulled back first when parked on the buddy — or as zeros. An
  /// untwinned image is kept while the store is within its budget. With
  /// `discard` (an untwinned copy with no parked image) the local image
  /// is freed unread and the block is left as it was: the caller writes
  /// every data word and stamp.
  uint8_t* map_in(ObjectMeta& m, std::unique_lock<std::mutex>& lk, bool discard = false);
  /// An unmapped copy's data words (zeros without a local image), read
  /// into `out` (word_bytes(m) long) without its stamps or twin.
  void read_data(const ObjectMeta& m, std::span<uint8_t> out);
  /// Pulls a parked image back onto the local disk (kSwapGet + kSwapDrop).
  void rehydrate_remote(ObjectMeta& m, std::unique_lock<std::mutex>& lk);
  /// Frees the DMM block; unless `keep_disk_image`, also the local and the
  /// parked image (the copy then has no diff base left).
  void drop_mapping(ObjectMeta& m, bool keep_disk_image);
  void force_swap_out(ObjectId id);  ///< behind Node::force_swap_out
  /// Pins `id` in app thread `thread`'s ring: no eviction unmaps an object
  /// in any ring, so one statement's last kStmtPinSlots operands stay put.
  /// Inline: every access check, ALB hits included, runs it.
  void stmt_pin(ObjectId id, int thread) {
    StmtPins& p = stmt_pins_[static_cast<size_t>(thread)];
    p.ids[p.cursor++ % kStmtPinSlots].store(id, std::memory_order_relaxed);
  }

  // -- §5 remote swapping, buddy side (service thread; disk work only) --
  void on_swap_put(net::Message&& m);
  void on_swap_get(net::Message&& m);
  void on_swap_drop(net::Message&& m);

  storage::DiskStore& disk() { return disk_; }
  mem::DmmAllocator& dmm() { return dmm_; }

 private:
  static constexpr size_t kStmtPinSlots = 8;
  /// Consecutive scans that must all find every candidate pinned before
  /// eviction gives up, on a node with several app threads
  /// (alloc_dmm_or_evict). A bound, not a measured need.
  static constexpr int kPinnedScans = 64;
  /// Written by its thread on every access check, so it gets a cache
  /// line of its own: sharing one with another node's hot state slowed
  /// the access path about 3x, in whichever heap layout put them there.
  struct alignas(64) StmtPins {
    std::array<std::atomic<uint32_t>, kStmtPinSlots> ids{};  ///< evictors read them
    uint32_t cursor = 0;  ///< owner thread only
  };
  [[nodiscard]] bool stmt_pinned(ObjectId id) const;

  /// Unmaps a settled object whose guard the caller owns: drops a twin
  /// equal to its data and flushes a written one until the node takes a
  /// lock in the interval, then a dirty copy writes its image (or parks
  /// it on the buddy), a valid clean one only unmaps, a stale one is
  /// dropped.
  void evict(ObjectMeta& m, std::unique_lock<std::mutex>& lk);
  size_t alloc_dmm_or_evict(ObjectMeta& target, std::unique_lock<std::mutex>& lk);
  /// A kSwap* message for this node's image of `id` to the buddy (the
  /// next rank), keyed (rank+1) << 32 | id. The key is also the flow: a
  /// drop never overtakes a put of the same image on a striped transport.
  [[nodiscard]] net::Message swap_msg(net::MsgType type, ObjectId id) const;

  Node& node_;
  mem::SpaceLayout space_;
  mem::DmmAllocator dmm_;
  storage::DiskStore disk_;
  std::vector<StmtPins> stmt_pins_;  ///< one per app thread
};

}  // namespace lots::core
