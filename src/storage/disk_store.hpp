// Per-node disk backing store for swapped-out shared objects.
//
// The headline feature of LOTS (paper §1, §3.3, §4.3) is that object
// data lives on the local disk and only enters the process space while
// being accessed; the shared object space is bounded by *disk free
// space*, not by the process space (117.77 GB in the paper's test).
//
// Each node owns one store file. Object images are placed in extents
// managed by a first-fit free list with coalescing, so repeated
// swap-out/swap-in cycles reuse space instead of growing the file
// without bound. An optional DiskModel imposes the modeled I/O time of
// the Table 1 platform rows on the calling thread.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>

#include "common/config.hpp"
#include "common/stats.hpp"

namespace lots::storage {

/// Location of one object image inside the store file.
struct Extent {
  uint64_t offset = 0;
  uint64_t length = 0;
};

class DiskStore {
 public:
  /// Opens (creating if needed) `dir/node<rank>.store`.
  DiskStore(const std::string& dir, int rank, DiskModel model = {}, NodeStats* stats = nullptr);
  ~DiskStore();
  DiskStore(const DiskStore&) = delete;
  DiskStore& operator=(const DiskStore&) = delete;

  /// Writes the image of object `id`; allocates (or reuses) an extent.
  /// Rewriting an object whose size is unchanged reuses its extent.
  void write_object(uint64_t id, std::span<const uint8_t> data) { write_object(id, {&data, 1}); }
  /// The same for an image given as consecutive parts, written with one
  /// pwritev straight from where they live (no staging copy).
  void write_object(uint64_t id, std::span<const std::span<const uint8_t>> parts);

  /// Reads the stored image of object `id` into `out` (size must match
  /// what was written). Returns false if the object has no image.
  bool read_object(uint64_t id, std::span<uint8_t> out) { return read_object(id, {&out, 1}); }
  /// The same into consecutive parts, with one preadv.
  bool read_object(uint64_t id, std::span<const std::span<uint8_t>> parts);
  /// Reads only the first out.size() bytes of the image of `id`.
  bool read_prefix(uint64_t id, std::span<uint8_t> out);

  /// Releases the extent of `id` (no-op if absent).
  void free_object(uint64_t id);

  [[nodiscard]] bool contains(uint64_t id) const { return size_of(id).has_value(); }
  /// Stored image size of `id`, if present.
  [[nodiscard]] std::optional<uint64_t> size_of(uint64_t id) const;
  [[nodiscard]] uint64_t stored_bytes() const {  ///< sum of live extents
    std::lock_guard lk(mu_);
    return live_bytes_;
  }
  [[nodiscard]] uint64_t file_bytes() const {  ///< current file size
    std::lock_guard lk(mu_);
    return file_end_;
  }
  [[nodiscard]] size_t object_count() const {
    std::lock_guard lk(mu_);
    return objects_.size();
  }

  /// Free space of the filesystem holding the store (the paper's bound
  /// on the shared object space; used by the Table 1 capacity probe).
  [[nodiscard]] uint64_t filesystem_free_bytes() const;

  /// Total modeled I/O microseconds charged so far (Table 1 accounting).
  [[nodiscard]] uint64_t modeled_io_us() const { return modeled_io_us_; }

 private:
  Extent allocate(uint64_t length);
  void release(Extent e);
  template <class Byte>
  void transfer(std::span<const std::span<Byte>> parts, uint64_t offset, uint64_t bytes);

  std::string path_;
  int fd_ = -1;
  DiskModel model_;
  NodeStats* stats_;

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Extent> objects_;
  /// Free extents ordered by offset so adjacent frees coalesce.
  std::map<uint64_t, uint64_t> free_by_offset_;  // offset -> length
  uint64_t file_end_ = 0;
  uint64_t live_bytes_ = 0;
  uint64_t modeled_io_us_ = 0;
};

}  // namespace lots::storage
