#include "storage/disk_store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/statvfs.h>
#include <sys/uio.h>
#include <unistd.h>

#include <array>
#include <filesystem>
#include <type_traits>

#include "common/clock.hpp"
#include "common/error.hpp"

namespace lots::storage {

DiskStore::DiskStore(const std::string& dir, int rank, DiskModel model, NodeStats* stats)
    : model_(model), stats_(stats) {
  std::filesystem::create_directories(dir);
  path_ = dir + "/node" + std::to_string(rank) + ".store";
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0600);
  if (fd_ < 0) throw SystemError("DiskStore: cannot open " + path_);
}

DiskStore::~DiskStore() {
  if (fd_ >= 0) {
    ::close(fd_);
    ::unlink(path_.c_str());
  }
}

Extent DiskStore::allocate(uint64_t length) {
  // First fit over the free list.
  for (auto it = free_by_offset_.begin(); it != free_by_offset_.end(); ++it) {
    if (it->second >= length) {
      Extent e{it->first, length};
      const uint64_t rest = it->second - length;
      const uint64_t rest_off = it->first + length;
      free_by_offset_.erase(it);
      if (rest > 0) free_by_offset_[rest_off] = rest;
      return e;
    }
  }
  Extent e{file_end_, length};
  file_end_ += length;
  return e;
}

void DiskStore::release(Extent e) {
  if (e.length == 0) return;
  auto [it, inserted] = free_by_offset_.emplace(e.offset, e.length);
  LOTS_CHECK(inserted, "DiskStore: double free of extent");
  // Coalesce with successor.
  auto next = std::next(it);
  if (next != free_by_offset_.end() && it->first + it->second == next->first) {
    it->second += next->second;
    free_by_offset_.erase(next);
  }
  // Coalesce with predecessor.
  if (it != free_by_offset_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second == it->first) {
      prev->second += it->second;
      free_by_offset_.erase(it);
      it = prev;
    }
  }
  // Trim the file tail when the last extent is free.
  if (it->first + it->second == file_end_) {
    file_end_ = it->first;
    free_by_offset_.erase(it);
    if (::ftruncate(fd_, static_cast<off_t>(file_end_)) != 0) {
      // Non-fatal: the space is still tracked as free in-memory.
    }
  }
}

// Moves the `bytes` of `parts` between memory and the file at `offset`
// with one pwritev (const parts) or preadv, resuming after a short
// transfer, then charges the modeled I/O time and counts the swap.
template <class Byte>
void DiskStore::transfer(std::span<const std::span<Byte>> parts, uint64_t offset, uint64_t bytes) {
  constexpr bool kWrite = std::is_const_v<Byte>;
  std::array<iovec, 4> iov{};  // an object image has three parts
  LOTS_CHECK(parts.size() <= iov.size(), "DiskStore: too many image parts");
  uint64_t sum = 0;
  for (size_t i = 0; i < parts.size(); ++i) {
    iov[i] = {const_cast<uint8_t*>(parts[i].data()), parts[i].size()};
    sum += parts[i].size();
  }
  LOTS_CHECK_EQ(sum, bytes, "DiskStore: image size mismatch");
  iovec* next = iov.data();
  for (uint64_t left = bytes; left > 0;) {
    const auto cnt = static_cast<int>(iov.data() + parts.size() - next);
    const auto at = static_cast<off_t>(offset + bytes - left);
    const ssize_t n = kWrite ? ::pwritev(fd_, next, cnt, at) : ::preadv(fd_, next, cnt, at);
    if (n <= 0) throw SystemError("DiskStore: vectored I/O failed on " + path_);
    left -= static_cast<uint64_t>(n);
    auto done = static_cast<size_t>(n);
    for (; left > 0 && done >= next->iov_len; ++next) done -= next->iov_len;
    if (left > 0) {
      next->iov_base = static_cast<uint8_t*>(next->iov_base) + done;
      next->iov_len -= done;
    }
  }
  const double us = model_.cost_us(bytes);
  modeled_io_us_ += static_cast<uint64_t>(us);
  if (stats_) {
    stats_->disk_wait_us.fetch_add(static_cast<uint64_t>(us), std::memory_order_relaxed);
    (kWrite ? stats_->swap_outs : stats_->swap_ins).fetch_add(1, std::memory_order_relaxed);
    (kWrite ? stats_->swap_bytes_out : stats_->swap_bytes_in)
        .fetch_add(bytes, std::memory_order_relaxed);
  }
  if (model_.time_scale > 0) precise_delay_us(us * model_.time_scale);
}

void DiskStore::write_object(uint64_t id, std::span<const std::span<const uint8_t>> parts) {
  uint64_t bytes = 0;
  for (const auto& p : parts) bytes += p.size();
  std::lock_guard lk(mu_);
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    it = objects_.emplace(id, allocate(bytes)).first;
    live_bytes_ += bytes;
  } else if (it->second.length != bytes) {  // else rewrite in place
    release(it->second);
    live_bytes_ = live_bytes_ - it->second.length + bytes;
    it->second = allocate(bytes);
  }
  transfer(parts, it->second.offset, bytes);
}

bool DiskStore::read_object(uint64_t id, std::span<const std::span<uint8_t>> parts) {
  std::lock_guard lk(mu_);
  auto it = objects_.find(id);
  if (it == objects_.end()) return false;
  transfer(parts, it->second.offset, it->second.length);
  return true;
}

void DiskStore::free_object(uint64_t id) {
  std::lock_guard lk(mu_);
  auto it = objects_.find(id);
  if (it == objects_.end()) return;
  live_bytes_ -= it->second.length;
  release(it->second);
  objects_.erase(it);
}

std::optional<uint64_t> DiskStore::size_of(uint64_t id) const {
  std::lock_guard lk(mu_);
  auto it = objects_.find(id);
  if (it == objects_.end()) return std::nullopt;
  return it->second.length;
}

uint64_t DiskStore::filesystem_free_bytes() const {
  struct statvfs vfs{};
  if (::statvfs(path_.c_str(), &vfs) != 0) return 0;
  return static_cast<uint64_t>(vfs.f_bavail) * vfs.f_frsize;
}

}  // namespace lots::storage
