#include "storage/disk_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/tempdir.hpp"
#include "common/threading.hpp"

namespace lots::storage {
namespace {

std::vector<uint8_t> blob(size_t n, uint64_t seed) {
  lots::Rng rng(seed);
  std::vector<uint8_t> v(n);
  for (auto& b : v) b = static_cast<uint8_t>(rng.next_u32());
  return v;
}

class DiskStoreTest : public ::testing::Test {
 protected:
  lots::TempDir dir_;
};

TEST_F(DiskStoreTest, WriteReadRoundTrip) {
  DiskStore store(dir_.path(), 0);
  const auto data = blob(10'000, 1);
  store.write_object(42, data);
  std::vector<uint8_t> out(data.size());
  ASSERT_TRUE(store.read_object(42, out));
  EXPECT_EQ(out, data);
}

TEST_F(DiskStoreTest, MissingObjectReturnsFalse) {
  DiskStore store(dir_.path(), 0);
  std::vector<uint8_t> out(8);
  EXPECT_FALSE(store.read_object(7, out));
  EXPECT_FALSE(store.contains(7));
}

TEST_F(DiskStoreTest, RewriteSameSizeReusesExtent) {
  DiskStore store(dir_.path(), 0);
  store.write_object(1, blob(4096, 1));
  const uint64_t file_after_first = store.file_bytes();
  store.write_object(1, blob(4096, 2));  // swap-out cycle of same object
  EXPECT_EQ(store.file_bytes(), file_after_first);
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(store.read_object(1, out));
  EXPECT_EQ(out, blob(4096, 2));
}

TEST_F(DiskStoreTest, FreeAndReuseExtents) {
  DiskStore store(dir_.path(), 0);
  store.write_object(1, blob(8192, 1));
  store.write_object(2, blob(8192, 2));
  store.write_object(3, blob(8192, 3));
  const uint64_t peak = store.file_bytes();
  store.free_object(2);
  EXPECT_EQ(store.stored_bytes(), 2 * 8192u);
  store.write_object(4, blob(8192, 4));  // must slot into the hole
  EXPECT_EQ(store.file_bytes(), peak);
  std::vector<uint8_t> out(8192);
  ASSERT_TRUE(store.read_object(4, out));
  EXPECT_EQ(out, blob(8192, 4));
}

TEST_F(DiskStoreTest, CoalescingShrinksFileTail) {
  DiskStore store(dir_.path(), 0);
  for (uint64_t id = 0; id < 8; ++id) store.write_object(id, blob(4096, id));
  for (uint64_t id = 0; id < 8; ++id) store.free_object(id);
  EXPECT_EQ(store.stored_bytes(), 0u);
  EXPECT_EQ(store.file_bytes(), 0u);  // all extents coalesced and trimmed
  EXPECT_EQ(store.object_count(), 0u);
}

TEST_F(DiskStoreTest, SizeChangeReallocates) {
  DiskStore store(dir_.path(), 0);
  store.write_object(1, blob(4096, 1));
  store.write_object(1, blob(16384, 2));
  std::vector<uint8_t> out(16384);
  ASSERT_TRUE(store.read_object(1, out));
  EXPECT_EQ(out, blob(16384, 2));
  EXPECT_EQ(store.stored_bytes(), 16384u);
}

TEST_F(DiskStoreTest, DoubleFreeIsNoop) {
  DiskStore store(dir_.path(), 0);
  store.write_object(1, blob(64, 1));
  store.free_object(1);
  store.free_object(1);
  EXPECT_EQ(store.object_count(), 0u);
}

TEST_F(DiskStoreTest, StatsCountSwapTraffic) {
  lots::NodeStats stats;
  DiskStore store(dir_.path(), 0, DiskModel{}, &stats);
  store.write_object(1, blob(1000, 1));
  std::vector<uint8_t> out(1000);
  store.read_object(1, out);
  EXPECT_EQ(stats.swap_outs.load(), 1u);
  EXPECT_EQ(stats.swap_ins.load(), 1u);
  EXPECT_EQ(stats.swap_bytes_out.load(), 1000u);
  EXPECT_EQ(stats.swap_bytes_in.load(), 1000u);
}

TEST_F(DiskStoreTest, DiskModelAccumulatesModeledTime) {
  DiskModel model;
  model.seek_us = 100;
  model.throughput_MBps = 10;  // 10 bytes/us
  DiskStore store(dir_.path(), 0, model);
  store.write_object(1, blob(10'000, 1));
  // 100 us seek + 1000 us transfer
  EXPECT_EQ(store.modeled_io_us(), 1100u);
}

TEST_F(DiskStoreTest, VectoredImageReadsBackThroughBothForms) {
  // An image written as parts (data, stamps, twin) is one image on disk:
  // the flat read sees the parts back to back, the vectored read splits
  // them at any boundaries, and the store counts and charges it once.
  lots::NodeStats stats;
  DiskModel model;
  model.seek_us = 100;
  model.throughput_MBps = 10;
  DiskStore store(dir_.path(), 0, model, &stats);
  const auto data = blob(3000, 1), stamps = blob(3000, 2), twin = blob(3000, 3);
  const std::array<std::span<const uint8_t>, 3> parts{data, stamps, twin};
  store.write_object(9, parts);
  EXPECT_EQ(store.size_of(9), 9000u);
  EXPECT_EQ(stats.swap_outs.load(), 1u);
  EXPECT_EQ(stats.swap_bytes_out.load(), 9000u);
  EXPECT_EQ(store.modeled_io_us(), 1000u);  // 100 us seek + 900 us transfer

  std::vector<uint8_t> flat(9000);
  ASSERT_TRUE(store.read_object(9, flat));
  std::vector<uint8_t> want(data);
  want.insert(want.end(), stamps.begin(), stamps.end());
  want.insert(want.end(), twin.begin(), twin.end());
  EXPECT_EQ(flat, want);

  std::vector<uint8_t> a(1), b(5000), c(0), d(3999);
  const std::array<std::span<uint8_t>, 4> split{a, b, c, d};
  ASSERT_TRUE(store.read_object(9, split));
  std::vector<uint8_t> joined(a);
  joined.insert(joined.end(), b.begin(), b.end());
  joined.insert(joined.end(), d.begin(), d.end());
  EXPECT_EQ(joined, want);
  EXPECT_EQ(stats.swap_ins.load(), 2u);
  EXPECT_EQ(stats.swap_bytes_in.load(), 18000u);

  // A same-size vectored rewrite lands in place.
  const auto twin2 = blob(3000, 4);
  const std::array<std::span<const uint8_t>, 3> parts2{data, stamps, twin2};
  store.write_object(9, parts2);
  EXPECT_EQ(store.file_bytes(), 9000u);
  ASSERT_TRUE(store.read_object(9, flat));
  EXPECT_TRUE(std::equal(twin2.begin(), twin2.end(), flat.begin() + 6000));
}

TEST_F(DiskStoreTest, PerNodeFilesAreIndependent) {
  DiskStore a(dir_.path(), 0), b(dir_.path(), 1);
  a.write_object(1, blob(128, 1));
  std::vector<uint8_t> out(128);
  EXPECT_FALSE(b.read_object(1, out));
  b.write_object(1, blob(128, 9));
  ASSERT_TRUE(a.read_object(1, out));
  EXPECT_EQ(out, blob(128, 1));  // node 0's image untouched by node 1
}

TEST_F(DiskStoreTest, ConcurrentAccessFromTwoThreads) {
  // App thread swaps while the service thread reads for remote fetches.
  DiskStore store(dir_.path(), 0);
  lots::run_spmd(2, [&](int rank) {
    for (uint64_t i = 0; i < 200; ++i) {
      const uint64_t id = static_cast<uint64_t>(rank) * 1000 + i;
      store.write_object(id, blob(512, id));
      std::vector<uint8_t> out(512);
      ASSERT_TRUE(store.read_object(id, out));
      ASSERT_EQ(out, blob(512, id));
      if (i % 3 == 0) store.free_object(id);
    }
  });
}

TEST_F(DiskStoreTest, FilesystemFreeBytesProbe) {
  DiskStore store(dir_.path(), 0);
  // The paper's bound on object space: disk free space (117.77 GB in
  // their Table 1 run). Just assert the probe reports something sane.
  EXPECT_GT(store.filesystem_free_bytes(), 1u << 20);
}

TEST_F(DiskStoreTest, ManySmallObjectsStressExtents) {
  DiskStore store(dir_.path(), 0);
  lots::Rng rng(77);
  std::vector<std::pair<uint64_t, size_t>> live;
  for (uint64_t id = 0; id < 500; ++id) {
    const size_t n = 16 + rng.below(2048);
    store.write_object(id, blob(n, id));
    live.emplace_back(id, n);
    if (rng.unit() < 0.4 && !live.empty()) {
      const size_t k = rng.below(live.size());
      store.free_object(live[k].first);
      live.erase(live.begin() + static_cast<ptrdiff_t>(k));
    }
  }
  for (auto [id, n] : live) {
    std::vector<uint8_t> out(n);
    ASSERT_TRUE(store.read_object(id, out));
    ASSERT_EQ(out, blob(n, id));
  }
}

}  // namespace
}  // namespace lots::storage
