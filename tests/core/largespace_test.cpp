// The headline feature (paper §1, §4.3): a shared object space larger
// than the mapping window, backed by local disk, with correct data under
// multi-node coherence. These are scaled-down versions of the paper's
// Table 1 scenario (the ratio object_space / DMM is what matters).
#include <gtest/gtest.h>

#include "core/api.hpp"

namespace lots::core {
namespace {

TEST(LargeSpace, ObjectSpaceLargerThanDmmSingleNode) {
  Config c;
  c.nprocs = 1;
  c.dmm_bytes = 1u << 20;  // 1 MB window
  Runtime rt(c);
  rt.run([](int) {
    // 8 MB of shared objects through a 1 MB window: 8x over-commit.
    constexpr int kRows = 64;
    constexpr int kInts = 32 * 1024;  // 128 KB per row
    std::vector<Pointer<int>> rows(kRows);
    for (auto& r : rows) r.alloc(kInts);
    for (int k = 0; k < kRows; ++k) {
      for (int i = 0; i < kInts; i += 64) rows[static_cast<size_t>(k)][static_cast<size_t>(i)] = k * 1'000'000 + i;
      lots::barrier();
    }
    Node& n = Runtime::self();
    EXPECT_GT(n.stats().swap_outs.load(), 0u) << "over-commit must engage the disk";
    EXPECT_GT(n.disk().stored_bytes(), (1u << 20)) << "more object bytes on disk than DMM holds";
    for (int k = 0; k < kRows; ++k) {
      for (int i = 0; i < kInts; i += 64) {
        ASSERT_EQ(rows[static_cast<size_t>(k)][static_cast<size_t>(i)], k * 1'000'000 + i);
      }
    }
  });
}

TEST(LargeSpace, Table1StyleDistributed2DArray) {
  // The paper's Table 1 program: a shared 2-D array with total size
  // exceeding the window; each node adds numbers held by each row.
  Config c;
  c.nprocs = 4;
  c.dmm_bytes = 1u << 20;
  Runtime rt(c);
  std::array<long, 4> sums{};
  rt.run([&](int rank) {
    constexpr int kRows = 32;
    constexpr int kInts = 24 * 1024;  // 96 KB per row, 3 MB total vs 1 MB DMM
    std::vector<Pointer<int>> rows(kRows);
    for (auto& r : rows) r.alloc(kInts);
    // Round-robin row ownership; owners fill their rows.
    for (int k = rank; k < kRows; k += 4) {
      for (int i = 0; i < kInts; i += 16) rows[static_cast<size_t>(k)][static_cast<size_t>(i)] = k + i;
    }
    lots::barrier();
    // Every node sums a strided sample of EVERY row (forces fetches of
    // remote rows and swaps of local ones).
    long sum = 0;
    for (int k = 0; k < kRows; ++k) {
      for (int i = 0; i < kInts; i += 1024) sum += rows[static_cast<size_t>(k)][static_cast<size_t>(i)];
    }
    sums[static_cast<size_t>(rank)] = sum;
    lots::barrier();
  });
  for (int r = 1; r < 4; ++r) EXPECT_EQ(sums[static_cast<size_t>(r)], sums[0]);
  long expect = 0;
  for (int k = 0; k < 32; ++k) {
    for (int i = 0; i < 24 * 1024; i += 1024) expect += k + i;
  }
  EXPECT_EQ(sums[0], expect);
}

TEST(LargeSpace, DiskModelChargesIoTime) {
  Config c;
  c.nprocs = 1;
  c.dmm_bytes = 1u << 20;
  c.disk.seek_us = 100;
  c.disk.throughput_MBps = 50;
  Runtime rt(c);
  rt.run([](int) {
    constexpr int kRows = 24;
    std::vector<Pointer<int>> rows(kRows);
    for (auto& r : rows) r.alloc(32 * 1024);
    for (int k = 0; k < kRows; ++k) {
      rows[static_cast<size_t>(k)][0] = k;
      lots::barrier();
    }
    for (int k = 0; k < kRows; ++k) ASSERT_EQ(rows[static_cast<size_t>(k)][0], k);
    EXPECT_GT(Runtime::self().stats().disk_wait_us.load(), 0u);
  });
}

TEST(LargeSpace, SwappedObjectsKeepWordTimestamps) {
  // Swap images persist the control-area stamps: after a swap cycle, a
  // remote fetch must still be answerable as a per-word diff.
  Config c;
  c.nprocs = 2;
  c.dmm_bytes = 2u << 20;
  Runtime rt(c);
  rt.run([](int rank) {
    Pointer<int> a;
    a.alloc(64 * 1024);  // 256 KB
    lots::barrier();
    if (rank == 0) {
      for (int i = 0; i < 64 * 1024; ++i) a[i] = i;
    }
    lots::barrier();
    if (rank == 1) {
      volatile int warm = a[5];  // full fetch
      ASSERT_EQ(warm, 5);
    }
    lots::barrier();
    if (rank == 0) a[100] = -7;
    lots::barrier();
    if (rank == 0) {
      Runtime::self().force_swap_out(a.id());  // home data round-trips disk
    }
    lots::run_barrier();
    if (rank == 1) {
      ASSERT_EQ(a[100], -7);  // served from rank 0's disk image, as a diff
      ASSERT_EQ(a[5], 5);
    }
    lots::barrier();
  });
}

// The stamp range (ObjectMeta::ts_floor, newest_ts) on both ends of a
// refetch of a swapped-out 64 KB row: `rank` 0 is the requester, its
// home is rank 1.
constexpr int kRowInts = 16 * 1024;

Config stamp_range_cfg() {
  Config c;
  c.nprocs = 2;
  c.dmm_bytes = 1u << 20;
  return c;
}

/// Writes row[i] = base + i on every `stride`-th word.
void rewrite(Pointer<int>& row, int stride, int base) {
  for (int i = 0; i < kRowInts; i += stride) row[static_cast<size_t>(i)] = base + i;
}

TEST(LargeSpace, HomeAnswersABaseBelowItsFloorFromTheDataAlone) {
  // A home whose whole row was rewritten since the requester's base
  // ships a full copy without its stamps: from a swapped-out image it
  // reads the data part only. A sparse rewrite after that leaves the
  // floor where it was, so the next refetch still gets the diff form.
  Runtime rt(stamp_range_cfg());
  rt.run([](int rank) {
    Pointer<int> row;
    row.alloc(kRowInts);
    Node& n = Runtime::self();
    ASSERT_EQ(n.home_of(row.id()), 1);
    if (rank == 1) rewrite(row, 1, 1000);
    lots::barrier();
    if (rank == 0) {
      ASSERT_EQ(row[77], 1077);  // the requester's base
    }
    lots::barrier();
    if (rank == 1) {
      rewrite(row, 1, 2000);
      n.force_swap_out(row.id());
    }
    lots::barrier();
    const uint64_t bytes_in = n.stats().swap_bytes_in.load();
    lots::run_barrier();
    if (rank == 0) {
      for (int i = 0; i < kRowInts; ++i) ASSERT_EQ(row[static_cast<size_t>(i)], 2000 + i) << i;
    }
    lots::run_barrier();
    if (rank == 1) {
      EXPECT_EQ(n.stats().swap_bytes_in.load() - bytes_in, kRowInts * 4u)
          << "the home read more than the data words of its image";
    }
    lots::barrier();
    if (rank == 1) rewrite(row, 64, 3000);
    lots::barrier();
    const uint64_t diff_words = n.stats().diff_words_sent.load();
    lots::run_barrier();
    if (rank == 0) {
      for (int i = 0; i < kRowInts; ++i) {
        ASSERT_EQ(row[static_cast<size_t>(i)], (i % 64 == 0 ? 3000 : 2000) + i) << i;
      }
    }
    lots::run_barrier();
    if (rank == 1) {
      EXPECT_EQ(n.stats().diff_words_sent.load() - diff_words, kRowInts / 64u)
          << "a sparse rewrite did not ship as a diff";
    }
    lots::barrier();
  });
}

TEST(LargeSpace, FullCopyRefetchSkipsTheStaleImage) {
  // The requester's swapped-out copy goes stale; the home's reply
  // replaces every word, so the copy is mapped into a fresh block when
  // the reply lands and its stale image is freed unread.
  Runtime rt(stamp_range_cfg());
  rt.run([](int rank) {
    Pointer<int> row;
    row.alloc(kRowInts);
    Node& n = Runtime::self();
    ASSERT_EQ(n.home_of(row.id()), 1);
    if (rank == 1) rewrite(row, 1, 1000);
    lots::barrier();
    if (rank == 0) {
      ASSERT_EQ(row[77], 1077);
      n.force_swap_out(row.id());
      ASSERT_TRUE(n.disk().contains(row.id())) << "the valid copy left no image";
    }
    lots::barrier();
    if (rank == 1) rewrite(row, 1, 2000);
    lots::barrier();
    if (rank == 0) {
      ASSERT_FALSE(n.is_valid(row.id()));
      const uint64_t ins = n.stats().swap_ins.load();
      for (int i = 0; i < kRowInts; ++i) ASSERT_EQ(row[static_cast<size_t>(i)], 2000 + i) << i;
      EXPECT_EQ(n.stats().swap_ins.load(), ins) << "the refetch read the stale image";
      EXPECT_FALSE(n.disk().contains(row.id())) << "the stale image was kept";
    }
    lots::barrier();
  });
}

}  // namespace
}  // namespace lots::core
