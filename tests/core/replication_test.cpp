// Barrier-consistent replication accounting: what a home ships to its
// ring successors at each barrier, counted in replica_msgs /
// replica_bytes, and what a backup keeps afterwards.
//
// The accounting workload: 4 ranks, 16 objects of 4096 B. In superstep
// `it` object i is written by rank (i + k*it) % 4 — all 1024 words in
// the first superstep, the first 16 words after that — then a barrier,
// rank 0 reads the cumulative counters, and a second, quiet barrier
// keeps the read clear of the next superstep.
//  * k = 0: writers are stable, so after the first barrier every home
//    ships word diffs (16 words per object).
//  * k = 1: the writer moves every superstep, so every home is adopted
//    and ships full images.
// With R copies every home ships to R-1 successors: each count at R=3
// is exactly twice the R=2 one.
//
// A free is collective, so it also drops every backup's replica.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "core/api.hpp"
#include "core/runtime.hpp"

namespace lots::core {
namespace {

constexpr int kRanks = 4;
constexpr int kObjects = 16;
constexpr size_t kWords = 1024;  // 4096 B per object
constexpr int kSupersteps = 4;

struct Counts {
  uint64_t msgs;
  uint64_t bytes;
  bool operator==(const Counts&) const = default;
};

std::array<Counts, kSupersteps> run_accounting(int replication, int k) {
  Config cfg;
  cfg.nprocs = kRanks;
  cfg.replication = replication;
  Runtime rt(cfg);
  std::array<Counts, kSupersteps> seen{};
  rt.run([&](int rank) {
    std::array<Pointer<uint32_t>, kObjects> objs;
    for (auto& p : objs) p.alloc(kWords);
    for (int it = 0; it < kSupersteps; ++it) {
      const size_t words = it == 0 ? kWords : 16;
      for (int i = 0; i < kObjects; ++i) {
        if ((i + k * it) % kRanks != rank) continue;
        for (size_t w = 0; w < words; ++w) {
          objs[static_cast<size_t>(i)][w] =
              static_cast<uint32_t>((it + 1) * 100000 + w + 1);
        }
      }
      lots::barrier();
      if (rank == 0) {
        NodeStats total;
        rt.aggregate_stats(total);
        seen[static_cast<size_t>(it)] = {total.replica_msgs.load(), total.replica_bytes.load()};
      }
      lots::barrier();
    }
  });
  return seen;
}

constexpr std::array<Counts, kSupersteps> kStableWriters{
    {{4, 131'376}, {8, 134'688}, {12, 138'000}, {16, 141'312}}};
constexpr std::array<Counts, kSupersteps> kMovingWriters{
    {{4, 131'376}, {8, 262'752}, {12, 394'128}, {16, 525'504}}};

std::array<Counts, kSupersteps> doubled(const std::array<Counts, kSupersteps>& c) {
  std::array<Counts, kSupersteps> out{};
  for (size_t i = 0; i < c.size(); ++i) out[i] = {2 * c[i].msgs, 2 * c[i].bytes};
  return out;
}

TEST(Replication, StableWritersShipWordDiffsAfterTheFirstBarrier) {
  EXPECT_EQ(run_accounting(2, 0), kStableWriters);
}

TEST(Replication, MovingWritersShipFullImagesEveryBarrier) {
  EXPECT_EQ(run_accounting(2, 1), kMovingWriters);
}

TEST(Replication, ThreeCopiesShipTwiceTheBytes) {
  EXPECT_EQ(run_accounting(3, 0), doubled(kStableWriters));
  EXPECT_EQ(run_accounting(3, 1), doubled(kMovingWriters));
}

TEST(Replication, FreeDropsEveryBackupsReplica) {
  Config cfg;
  cfg.nprocs = kRanks;
  cfg.replication = 2;
  Runtime rt(cfg);
  std::array<size_t, kRanks> held{};
  rt.run([&](int rank) {
    std::array<Pointer<uint32_t>, kObjects> objs;
    for (auto& p : objs) p.alloc(kWords);
    for (int i = rank; i < kObjects; i += kRanks) objs[static_cast<size_t>(i)][0] = 1;
    lots::barrier();
    held[static_cast<size_t>(rank)] = Runtime::self().replica_count();
    for (auto& p : objs) p.free();
    lots::barrier();
  });
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(held[static_cast<size_t>(r)], static_cast<size_t>(kObjects / kRanks)) << "rank " << r;
    EXPECT_EQ(rt.node(r).replica_count(), 0u) << "rank " << r;
  }
}

}  // namespace
}  // namespace lots::core
