// Cross-feature integration: combinations of protocol modes, diff modes,
// swapping pressure, remote spill and the application workloads — plus a
// randomized model-checking test that compares the DSM against a local
// ground-truth mirror.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/api.hpp"
#include "workloads/apps.hpp"

namespace lots::core {
namespace {

TEST(Integration, EverythingOnAtOnce) {
  // Adaptive protocol + tiny DMM (heavy swapping) + local disk budget
  // with remote spill + accumulated diffs: the unflattering combination.
  Config c;
  c.nprocs = 4;
  c.dmm_bytes = 1u << 20;
  c.protocol = ProtocolMode::kAdaptive;
  c.diff_mode = DiffMode::kAccumulatedRecords;
  c.disk_capacity_bytes = 2u << 20;
  Runtime rt(c);
  rt.run([](int rank) {
    constexpr int kObjs = 24;
    constexpr int kInts = 24 * 1024;  // 96 KB objects, 2.25 MB total
    std::vector<Pointer<int>> objs(kObjs);
    for (auto& o : objs) o.alloc(kInts);
    lots::barrier();
    for (int round = 0; round < 3; ++round) {
      for (int k = 0; k < kObjs; ++k) {
        if (k % 4 == (rank + round) % 4) {
          auto& o = objs[static_cast<size_t>(k)];
          for (int i = 0; i < kInts; i += 128) o[static_cast<size_t>(i)] = round * 100 + k;
        }
      }
      lots::barrier();
      for (int k = 0; k < kObjs; ++k) {
        ASSERT_EQ(objs[static_cast<size_t>(k)][0], round * 100 + k);
      }
      lots::barrier();
    }
  });
}

TEST(Integration, AppsUnderSwappingPressure) {
  // The Fig. 8 workloads with a DMM too small for their working sets:
  // correctness must survive constant eviction (the paper's combined
  // performance + large-space story).
  Config c;
  c.nprocs = 4;
  c.dmm_bytes = 4u << 20;
  const auto sor = work::lots_sor(c, 64, 6, 11);
  EXPECT_TRUE(sor.ok);
  const auto me = work::lots_me(c, 32768, 12);
  EXPECT_TRUE(me.ok);
  EXPECT_GT(me.access_checks, 0u);
}

TEST(Integration, ProducerConsumerPipeline) {
  // Locks chaining through nodes: rank r consumes slot r-1 and produces
  // slot r, 12 rounds; a run_barrier paces each round (event-only).
  Config c;
  c.nprocs = 4;
  Runtime rt(c);
  rt.run([](int rank) {
    const int p = lots::num_procs();
    Pointer<long> slots;
    slots.alloc(static_cast<size_t>(p) + 1);
    lots::barrier();
    for (int round = 0; round < 12; ++round) {
      for (int stage = 0; stage < p; ++stage) {
        if (stage == rank) {
          lots::acquire(77);
          const long in = (rank == 0) ? (round + 1) : slots[static_cast<size_t>(rank)];
          slots[static_cast<size_t>(rank) + 1] = in * 2;
          lots::release(77);
        }
        lots::run_barrier();  // stage hand-off without memory sync
      }
      lots::barrier();
      ASSERT_EQ(slots[static_cast<size_t>(p)], (round + 1) << p);
    }
  });
}

struct ModelCase {
  ProtocolMode proto;
  DiffMode diff;
  uint64_t seed;
};

class ModelCheck : public ::testing::TestWithParam<ModelCase> {};

TEST_P(ModelCheck, RandomSingleWriterScheduleMatchesMirror) {
  // Randomized model checking: every object gets a random (per-round)
  // exclusive writer writing random values; each node keeps a private
  // mirror of what the shared state must be after each barrier and
  // verifies random samples. Runs across protocol/diff combinations.
  const auto [proto, diff, seed] = GetParam();
  Config c;
  c.nprocs = 4;
  c.dmm_bytes = 2u << 20;
  c.protocol = proto;
  c.diff_mode = diff;
  Runtime rt(c);
  rt.run([&, proto = proto, seed = seed](int rank) {
    (void)proto;
    constexpr int kObjs = 12;
    constexpr int kInts = 512;
    std::vector<Pointer<int>> objs(kObjs);
    for (auto& o : objs) o.alloc(kInts);
    std::vector<std::vector<int>> mirror(kObjs, std::vector<int>(kInts, 0));
    lots::Rng rng(seed);  // same seed on every node: same schedule
    lots::barrier();
    for (int round = 0; round < 8; ++round) {
      for (int k = 0; k < kObjs; ++k) {
        const int writer = static_cast<int>(rng.below(4));
        const int count = 1 + static_cast<int>(rng.below(64));
        for (int w = 0; w < count; ++w) {
          const auto idx = static_cast<size_t>(rng.below(kInts));
          const int val = static_cast<int>(rng.next_u32() >> 1);
          mirror[static_cast<size_t>(k)][idx] = val;  // everyone tracks
          if (writer == rank) objs[static_cast<size_t>(k)][idx] = val;
        }
      }
      lots::barrier();
      for (int probe = 0; probe < 64; ++probe) {
        const auto k = static_cast<size_t>(rng.below(kObjs));
        const auto idx = static_cast<size_t>(rng.below(kInts));
        ASSERT_EQ(objs[k][idx], mirror[k][idx])
            << "round " << round << " obj " << k << " idx " << idx;
      }
      lots::barrier();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ModelCheck,
    ::testing::Values(ModelCase{ProtocolMode::kMixed, DiffMode::kPerWordTimestamp, 1},
                      ModelCase{ProtocolMode::kMixed, DiffMode::kAccumulatedRecords, 2},
                      ModelCase{ProtocolMode::kWriteUpdateOnly, DiffMode::kPerWordTimestamp, 3},
                      ModelCase{ProtocolMode::kWriteInvalidateOnly, DiffMode::kPerWordTimestamp, 4},
                      ModelCase{ProtocolMode::kAdaptive, DiffMode::kPerWordTimestamp, 5},
                      ModelCase{ProtocolMode::kAdaptive, DiffMode::kAccumulatedRecords, 6}),
    [](const auto& info) { return "case" + std::to_string(info.param.seed); });

TEST(Integration, JiaAndLotsCoexistInOneProcess) {
  // The bench harness runs both runtimes back to back; their signal
  // handlers and thread pools must not interfere.
  Config c;
  c.nprocs = 2;
  const auto l = work::lots_sor(c, 32, 4, 9);
  const auto j = work::jia_sor(c, 32, 4, 9);
  const auto l2 = work::lots_me(c, 8192, 9);
  EXPECT_TRUE(l.ok);
  EXPECT_TRUE(j.ok);
  EXPECT_TRUE(l2.ok);
}

}  // namespace
}  // namespace lots::core
