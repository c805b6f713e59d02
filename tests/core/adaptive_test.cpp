// Paper §5 future-work features implemented in this repo: the adaptive
// coherence protocol (ping-pong home damping), and the run-length diff
// encoding every protocol mode shares.
#include <gtest/gtest.h>

#include <utility>

#include "core/api.hpp"

namespace lots::core {
namespace {

Config cfg(ProtocolMode mode) {
  Config c;
  c.nprocs = 4;
  c.dmm_bytes = 4u << 20;
  c.protocol = mode;
  return c;
}

/// Two nodes alternately write the same object across barriers — the RX
/// ping-pong pattern. Returns total home migrations.
uint64_t run_ping_pong(ProtocolMode mode, int rounds) {
  Runtime rt(cfg(mode));
  rt.run([&](int rank) {
    Pointer<int> obj;
    obj.alloc(512);
    lots::barrier();
    for (int round = 0; round < rounds; ++round) {
      const int writer = round % 2;  // alternates between nodes 0 and 1
      if (rank == writer) {
        for (int i = 0; i < 512; ++i) obj[i] = round * 1000 + i;
      }
      lots::barrier();
      for (int i = 0; i < 512; i += 97) {
        EXPECT_EQ(obj[i], round * 1000 + i);  // all nodes converge
      }
      lots::barrier();
    }
  });
  NodeStats total;
  rt.aggregate_stats(total);
  return total.home_migrations.load();
}

TEST(Adaptive, PingPongDampingPinsTheHome) {
  const uint64_t mixed = run_ping_pong(ProtocolMode::kMixed, 16);
  const uint64_t adaptive = run_ping_pong(ProtocolMode::kAdaptive, 16);
  // Mixed migrates the home on nearly every round; adaptive detects the
  // alternation after one full cycle and pins it.
  EXPECT_GE(mixed, 12u);
  EXPECT_LE(adaptive, mixed / 2);
}

TEST(Adaptive, StableWriterStillMigrates) {
  // Damping must not harm the common case: a stable single writer keeps
  // the home (exactly one migration to reach it).
  Runtime rt(cfg(ProtocolMode::kAdaptive));
  rt.run([](int rank) {
    Pointer<int> obj;
    obj.alloc(256);
    const int32_t initial_home = Runtime::self().home_of(obj.id());
    const int writer = (initial_home + 1) % 4;
    lots::barrier();
    for (int round = 0; round < 6; ++round) {
      if (rank == writer) {
        for (int i = 0; i < 256; ++i) obj[i] = round + i;
      }
      lots::barrier();
    }
    EXPECT_EQ(Runtime::self().home_of(obj.id()), writer);
    for (int i = 0; i < 256; i += 31) EXPECT_EQ(obj[i], 5 + i);
  });
}

TEST(Adaptive, AllAppsPatternsCorrect) {
  Runtime rt(cfg(ProtocolMode::kAdaptive));
  rt.run([](int rank) {
    Pointer<int> a, counter;
    a.alloc(128);
    counter.alloc(1);
    lots::barrier();
    if (rank == 0) {
      for (int i = 0; i < 128; ++i) a[i] = 7 * i;
    }
    lots::barrier();
    for (int i = 0; i < 128; i += 11) ASSERT_EQ(a[i], 7 * i);
    for (int round = 0; round < 10; ++round) {
      lots::acquire(5);
      counter[0] = counter[0] + 1;
      lots::release(5);
    }
    lots::barrier();
    ASSERT_EQ(counter[0], 40);
  });
}

TEST(Adaptive, RunEncodingShrinksContiguousDiffs) {
  // Full-object updates produce contiguous diff runs, which every mode
  // ships in the runs form (~4 B/word) instead of flat (idx,val) pairs
  // (~8 B/word). The flat size is counter-derived: each encode adds the
  // bytes it saved over flat to diff_bytes_saved.
  auto run_mode = [](ProtocolMode mode) {
    Runtime rt(cfg(mode));
    rt.run([](int) {
      Pointer<int> obj;
      obj.alloc(4096);
      lots::barrier();
      for (int round = 0; round < 8; ++round) {
        lots::acquire(1);
        for (int i = 0; i < 4096; ++i) obj[i] = obj[i] + 1;
        lots::release(1);
      }
      lots::barrier();
    });
    NodeStats total;
    rt.aggregate_stats(total);
    return std::pair{total.diff_payload_bytes.load(), total.diff_bytes_saved.load()};
  };
  for (const ProtocolMode mode : {ProtocolMode::kMixed, ProtocolMode::kAdaptive}) {
    const auto [payload, saved] = run_mode(mode);
    const uint64_t flat = payload + saved;
    EXPECT_GT(payload, 0u) << "mode " << static_cast<int>(mode);
    EXPECT_LE(payload, flat * 3 / 4) << "mode " << static_cast<int>(mode);
  }
}

}  // namespace
}  // namespace lots::core
