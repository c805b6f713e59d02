#include "core/object.hpp"

#include <gtest/gtest.h>

namespace lots::core {
namespace {

TEST(ObjectDirectory, IdsStartAtOneAndIncrement) {
  ObjectDirectory d;
  EXPECT_EQ(d.create(100, 0).id, 1u);
  EXPECT_EQ(d.create(200, 1).id, 2u);
  EXPECT_EQ(d.create(300, 2).id, 3u);
  EXPECT_EQ(d.count(), 3u);
}

TEST(ObjectDirectory, GetReturnsSameMeta) {
  ObjectDirectory d;
  ObjectMeta& m = d.create(128, 2);
  m.valid_epoch = 9;
  EXPECT_EQ(d.get(m.id).valid_epoch, 9u);
  EXPECT_EQ(d.get(m.id).size_bytes, 128u);
  EXPECT_EQ(d.get(m.id).home, 2);
}

TEST(ObjectDirectory, FindReturnsNullForUnknown) {
  ObjectDirectory d;
  EXPECT_EQ(d.find(42), nullptr);
  d.create(8, 0);
  EXPECT_NE(d.find(1), nullptr);
}

TEST(ObjectDirectory, RemoveErases) {
  ObjectDirectory d;
  const ObjectId id = d.create(8, 0).id;
  d.remove(id);
  EXPECT_EQ(d.find(id), nullptr);
  EXPECT_EQ(d.count(), 0u);
  // Ids are not reused (fresh declaration gets a fresh id).
  EXPECT_EQ(d.create(8, 0).id, 2u);
}

TEST(ObjectMeta, WordCountRoundsUp) {
  ObjectDirectory d;
  EXPECT_EQ(d.create(1, 0).words(), 1u);
  EXPECT_EQ(d.create(4, 0).words(), 1u);
  EXPECT_EQ(d.create(5, 0).words(), 2u);
  EXPECT_EQ(d.create(4096, 0).words(), 1024u);
}

TEST(ObjectMeta, DefaultsMatchInitialState) {
  ObjectDirectory d;
  const ObjectMeta& m = d.create(64, 3);
  EXPECT_EQ(m.share, ShareState::kValid);  // all-zero copies are coherent
  EXPECT_EQ(m.map, MapState::kUnmapped);   // mapping is lazy
  EXPECT_FALSE(m.on_disk);
  EXPECT_FALSE(m.twinned);
  EXPECT_EQ(m.valid_epoch, 0u);
  EXPECT_EQ(m.marks, ObjectMeta::kNoMarks);
}

TEST(ObjectMeta, FootprintIsATraceOfControlInformation) {
  // LOTS keeps "only a trace of control information for each object"
  // resident in the virtual address space (the paper). Every declared
  // object pays this per node, mapped or not, so a field that grows the
  // meta is a decision to take here, not a side effect.
  if constexpr (sizeof(void*) != 8) GTEST_SKIP() << "the pinned size is for LP64";
  EXPECT_EQ(sizeof(ObjectMeta), 96u);
}

TEST(ObjectDirectory, ForEachVisitsAll) {
  ObjectDirectory d;
  for (int i = 0; i < 10; ++i) d.create(8, 0);
  int n = 0;
  d.for_each([&](ObjectMeta&) { ++n; });
  EXPECT_EQ(n, 10);
}

}  // namespace
}  // namespace lots::core
