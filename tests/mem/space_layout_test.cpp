#include "mem/space_layout.hpp"

#include <gtest/gtest.h>

#include <cstring>

namespace lots::mem {
namespace {

TEST(SpaceLayout, Fig3AddressInvariant) {
  // Paper Fig. 3: object at A has twin at A+S and control info at A+2S.
  SpaceLayout sp(1u << 20);
  const size_t s = sp.dmm_bytes();
  EXPECT_EQ(sp.twin(1234) - sp.dmm(1234), static_cast<ptrdiff_t>(s));
  EXPECT_EQ(reinterpret_cast<uint8_t*>(sp.ctrl_words(1234)) - sp.dmm(1234),
            static_cast<ptrdiff_t>(2 * s));
}

TEST(SpaceLayout, SegmentsAreIndependentlyWritable) {
  SpaceLayout sp(64 * 1024);
  std::memset(sp.dmm(0), 0xAA, 1024);
  std::memset(sp.twin(0), 0xBB, 1024);
  sp.ctrl_words(0)[0] = 0xDEADBEEF;
  EXPECT_EQ(sp.dmm(0)[0], 0xAA);
  EXPECT_EQ(sp.twin(0)[0], 0xBB);
  EXPECT_EQ(sp.ctrl_words(0)[0], 0xDEADBEEFu);
}

TEST(SpaceLayout, LargeReservationDoesNotCommitRam) {
  // The paper's 512 MB DMM region: reserving 3 * 512 MB must succeed and
  // not OOM because pages are lazily backed.
  SpaceLayout sp(512u << 20);
  sp.dmm(0)[0] = 1;                       // touch the first page only
  sp.dmm((512u << 20) - 4096)[0] = 2;     // and the last
  EXPECT_EQ(sp.dmm(0)[0], 1);
}

TEST(SpaceLayout, ControlWordPerDataWord) {
  SpaceLayout sp(64 * 1024);
  // Word i of the object at offset o is stamped by ctrl_words(o)[i].
  uint32_t* stamps = sp.ctrl_words(512);
  for (uint32_t i = 0; i < 16; ++i) stamps[i] = 100 + i;
  EXPECT_EQ(sp.ctrl_words(512)[15], 115u);
  // Offsets are byte-based, so stamps of adjacent objects do not alias.
  EXPECT_EQ(sp.ctrl_words(512 + 64)[0], sp.ctrl_words(512)[16]);
}

}  // namespace
}  // namespace lots::mem
