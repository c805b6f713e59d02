#include "net/message.hpp"

#include <gtest/gtest.h>

namespace lots::net {
namespace {

TEST(Codec, ScalarRoundTrip) {
  std::vector<uint8_t> buf;
  Writer w(buf);
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-42);
  w.i64(-1'000'000'000'000ll);
  w.f64(3.14159);

  Reader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1'000'000'000'000ll);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.done());
}

TEST(Codec, BytesAndStringRoundTrip) {
  std::vector<uint8_t> buf;
  Writer w(buf);
  const std::vector<uint8_t> data{1, 2, 3, 4, 5};
  w.bytes(data);
  w.str("hello dsm");
  w.str("");

  Reader r(buf);
  EXPECT_EQ(r.bytes(), data);
  EXPECT_EQ(r.str(), "hello dsm");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
}

TEST(Codec, BytesViewIsZeroCopy) {
  std::vector<uint8_t> buf;
  Writer w(buf);
  const std::vector<uint8_t> data{9, 8, 7};
  w.bytes(data);
  Reader r(buf);
  auto view = r.bytes_view();
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view.data(), buf.data() + 4);  // after the length prefix
}

TEST(Codec, OverrunThrows) {
  std::vector<uint8_t> buf;
  Writer w(buf);
  w.u16(7);
  Reader r(buf);
  r.u16();
  EXPECT_THROW(r.u32(), SystemError);
}

TEST(Codec, TruncatedLengthPrefixThrows) {
  std::vector<uint8_t> buf;
  Writer w(buf);
  w.u32(100);  // claims 100 bytes follow, none do
  Reader r(buf);
  EXPECT_THROW(r.bytes(), SystemError);
}

TEST(MessageWire, RoundTrip) {
  Message m;
  m.type = MsgType::kObjFetch;
  m.src = 3;
  m.dst = 7;
  m.seq = 12345;
  m.req_seq = 99;
  m.payload = {10, 20, 30};

  const auto wire = encode_message(m);
  EXPECT_EQ(wire.size(), m.wire_size());
  const Message d = decode_message(wire);
  EXPECT_EQ(d.type, MsgType::kObjFetch);
  EXPECT_EQ(d.src, 3);
  EXPECT_EQ(d.dst, 7);
  EXPECT_EQ(d.seq, 12345u);
  EXPECT_EQ(d.req_seq, 99u);
  EXPECT_EQ(d.payload, m.payload);
}

TEST(MessageWire, EmptyPayload) {
  Message m;
  m.type = MsgType::kPing;
  const Message d = decode_message(encode_message(m));
  EXPECT_TRUE(d.payload.empty());
}

TEST(MessageWire, LengthMismatchThrows) {
  Message m;
  m.type = MsgType::kPing;
  m.payload = {1, 2, 3};
  auto wire = encode_message(m);
  wire.pop_back();  // truncate
  EXPECT_THROW(decode_message(wire), SystemError);
}

TEST(MessageWire, TypeNamesCoverProtocol) {
  EXPECT_STREQ(to_string(MsgType::kObjFetch), "ObjFetch");
  EXPECT_STREQ(to_string(MsgType::kBarrierDone), "BarrierDone");
  EXPECT_STREQ(to_string(MsgType::kJiaBarrierEnter), "JiaBarrierEnter");
}

}  // namespace
}  // namespace lots::net
