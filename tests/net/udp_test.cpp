#include "net/udp.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <set>
#include <thread>

#include "common/rng.hpp"

namespace lots::net {
namespace {

// Distinct port blocks per test to avoid rebind races.
uint16_t next_base_port() {
  static std::atomic<uint16_t> port{27100};
  return port.fetch_add(16);
}

Message msg(int dst, MsgType type, std::vector<uint8_t> payload = {}, uint64_t flow = 0) {
  Message m;
  m.type = type;
  m.dst = dst;
  m.seq = 1;
  m.flow = flow;
  m.payload = std::move(payload);
  return m;
}

TEST(Udp, LoopbackSmallMessage) {
  const uint16_t port = next_base_port();
  UdpTransport a(0, 2, port), b(1, 2, port);
  a.send(msg(1, MsgType::kPing, {1, 2, 3}));
  auto m = b.recv(2'000'000);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->src, 0);
  EXPECT_EQ(m->payload, (std::vector<uint8_t>{1, 2, 3}));
}

TEST(Udp, SelfSendShortCircuits) {
  const uint16_t port = next_base_port();
  UdpTransport a(0, 1, port);
  a.send(msg(0, MsgType::kPing, {9}));
  auto m = a.recv(500'000);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->payload, (std::vector<uint8_t>{9}));
}

TEST(Udp, LargeMessageFragmentsAndReassembles) {
  const uint16_t port = next_base_port();
  UdpTransport a(0, 2, port), b(1, 2, port);
  std::vector<uint8_t> big(300 * 1024);
  lots::Rng rng(5);
  for (auto& byte : big) byte = static_cast<uint8_t>(rng.next_u32());

  std::thread sender([&] { a.send(msg(1, MsgType::kObjData, big)); });
  auto m = b.recv(10'000'000);
  sender.join();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->payload, big);
}

TEST(Udp, ReliableUnderInjectedLoss) {
  const uint16_t port = next_base_port();
  UdpTransport a(0, 2, port, /*window=*/16, /*rto_us=*/10'000);
  UdpTransport b(1, 2, port, 16, 10'000);
  a.set_fault(FaultSpec{.drop_prob = 0.15, .dup_prob = 0.05, .seed = 99});

  std::vector<uint8_t> big(150 * 1024, 0xCD);
  std::thread sender([&] {
    for (int i = 0; i < 3; ++i) a.send(msg(1, MsgType::kObjData, big));
  });
  for (int i = 0; i < 3; ++i) {
    auto m = b.recv(30'000'000);
    ASSERT_TRUE(m.has_value()) << "message " << i << " lost despite retransmission";
    EXPECT_EQ(m->payload.size(), big.size());
  }
  sender.join();
  EXPECT_GT(a.retransmissions(), 0u);
}

TEST(Udp, BidirectionalTraffic) {
  const uint16_t port = next_base_port();
  UdpTransport a(0, 2, port), b(1, 2, port);
  std::thread left([&] {
    for (int i = 0; i < 50; ++i) {
      a.send(msg(1, MsgType::kPing, {static_cast<uint8_t>(i)}));
      auto m = a.recv(5'000'000);
      ASSERT_TRUE(m.has_value());
      EXPECT_EQ(m->payload[0], static_cast<uint8_t>(i));
    }
  });
  for (int i = 0; i < 50; ++i) {
    auto m = b.recv(5'000'000);
    ASSERT_TRUE(m.has_value());
    b.send(msg(0, MsgType::kPing, m->payload));  // echo
  }
  left.join();
}

TEST(Udp, ThreeNodeExchange) {
  const uint16_t port = next_base_port();
  UdpTransport a(0, 3, port), b(1, 3, port), c(2, 3, port);
  a.send(msg(1, MsgType::kPing, {1}));
  a.send(msg(2, MsgType::kPing, {2}));
  auto mb = b.recv(2'000'000);
  auto mc = c.recv(2'000'000);
  ASSERT_TRUE(mb && mc);
  EXPECT_EQ(mb->payload[0], 1);
  EXPECT_EQ(mc->payload[0], 2);
}

// Reordering holds a datagram back and duplication emits one twice; the
// combination must still deliver every message exactly once and in send
// order — a held datagram neither vanishes from the hold slot nor
// departs twice when a duplicate decision lands on the same flush.
TEST(Udp, ReorderPlusDupDeliversExactlyOnceInOrder) {
  const uint16_t port = next_base_port();
  UdpTransport a(0, 2, port, /*window=*/16, /*rto_us=*/10'000);
  UdpTransport b(1, 2, port, 16, 10'000);
  a.set_fault(FaultSpec{.dup_prob = 0.25, .reorder_prob = 0.25, .seed = 7});

  constexpr int kMsgs = 200;
  std::thread sender([&] {
    for (int i = 0; i < kMsgs; ++i) {
      a.send(msg(1, MsgType::kPing, {static_cast<uint8_t>(i & 0xFF)}));
    }
  });
  for (int i = 0; i < kMsgs; ++i) {
    auto m = b.recv(30'000'000);
    ASSERT_TRUE(m.has_value()) << "message " << i << " lost under reorder+dup";
    EXPECT_EQ(m->payload[0], static_cast<uint8_t>(i & 0xFF)) << "delivered out of order";
  }
  sender.join();
  // Exactly once: nothing may trail behind the expected count.
  EXPECT_FALSE(b.recv(100'000).has_value()) << "a duplicated datagram was delivered twice";
}

// Workers bind ephemeral ports and publish them through the coordinator,
// so no two live sockets may share one: a shared port splits its
// datagrams between the owners and leaves a rank deaf to its peers.
// 900 binds would give ~14 duplicates if ports could be shared.
TEST(Udp, EphemeralPortsAreNeverShared) {
  std::vector<int> fds;
  std::set<uint16_t> ports;
  for (int i = 0; i < 900; ++i) {
    uint16_t port = 0;
    fds.push_back(UdpTransport::bind_ephemeral(port));
    EXPECT_TRUE(ports.insert(port).second) << "port " << port << " handed out twice";
  }
  for (const int fd : fds) ::close(fd);
}

// A datagram arriving from a port outside the cluster's table must be
// dropped on every stripe without disturbing peer windows or
// reassembly, even when it parses as a plausible data/ACK datagram.
TEST(Udp, StrayDatagramIsDroppedOnEveryStripe) {
  const uint16_t port = next_base_port();
  constexpr size_t kStripes = 3;
  UdpTransport a(0, 2, port, 16, 10'000, kStripes);
  UdpTransport b(1, 2, port, 16, 10'000, kStripes);
  ASSERT_EQ(b.stripes(), kStripes);

  const int stray = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(stray, 0);
  auto blast = [&](const std::vector<uint8_t>& dgram) {
    for (size_t s = 0; s < kStripes; ++s) {
      sockaddr_in to{};
      to.sin_family = AF_INET;
      to.sin_port = htons(static_cast<uint16_t>(port + s * 2 + 1));  // b's stripe s
      to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      ::sendto(stray, dgram.data(), dgram.size(), 0, reinterpret_cast<sockaddr*>(&to),
               sizeof(to));
    }
  };
  blast({0xDE, 0xAD});  // runt
  {
    std::vector<uint8_t> fake;
    Writer w(fake);
    w.u8(0);         // kData
    w.u64(1);        // seq a real peer would use next
    w.u64(999'999);  // cum_ack that would wreck a send window
    FragHeader{42, 0, 2}.encode(w);  // opens a reassembly that never completes
    fake.resize(fake.size() + 64, 0xAB);
    blast(fake);
  }
  {
    std::vector<uint8_t> fake_ack;
    Writer w(fake_ack);
    w.u8(1);  // kAck
    w.u64(0);
    w.u64(999'999);
    blast(fake_ack);
  }

  // Real traffic on every stripe still flows with pristine sequencing.
  for (uint64_t f = 0; f < kStripes; ++f) {
    a.send(msg(1, MsgType::kPing, {static_cast<uint8_t>(f)}, /*flow=*/f));
  }
  for (size_t i = 0; i < kStripes; ++i) {
    ASSERT_TRUE(b.recv(5'000'000).has_value()) << "stray datagram corrupted a stripe";
  }
  b.send(msg(0, MsgType::kPing, {77}));
  auto back = a.recv(5'000'000);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->payload[0], 77);
  ::close(stray);
}

// Striped transport: flows spread across sockets, each flow keeps FIFO
// order, and syscall batching shows up in the wire-level counters.
TEST(Udp, StripedFlowsKeepPerFlowOrder) {
  const uint16_t port = next_base_port();
  constexpr size_t kStripes = 4;
  constexpr int kPerFlow = 25;
  UdpTransport a(0, 2, port, 32, 20'000, kStripes);
  UdpTransport b(1, 2, port, 32, 20'000, kStripes);

  std::thread sender([&] {
    for (int i = 0; i < kPerFlow; ++i) {
      for (uint64_t f = 0; f < kStripes; ++f) {
        a.send(msg(1, MsgType::kPing, {static_cast<uint8_t>(f), static_cast<uint8_t>(i)}, f));
      }
    }
  });
  int next_per_flow[kStripes] = {0};
  for (int i = 0; i < kPerFlow * static_cast<int>(kStripes); ++i) {
    auto m = b.recv(10'000'000);
    ASSERT_TRUE(m.has_value());
    ASSERT_EQ(m->payload.size(), 2u);
    const uint8_t f = m->payload[0];
    ASSERT_LT(f, kStripes);
    EXPECT_EQ(m->payload[1], static_cast<uint8_t>(next_per_flow[f])) << "flow " << int(f)
                                                                     << " reordered";
    ++next_per_flow[f];
  }
  sender.join();
  const TransportStats& ts = a.transport_stats();
  EXPECT_GT(ts.datagrams_sent.load(), 0u);
  // Batching invariant: syscalls never exceed datagrams put on the wire.
  EXPECT_LE(ts.send_syscalls.load(), ts.datagrams_sent.load());
  EXPECT_EQ(ts.send_errors.load(), 0u);
}

// The zero-copy tail: Message::borrowed rides the wire as the logical
// payload suffix, across fragment boundaries and on the self-send path.
TEST(Udp, BorrowedTailRoundTrips) {
  const uint16_t port = next_base_port();
  UdpTransport a(0, 2, port), b(1, 2, port);

  std::vector<uint8_t> image(100 * 1024);  // > one datagram: gather must split it
  lots::Rng rng(11);
  for (auto& byte : image) byte = static_cast<uint8_t>(rng.next_u32());

  Message m = msg(1, MsgType::kObjData, {9, 8, 7});
  m.borrowed = image;
  std::vector<uint8_t> expect = {9, 8, 7};
  expect.insert(expect.end(), image.begin(), image.end());

  std::thread sender([&] { a.send(std::move(m)); });
  auto got = b.recv(10'000'000);
  sender.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, expect);
  EXPECT_TRUE(got->borrowed.empty());

  Message self = msg(0, MsgType::kObjData, {1});
  const std::vector<uint8_t> tail = {2, 3};
  self.borrowed = tail;
  a.send(std::move(self));
  auto loop = a.recv(1'000'000);
  ASSERT_TRUE(loop.has_value());
  EXPECT_EQ(loop->payload, (std::vector<uint8_t>{1, 2, 3}));
}

}  // namespace
}  // namespace lots::net
