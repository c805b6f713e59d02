#include "net/endpoint.hpp"

#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>

#include "common/error.hpp"
#include "common/threading.hpp"
#include "net/inproc.hpp"

namespace lots::net {
namespace {

TEST(Endpoint, RequestReplyRoundTrip) {
  InProcFabric fab(2, NetModel{});
  Endpoint a(fab.open(0)), b(fab.open(1));
  a.start(nullptr);
  b.start([&](Message&& m) {
    if (m.type == MsgType::kPing) {
      Message resp;
      resp.type = MsgType::kReply;
      resp.payload = m.payload;
      resp.payload.push_back(0xFF);
      b.reply(m, std::move(resp));
    }
  });

  Message req;
  req.type = MsgType::kPing;
  req.dst = 1;
  req.payload = {1, 2};
  const Message resp = a.request(std::move(req));
  EXPECT_EQ(resp.type, MsgType::kReply);
  EXPECT_EQ(resp.payload, (std::vector<uint8_t>{1, 2, 0xFF}));
}

TEST(Endpoint, RequestTimesOutWithoutResponder) {
  InProcFabric fab(2, NetModel{});
  Endpoint a(fab.open(0));
  Endpoint b(fab.open(1));
  a.start(nullptr);
  b.start([](Message&&) { /* swallow everything */ });
  Message req;
  req.type = MsgType::kPing;
  req.dst = 1;
  EXPECT_THROW(a.request(std::move(req), /*timeout_us=*/50'000), lots::SystemError);
}

TEST(Endpoint, FireAndForgetDispatchesToHandler) {
  InProcFabric fab(2, NetModel{});
  Endpoint a(fab.open(0)), b(fab.open(1));
  std::atomic<int> got{0};
  a.start(nullptr);
  b.start([&](Message&& m) {
    if (m.type == MsgType::kPing) got.fetch_add(static_cast<int>(m.payload[0]));
  });
  for (uint8_t i = 1; i <= 10; ++i) {
    Message m;
    m.type = MsgType::kPing;
    m.dst = 1;
    m.payload = {i};
    a.send(std::move(m));
  }
  // Handler runs on b's service thread; poll for completion.
  for (int spin = 0; spin < 1000 && got.load() < 55; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(got.load(), 55);
}

TEST(Endpoint, ConcurrentRequestersToOneServer) {
  constexpr int kClients = 6;
  InProcFabric fab(kClients + 1, NetModel{});
  std::vector<std::unique_ptr<Endpoint>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<Endpoint>(fab.open(i)));
    clients.back()->start(nullptr);
  }
  Endpoint server(fab.open(kClients));
  server.start([&](Message&& m) {
    Message resp;
    resp.type = MsgType::kReply;
    resp.payload = m.payload;
    server.reply(m, std::move(resp));
  });

  lots::run_spmd(kClients, [&](int rank) {
    for (uint8_t i = 0; i < 50; ++i) {
      Message req;
      req.type = MsgType::kPing;
      req.dst = kClients;
      req.payload = {static_cast<uint8_t>(rank), i};
      const Message resp = clients[static_cast<size_t>(rank)]->request(std::move(req));
      ASSERT_EQ(resp.payload[0], static_cast<uint8_t>(rank));
      ASSERT_EQ(resp.payload[1], i);
    }
  });
}

TEST(Endpoint, AsyncRequestsOverlapAndCompleteInAnyOrder) {
  InProcFabric fab(2, NetModel{});
  Endpoint a(fab.open(0)), b(fab.open(1));
  a.start(nullptr);
  b.start([&](Message&& m) {
    Message resp;
    resp.type = MsgType::kReply;
    resp.payload = m.payload;
    b.reply(m, std::move(resp));
  });

  // Issue a whole window before waiting, then harvest in REVERSE order:
  // the completion table must route every reply to its own handle no
  // matter when (or whether) the requester is blocked on it.
  constexpr int kWindow = 8;
  std::vector<Endpoint::PendingReply> handles;
  for (uint8_t i = 0; i < kWindow; ++i) {
    Message req;
    req.type = MsgType::kPing;
    req.dst = 1;
    req.payload = {i};
    handles.push_back(a.request_async(std::move(req)));
  }
  for (int i = kWindow - 1; i >= 0; --i) {
    ASSERT_TRUE(handles[static_cast<size_t>(i)].valid());
    const Message resp = handles[static_cast<size_t>(i)].wait();
    EXPECT_EQ(resp.payload, std::vector<uint8_t>{static_cast<uint8_t>(i)});
    EXPECT_FALSE(handles[static_cast<size_t>(i)].valid()) << "wait() must consume the handle";
  }
}

TEST(Endpoint, AsyncAbandonedHandleDeregistersItself) {
  InProcFabric fab(2, NetModel{});
  Endpoint a(fab.open(0)), b(fab.open(1));
  std::atomic<int> served{0};
  a.start(nullptr);
  b.start([&](Message&& m) {
    served.fetch_add(1);
    b.reply(m, Message{.type = MsgType::kReply});
  });

  {
    Message req;
    req.type = MsgType::kPing;
    req.dst = 1;
    Endpoint::PendingReply dropped = a.request_async(std::move(req));
  }  // abandoned before the reply is consumed
  // The endpoint must stay fully usable: the late reply is dropped, not
  // misrouted into a later request's slot.
  for (int i = 0; i < 20; ++i) {
    Message req;
    req.type = MsgType::kPing;
    req.dst = 1;
    req.payload = {static_cast<uint8_t>(i)};
    const Message resp = a.request(std::move(req));
    ASSERT_EQ(resp.type, MsgType::kReply);
  }
  EXPECT_GE(served.load(), 20);
}

TEST(Endpoint, AsyncTimeoutMatchesBlockingSemantics) {
  InProcFabric fab(2, NetModel{});
  Endpoint a(fab.open(0));
  Endpoint b(fab.open(1));
  a.start(nullptr);
  b.start([](Message&&) { /* swallow everything */ });
  Message req;
  req.type = MsgType::kPing;
  req.dst = 1;
  auto handle = a.request_async(std::move(req));
  EXPECT_THROW(handle.wait(/*timeout_us=*/50'000), lots::SystemError);
  EXPECT_FALSE(handle.valid()) << "a timed-out handle must be invalidated";
}

TEST(Endpoint, StopIsIdempotent) {
  InProcFabric fab(1, NetModel{});
  Endpoint a(fab.open(0));
  a.start(nullptr);
  a.stop();
  a.stop();  // second stop must be a no-op
}

TEST(Endpoint, HandlerCanSendToOtherNodes) {
  // a asks b; b's handler forwards a notification to c (fire-and-forget,
  // non-blocking — the handler contract) and replies to a.
  InProcFabric fab(3, NetModel{});
  Endpoint a(fab.open(0)), b(fab.open(1)), c(fab.open(2));
  std::atomic<bool> c_notified{false};
  a.start(nullptr);
  b.start([&](Message&& m) {
    Message note;
    note.type = MsgType::kPing;
    note.dst = 2;
    b.send(std::move(note));
    b.reply(m, Message{.type = MsgType::kReply});
  });
  c.start([&](Message&&) { c_notified.store(true); });

  Message req;
  req.type = MsgType::kPing;
  req.dst = 1;
  a.request(std::move(req));
  for (int spin = 0; spin < 1000 && !c_notified.load(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(c_notified.load());
}

TEST(Endpoint, FailAllPendingSweepsOncePerRank) {
  // a asks b, which parks every request until the test answers it; rank
  // 2 is the one declared dead.
  InProcFabric fab(3, NetModel{});
  Endpoint a(fab.open(0)), b(fab.open(1)), c(fab.open(2));
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Message> parked;
  a.start(nullptr);
  b.start([&](Message&& m) {
    std::lock_guard lk(mu);
    parked.push_back(std::move(m));
    cv.notify_all();
  });
  c.start(nullptr);
  auto ask_b = [&] {
    Message req;
    req.type = MsgType::kPing;
    req.dst = 1;
    auto handle = a.request_async(std::move(req));
    std::unique_lock lk(mu);
    cv.wait(lk, [&] { return !parked.empty(); });
    return handle;
  };

  auto first = ask_b();
  EXPECT_FALSE(a.rank_dead(2));
  EXPECT_TRUE(a.fail_all_pending(2)) << "the first verdict is new";
  EXPECT_TRUE(a.rank_dead(2));
  try {
    first.wait();
    ADD_FAILURE() << "a parked request must fail with WorkerDied";
  } catch (const lots::WorkerDied& e) {
    EXPECT_EQ(e.rank(), 2);
  }

  parked.clear();
  auto second = ask_b();
  EXPECT_FALSE(a.fail_all_pending(2)) << "a repeat verdict is not new";
  b.reply(parked.front(), Message{.type = MsgType::kReply});
  EXPECT_EQ(second.wait().type, MsgType::kReply) << "a repeat verdict must not sweep";
}

}  // namespace
}  // namespace lots::net
