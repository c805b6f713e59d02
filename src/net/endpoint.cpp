#include "net/endpoint.hpp"

#include "common/error.hpp"

namespace lots::net {

Endpoint::Endpoint(std::unique_ptr<Transport> transport) : transport_(std::move(transport)) {}

Endpoint::~Endpoint() { stop(); }

void Endpoint::start(Handler handler) {
  LOTS_CHECK(!running_.load(), "Endpoint already started");
  handler_ = std::move(handler);
  running_.store(true);
  service_ = std::thread([this] { serve_loop(); });
}

void Endpoint::stop() {
  if (!running_.exchange(false)) return;
  transport_->send({.type = MsgType::kShutdown, .dst = rank()});
  if (service_.joinable()) service_.join();
}

uint64_t Endpoint::send(Message m) {
  m.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t seq = m.seq;
  transport_->send(std::move(m));
  return seq;
}

Endpoint::PendingReply Endpoint::request_async(Message m) {
  auto slot = std::make_shared<Slot>();
  slot->dst = m.dst;
  slot->type = static_cast<int>(m.type);
  m.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  {
    // Tested where the slot is registered: a sweep raises its flag, then
    // drains the table under this lock, so a request is swept or refused.
    std::lock_guard lk(pending_mu_);
    if (aborted_.load()) throw SystemError("request abandoned: the run failed");
    if (rank_dead(m.dst)) {
      throw WorkerDied(m.dst, "request to dead rank " + std::to_string(m.dst) + " from node " +
                                  std::to_string(rank()));
    }
    pending_[m.seq] = slot;
  }
  const uint64_t seq = m.seq;
  transport_->send(std::move(m));
  return PendingReply(this, std::move(slot), seq);
}

bool Endpoint::fail_all_pending(int dead_rank) {
  // The dead flag is raised BEFORE any waiter can observe its request
  // failing: a thread woken by this sweep may immediately issue new
  // requests (the recovery rendezvous), and those must never race a
  // second, partially-applied death verdict. Setting the flag first and
  // draining the whole table in one critical section makes the verdict
  // atomic from every waiter's point of view. Only the first verdict for
  // a rank sweeps: a repeat must not fail requests issued since.
  if (dead_rank < 0 || dead_rank >= 256 || dead_[static_cast<size_t>(dead_rank)].exchange(1)) {
    return false;
  }
  fail_waiters(dead_rank);
  return true;
}

void Endpoint::abort_waits() {
  // Raised before the sweep, as in fail_all_pending: request_async
  // tests the flag under pending_mu_, so a request registered before
  // the sweep's drain is swept and one registered after it is refused.
  aborted_.store(true);
  fail_waiters(kAborted);
}

void Endpoint::fail_waiters(int died) {
  std::vector<std::shared_ptr<Slot>> doomed;
  {
    std::lock_guard lk(pending_mu_);
    for (auto& [seq, slot] : pending_) doomed.push_back(slot);
    pending_.clear();
  }
  for (auto& slot : doomed) {
    std::lock_guard lk(slot->mu);
    if (slot->reply.has_value()) continue;  // completed in the window: let it win
    slot->died = died;
    slot->cv.notify_one();
  }
}

Message Endpoint::request(Message m, uint64_t timeout_us) {
  return request_async(std::move(m)).wait(timeout_us);
}

Endpoint::PendingReply& Endpoint::PendingReply::operator=(PendingReply&& o) noexcept {
  if (this != &o) {
    cancel();
    ep_ = o.ep_;
    slot_ = std::move(o.slot_);
    seq_ = o.seq_;
    o.ep_ = nullptr;
    o.slot_.reset();
    o.seq_ = 0;
  }
  return *this;
}

Message Endpoint::PendingReply::wait(uint64_t timeout_us) {
  LOTS_CHECK(slot_ != nullptr, "PendingReply::wait on an empty handle");
  std::unique_lock lk(slot_->mu);
  if (!slot_->cv.wait_for(lk, std::chrono::microseconds(timeout_us),
                          [&] { return slot_->reply.has_value() || slot_->died != -1; })) {
    const int dst = slot_->dst;
    const int type = slot_->type;
    lk.unlock();
    const uint64_t seq = seq_;
    const int at = ep_->rank();
    cancel();
    throw SystemError("request timeout: node " + std::to_string(at) + " seq " +
                      std::to_string(seq) + " dst " + std::to_string(dst) +
                      " msg_type " + std::to_string(type));
  }
  if (!slot_->reply.has_value()) {  // failed by a peer-death notice or abort_waits
    const int dead = slot_->died;
    const int dst = slot_->dst;
    lk.unlock();
    cancel();
    if (dead == kAborted) throw SystemError("request abandoned: the run failed");
    throw WorkerDied(dead, "request to rank " + std::to_string(dst) +
                               " failed: worker " + std::to_string(dead) + " died");
  }
  Message reply = std::move(*slot_->reply);
  lk.unlock();
  slot_.reset();  // completion already erased the table entry
  ep_ = nullptr;
  return reply;
}

bool Endpoint::PendingReply::ready() const {
  if (!slot_) return false;
  std::lock_guard lk(slot_->mu);
  return slot_->reply.has_value();
}

void Endpoint::PendingReply::cancel() {
  if (!slot_) return;
  {
    std::lock_guard plk(ep_->pending_mu_);
    ep_->pending_.erase(seq_);  // no-op when the reply already landed
  }
  slot_.reset();
  ep_ = nullptr;
}

void Endpoint::reply(const Message& req, Message resp) {
  resp.dst = req.src;
  resp.req_seq = req.seq;
  // resp.flow is the handler's choice: replies are matched by req_seq,
  // so their stripe only affects load spreading, never correctness.
  send(std::move(resp));
}

void Endpoint::serve_loop() {
  while (running_.load(std::memory_order_acquire)) {
    auto m = transport_->recv(50'000);
    if (!m) continue;
    if (m->type == MsgType::kShutdown) break;

    if (m->req_seq != 0) {  // reply to a blocked request()
      std::shared_ptr<Slot> slot;
      {
        std::lock_guard lk(pending_mu_);
        auto it = pending_.find(m->req_seq);
        if (it != pending_.end()) {
          slot = it->second;
          pending_.erase(it);
        }
      }
      if (slot) {
        std::lock_guard lk(slot->mu);
        slot->reply = std::move(*m);
        slot->cv.notify_one();
      }
      continue;
    }
    if (handler_) handler_(std::move(*m));
  }
}

}  // namespace lots::net
