// Endpoint: one node's messaging engine.
//
// The paper handles incoming messages with SIGIO handlers (§3.6): remote
// requests are served asynchronously while the application computes.
// Here the same role is played by a per-node *service thread* running
// Endpoint::serve_loop. The application thread uses request()/send(),
// or request_async() to keep several requests in flight at once;
// replies are matched to requesters by sequence number through the
// per-endpoint completion table, and all other traffic is dispatched to
// the protocol handler installed by the runtime.
//
// Handler contract: handlers run on the service thread and must never
// block on a nested request() — they answer from node-local state (or
// redirect). Every protocol in this repository obeys that rule; it is
// what makes the system deadlock-free by construction.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "net/transport.hpp"

namespace lots::net {

class Endpoint {
 public:
  using Handler = std::function<void(Message&&)>;

  /// Default deadline for a reply. A DSM node that stops answering is a
  /// fatal cluster condition, not a recoverable one.
  static constexpr uint64_t kRequestTimeoutUs = 30'000'000;

  explicit Endpoint(std::unique_ptr<Transport> transport);
  ~Endpoint();
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  /// Starts the service thread with the given dispatch handler.
  void start(Handler handler);
  /// Stops and joins the service thread (idempotent).
  void stop();

  /// Fire-and-forget send; assigns and returns the message sequence.
  uint64_t send(Message m);

 private:
  struct Slot {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<Message> reply;
    int dst = -1;       ///< requested rank (for targeted death failure)
    int type = -1;      ///< MsgType of the request (timeout diagnostics)
    int died = -1;      ///< >= 0: the request was failed because this
                        ///< rank died; wait() throws WorkerDied instead
                        ///< of blocking out the full timeout. kAborted:
                        ///< failed by abort_waits(); SystemError
  };
  static constexpr int kAborted = -2;

 public:
  /// Handle on an in-flight request issued with request_async(). The
  /// reply is correlated by req_seq through the endpoint's completion
  /// table: when it arrives, the service thread fills the handle's slot
  /// and wakes whoever is (or will be) blocked in wait(). Move-only; an
  /// abandoned handle deregisters itself so a late reply is dropped
  /// instead of leaking a table entry.
  class PendingReply {
   public:
    PendingReply() = default;
    PendingReply(PendingReply&& o) noexcept { *this = std::move(o); }
    PendingReply& operator=(PendingReply&& o) noexcept;
    PendingReply(const PendingReply&) = delete;
    PendingReply& operator=(const PendingReply&) = delete;
    ~PendingReply() { cancel(); }

    /// Block until the reply arrives and consume it. Timeout/retry
    /// semantics are identical to the blocking Endpoint::request:
    /// throws SystemError on deadline (and invalidates the handle).
    Message wait(uint64_t timeout_us = kRequestTimeoutUs);
    /// Non-blocking completion probe.
    [[nodiscard]] bool ready() const;
    /// True until wait() consumed the reply (or the handle was moved
    /// from / timed out).
    [[nodiscard]] bool valid() const { return slot_ != nullptr; }
    /// Sequence number of the request (what the reply's req_seq echoes).
    [[nodiscard]] uint64_t seq() const { return seq_; }

   private:
    friend class Endpoint;
    PendingReply(Endpoint* ep, std::shared_ptr<Slot> slot, uint64_t seq)
        : ep_(ep), slot_(std::move(slot)), seq_(seq) {}
    void cancel();

    Endpoint* ep_ = nullptr;
    std::shared_ptr<Slot> slot_;
    uint64_t seq_ = 0;
  };

  /// Non-blocking request: send `m` and return a handle whose wait()
  /// yields the reply. Multiple handles may be outstanding at once from
  /// one thread — this is what the pipelined fetch engine builds on.
  PendingReply request_async(Message m);

  /// Send `m` and block until a reply carrying req_seq == m.seq arrives.
  /// Thin wrapper over request_async(...).wait(...); throws SystemError
  /// on timeout.
  Message request(Message m, uint64_t timeout_us = kRequestTimeoutUs);

  /// Convenience for handlers: route `resp` back to the requester of
  /// `req` with the reply sequence filled in.
  void reply(const Message& req, Message resp);

  // ---- peer-death handling ----------------------------------------------
  /// Marks `dead_rank` dead AND fails EVERY outstanding request with
  /// WorkerDied(`dead_rank`) in one atomic sweep — used at the recovery
  /// point: a request parked at a live peer (e.g. a barrier-enter at the
  /// master) can never complete once a participant died, so all waiters
  /// must unwind to the recovery path. The flag is raised before any
  /// waiter wakes, so requests issued by unwound threads (the recovery
  /// rendezvous) can never be caught by the same verdict's sweep. Late
  /// replies find no table entry and are dropped. Returns true when the
  /// verdict is new; a repeat verdict for the same rank sweeps nothing.
  /// The flag is set with a seq_cst exchange.
  bool fail_all_pending(int dead_rank);
  /// The run this node serves failed (an app thread threw): fails every
  /// outstanding request, and every later one at once, with SystemError,
  /// so no app thread waits for a reply the failed thread will never
  /// cause.
  void abort_waits();

  [[nodiscard]] bool rank_dead(int r) const {
    return r >= 0 && r < 256 && dead_[static_cast<size_t>(r)].load(std::memory_order_acquire) != 0;
  }

  [[nodiscard]] Transport& transport() { return *transport_; }
  [[nodiscard]] int rank() const { return transport_->rank(); }
  [[nodiscard]] int nprocs() const { return transport_->nprocs(); }

 private:
  void serve_loop();
  /// Fails every outstanding request that has no reply yet with `died`
  /// (a dead rank or kAborted), in one sweep of the completion table.
  void fail_waiters(int died);

  std::unique_ptr<Transport> transport_;
  Handler handler_;
  std::thread service_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> next_seq_{1};

  /// Completion table: req_seq -> slot of the outstanding request. The
  /// service thread fills and erases entries as replies arrive; waiters
  /// erase their own entry on timeout or abandonment.
  std::mutex pending_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<Slot>> pending_;

  /// Ranks declared dead (coordinator notice or transport verdict): the
  /// node's liveness table (Node::rank_alive).
  std::array<std::atomic<uint8_t>, 256> dead_{};
  std::atomic<bool> aborted_{false};  ///< see abort_waits()
};

}  // namespace lots::net
