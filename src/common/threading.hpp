// Small thread-coordination helpers for the in-process cluster harness.
// These synchronize *harness* threads (spawn/join, test rendezvous); DSM
// synchronization visible to applications goes through the protocol
// layer, never through these.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace lots {

/// Reusable counting barrier for N harness threads.
class SpinBarrier {
 public:
  explicit SpinBarrier(int parties) : parties_(parties) {}

  void arrive_and_wait() {
    std::unique_lock lk(mu_);
    const uint64_t gen = generation_;
    if (++waiting_ == parties_) {
      waiting_ = 0;
      ++generation_;
      cv_.notify_all();
    } else {
      cv_.wait(lk, [&] { return generation_ != gen; });
    }
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int parties_;
  int waiting_ = 0;
  uint64_t generation_ = 0;
};

/// Runs fn(rank) on `n` threads and joins them all; rethrows the first
/// exception raised by any worker. This is the SPMD launcher used by the
/// runtimes' spawn() entry points. `on_first_error` runs once, on the
/// thread that raised the first exception, after it was recorded: a
/// runtime uses it to wake workers that would otherwise wait forever
/// for the failed one (their own exceptions then lose to the first).
void run_spmd(int n, const std::function<void(int)>& fn,
              const std::function<void()>& on_first_error = {});

/// Rendezvous for the M application threads of one DSM node: all parties
/// call collective(fn); the LAST arriver runs fn exactly once while every
/// other party is quiescent (blocked here), then fn's return value — or
/// its exception — is delivered to all M parties. This is what makes the
/// node-level collective operations (alloc_object, free_object, barrier)
/// execute once per node no matter how many app threads the node hosts,
/// and guarantees the leader sees no concurrent app-thread activity on
/// its own node while it runs.
///
/// Reusable across rounds (generation counted). A round's result slot is
/// safe to overwrite only once every party has returned from the round —
/// which holds because the same M threads must all re-arrive before a
/// new leader exists.
class CollectiveGroup {
 public:
  explicit CollectiveGroup(int parties) : parties_(parties) {}

  template <typename Fn>
  auto collective(Fn&& fn) {
    using R = std::invoke_result_t<Fn&>;
    std::unique_lock lk(mu_);
    const uint64_t gen = generation_;
    if (broken_ || ++waiting_ < parties_) {
      cv_.wait(lk, [&] { return generation_ != gen || broken_; });
      if (generation_ == gen) throw SystemError("node collective broken: an app thread failed");
      if (error_) std::rethrow_exception(error_);
      if constexpr (!std::is_void_v<R>) {
        R out;
        std::memcpy(&out, result_, sizeof(R));
        return out;
      } else {
        return;
      }
    }
    // Leader: everyone else is parked on cv_. Publish-and-release even
    // when fn throws, otherwise the followers would wait forever.
    waiting_ = 0;
    error_ = nullptr;
    struct Release {
      CollectiveGroup* g;
      ~Release() {
        ++g->generation_;
        g->cv_.notify_all();
      }
    } release{this};
    if constexpr (std::is_void_v<R>) {
      try {
        fn();
      } catch (...) {
        error_ = std::current_exception();
        std::rethrow_exception(error_);
      }
    } else {
      static_assert(std::is_trivially_copyable_v<R> && sizeof(R) <= sizeof(result_),
                    "collective results must be small trivially copyable values");
      try {
        R r = fn();
        std::memcpy(result_, &r, sizeof(R));
        return r;
      } catch (...) {
        error_ = std::current_exception();
        std::rethrow_exception(error_);
      }
    }
  }

  [[nodiscard]] int parties() const { return parties_; }

  /// A party failed and will never arrive: every waiting and later
  /// collective() throws SystemError. Blocks while a leader runs its
  /// operation (it holds the mutex).
  void abort() {
    std::lock_guard lk(mu_);
    broken_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int parties_;
  int waiting_ = 0;
  uint64_t generation_ = 0;
  bool broken_ = false;
  std::exception_ptr error_;
  alignas(8) unsigned char result_[16] = {};
};

}  // namespace lots
