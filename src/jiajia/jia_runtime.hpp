// JIAJIA-style page-based software DSM — the paper's comparator (§4.1).
//
// JIAJIA V1.1 [Hu, Shi, Tang; HPCN'99] is a home-based Scope Consistency
// DSM: the shared heap is split into VM pages with *fixed, round-robin*
// homes; writers twin pages on the first store (SIGSEGV write detection)
// and push word diffs to the page's home at lock releases and barriers;
// synchronization operations distribute *write notices* that invalidate
// cached copies; an access to an invalid page faults and fetches the
// whole page from its home.
//
// This reproduces exactly the behaviours the paper attributes its Fig. 8
// results to:
//   * false sharing — two writers on one page both diff-to-home and
//     invalidate each other (LU's row layout);
//   * reader page-request storms — every reader pulls whole pages from a
//     fixed home (no migration);
//   * 1/p home locality — round-robin homes mean only 1/p of the data is
//     home-local (ME's migratory pattern).
//
// Write detection and page fetches ride the real POSIX page-fault
// machinery of src/vmdetect (the classic TreadMarks construction: the
// fault is synchronous on an application data access, so the handler may
// run protocol code and block on the service thread's reply).
//
// Every wait is an Endpoint request: a page fetch is answered with
// kPageData, and a diff ack, a barrier exit and a lock grant are each the
// plain kReply to their request (the manager parks a kJiaLockAcquire
// while the lock is busy and answers it at the release).
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "net/endpoint.hpp"
#include "net/inproc.hpp"
#include "vmdetect/vmdetect.hpp"

namespace lots::jia {

class JiaRuntime;

/// One JIAJIA node: an app thread's view region + a service thread.
class JiaNode {
 public:
  JiaNode(JiaRuntime& rt, int rank, std::unique_ptr<net::Transport> transport);
  ~JiaNode();

  /// Raw pointer into this node's view of the shared heap. No software
  /// checks: page protections drive coherence.
  [[nodiscard]] uint8_t* addr(size_t offset) { return region_.base() + offset; }

  void lock(uint32_t lock_id);
  void unlock(uint32_t lock_id);
  void barrier();

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int nprocs() const { return ep_.nprocs(); }
  NodeStats& stats() { return stats_; }
  [[nodiscard]] int32_t home_of_page(size_t page) const;
  [[nodiscard]] bool page_valid(size_t page) const {
    return region_.protection(page) != vm::Prot::kNone;
  }

 private:
  friend class JiaRuntime;

  bool on_fault(size_t page, bool is_write);
  void fetch_page(size_t page);
  /// Diffs every dirty page against its twin and pushes the updates to
  /// the pages' homes (acked). Returns the list of written page indices.
  std::vector<uint32_t> flush_dirty_pages();
  void invalidate_pages(const std::vector<uint32_t>& notices);
  void dispatch(net::Message&& m);
  void on_page_fetch(net::Message&& m);
  void on_page_diff(net::Message&& m);
  void on_lock_acquire(net::Message&& m);
  void on_lock_release(net::Message&& m);
  void on_barrier_enter(net::Message&& m);

  JiaRuntime& rt_;
  int rank_;
  NodeStats stats_;
  net::Endpoint ep_;
  vm::Region region_;

  std::mutex mu_;  ///< guards twins_, dirty_, lock/barrier state
  std::unordered_map<size_t, std::vector<uint8_t>> twins_;
  std::vector<uint32_t> dirty_;  ///< pages written since the last flush
  /// Pages written anywhere in the current barrier interval (union of
  /// all critical-section flushes): a barrier is an acquire+release of
  /// the global scope, so its write notices must cover the whole
  /// interval, not just barrier-time dirty pages.
  std::unordered_set<uint32_t> interval_written_;

  // lock management (this node as manager for lock_id % nprocs == rank_)
  struct LockState {
    bool busy = false;
    std::vector<net::Message> waiters;
    std::vector<uint32_t> notices;  ///< pages written under this lock
  };
  std::unordered_map<uint32_t, LockState> managed_;
  /// The grant for `lock_id`: the kReply carrying its write notices.
  /// Caller holds mu_.
  static net::Message grant_locked(uint32_t lock_id, const LockState& s);

  // barrier master state (rank 0)
  std::vector<net::Message> enter_reqs_;
  std::unordered_set<uint32_t> merged_notices_;
};

/// The baseline cluster. API shape mirrors real JIAJIA: jia_alloc +
/// lock/unlock/barrier and raw pointers.
class JiaRuntime {
 public:
  explicit JiaRuntime(Config cfg);
  ~JiaRuntime();
  JiaRuntime(const JiaRuntime&) = delete;
  JiaRuntime& operator=(const JiaRuntime&) = delete;

  void run(const std::function<void(int)>& fn);
  static JiaNode& self();

  /// Collective allocation from the shared heap (page-aligned start is
  /// NOT forced: objects pack densely, which is what exposes false
  /// sharing, exactly as in real JIAJIA programs).
  size_t alloc(size_t bytes);
  /// Convenience typed view for the calling node.
  template <typename T>
  T* at(size_t offset) {
    return reinterpret_cast<T*>(self().addr(offset));
  }

  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] int nprocs() const { return cfg_.nprocs; }
  [[nodiscard]] size_t page_bytes() const { return cfg_.page_bytes; }
  [[nodiscard]] size_t pages() const { return cfg_.jia_heap_bytes / cfg_.page_bytes; }
  JiaNode& node(int rank) { return *nodes_[static_cast<size_t>(rank)]; }
  void aggregate_stats(NodeStats& out) const;
  uint64_t max_modeled_wait_us() const;

 private:
  Config cfg_;
  net::InProcFabric fabric_;
  std::vector<std::unique_ptr<JiaNode>> nodes_;
  std::mutex alloc_mu_;
  size_t brk_ = 0;
  std::unordered_map<int, size_t> alloc_seq_;  // rank -> collective position
  std::vector<size_t> alloc_results_;          // offsets in program order
};

}  // namespace lots::jia
