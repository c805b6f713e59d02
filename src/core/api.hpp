// The minimal user-facing function set (paper §5: "Only a minimal set of
// functions, such as memory allocation function, locks and barriers are
// exported to users").
//
// Usage inside Runtime::run(fn):
//   lots::Pointer<int> a;      // declare a shared object
//   a.alloc(100);              // collective allocation
//   lots::acquire(0);          // scope-consistency lock
//   a[5] = 1;
//   lots::release(0);
//   lots::barrier();           // migrating-home write-invalidate point
//   lots::run_barrier();       // event-only rendezvous (no memory effect)
//
// Hybrid N-process × M-thread runs (Config::threads_per_node > 1): fn
// executes on M app threads per rank. alloc/free/barrier/run_barrier
// are collective across a node's threads (every thread must execute the
// same sequence); acquire/release and element access are per-thread.
// Split work below the rank level with my_thread()/my_worker():
//   const int w = lots::my_worker();   // rank * M + thread
//   const int W = lots::num_workers(); // nprocs * M
#pragma once

#include <array>
#include <span>
#include <type_traits>

#include "core/pointer.hpp"
#include "core/runtime.hpp"
#include "core/workqueue.hpp"

namespace lots {

using core::ObjectId;
using core::Pointer;
using core::Runtime;
using core::WorkQueue;

/// Acquire lock `id` (Scope Consistency: all updates made in critical
/// sections previously guarded by this lock become visible).
inline void acquire(uint32_t lock_id) { core::Runtime::self().acquire(lock_id); }

/// Release lock `id`, publishing this critical section's updates into
/// the lock's scope.
inline void release(uint32_t lock_id) { core::Runtime::self().release(lock_id); }

/// Global barrier with memory synchronization (migrating-home
/// write-invalidate coherence).
inline void barrier() { core::Runtime::self().barrier(); }

/// Event-only barrier: no update propagation or invalidation (§3.6).
inline void run_barrier() { core::Runtime::self().run_barrier(); }

/// Asynchronous warm-up hint (the async fetch engine): brings the listed
/// objects to mapped+valid with up to Config::fetch_window fetch round
/// trips overlapped, instead of one blocking round trip per object at
/// the next access check. Purely a performance hint — objects a sibling
/// thread is working on are skipped, and anything not warmed is simply
/// demand-fetched later. Returns the number of fetch requests issued.
inline size_t prefetch(std::span<const ObjectId> ids) {
  return core::Runtime::self().touch(ids);
}

/// Convenience form over Pointer<T>s (and/or raw ObjectIds):
///   lots::touch(rows[i], rows[i + 1], rows[i + 2]);
template <typename... Ps>
size_t touch(const Ps&... ptrs) {
  const std::array<ObjectId, sizeof...(Ps)> ids = {[](const auto& p) {
    if constexpr (std::is_convertible_v<std::decay_t<decltype(p)>, ObjectId>) {
      return static_cast<ObjectId>(p);
    } else {
      return p.id();
    }
  }(ptrs)...};
  return prefetch(ids);
}

/// Request-queue execution mode: park the calling app thread in the
/// queue's service loop, executing client work items (each may use the
/// full per-thread DSM surface — access, acquire/release, touch — but
/// no collectives) until the queue is closed and drained. This is how a
/// node serves traffic instead of running an SPMD phase: client threads
/// push closures, app threads execute them against the DSM. Returns the
/// number of items this thread executed (also folded into
/// NodeStats::service_items).
inline size_t serve(WorkQueue& queue) {
  const size_t ran = queue.serve();
  core::Runtime::self().stats().service_items.fetch_add(ran, std::memory_order_relaxed);
  return ran;
}

/// Rank of the calling node and the cluster size.
inline int my_rank() { return core::Runtime::self().rank(); }
inline int num_procs() { return core::Runtime::self().nprocs(); }

/// Worker-death recovery point (requires Config::replication /
/// LOTS_REPLICATE=R: every barrier ships each home's dirty objects to
/// its R-1 ring successors, so any f < R deaths per barrier interval
/// are survivable). When a peer worker dies mid-run, every blocked or
/// newly issued synchronization call throws lots::WorkerDied; the
/// application catches it on EVERY app thread, calls recover() (a
/// node-level collective, like barrier()), re-partitions its work over
/// the surviving ranks — alive() below — and REDOES the interrupted
/// superstep from the last barrier(), run_barrier() calls included. recover() re-homes each dead
/// rank's objects to their lowest-alive replica holders, re-mints the
/// DSM locks (managership of a dead rank's locks walks forward to the
/// next live rank), fails over barrier-master duties to the lowest
/// alive rank when rank 0 is among the dead, and rendezvouses
/// cluster-wide before returning. A victim that died INSIDE the
/// two-phase barrier protocol is handled too: survivors unwind to the
/// last committed cut, and the redo reconverges; a barrier or run
/// barrier that had committed before the death returns at once on
/// redo. recover() is a view change: it returns at once when this node
/// has no unrecovered death, so calling it again is harmless. Throws
/// SystemError only when the death is unrecoverable (replication off).
/// Throws WorkerDied when ANOTHER worker dies while the repair is in
/// flight — catch it and call recover() again until a round completes.
inline void recover() { core::Runtime::self().recover(); }

/// Liveness of `rank` as this node currently sees it. Survivor-side
/// partitioning: iterate ranks 0..num_procs() and skip the dead.
inline bool alive(int rank) { return core::Runtime::self().rank_alive(rank); }

/// App-thread index of the caller within its node, and the node's
/// app-thread count (Config::threads_per_node).
inline int my_thread() { return core::Runtime::thread_index(); }
inline int num_threads() { return core::Runtime::self().app_threads(); }

/// Flat SPMD worker identity for hybrid N-process × M-thread runs:
/// workers 0 .. num_workers()-1 cover every app thread of the cluster,
/// with a node's threads contiguous. Partitioning by worker makes a
/// program's decomposition — and its results — independent of how the
/// cluster is split between processes and threads.
inline int my_worker() { return my_rank() * num_threads() + my_thread(); }
inline int num_workers() { return num_procs() * num_threads(); }

}  // namespace lots
