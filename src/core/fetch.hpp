// The asynchronous fetch engine: every kObjFetch/kObjData flow in the
// system, extracted from the node so the requester side can keep
// MULTIPLE object fetches in flight at once.
//
// One fetch path serves every requester: a fetch is an `Inflight` entry
// (one request_async for one object, re-sent unchanged after a
// redirect) that settle() waits out — it applies the reply, chases home
// redirects with cycle backoff and repairs a stale home view. Two
// requesters build on it:
//
//  * fetch_object — the demand path behind the §3.3 access check ("a
//    valid copy from a remote machine"): a pipelined fetch of one.
//  * fetch_many — the pipelined path behind lots::touch / lots::prefetch:
//    up to Config::fetch_window kObjFetch requests outstanding at once,
//    each holding its object's in-flight guard so sibling threads
//    coordinate exactly as they do with a demand fault. A settled entry
//    marks its copy `prefetched`; the first access counts a hit, an
//    invalidation that gets there first counts it wasted.
//
// The home side, serve(), answers each kObjFetch with one kObjData
// section: a redirect, a per-word diff against the requester's base, or
// a full copy. It never blocks on the network and takes one shard lock.
//
// Either copy form lands under the per-word newer-than rule: a word
// whose local stamp exceeds the home's cut (e.g. a value applied from a
// lock token's scope chain the home has not merged yet) is kept. A copy
// that still holds words this node wrote since the last barrier
// (ObjectMeta::marks: a lock interval's words in a copy a home-commit
// notice invalidated) asks for the diff form whatever its size: the
// home's cut says nothing of a write made under another lock, and only
// per-word stamps keep such a word from being overwritten by an older
// home value, which the barrier would then ship as this node's.
//
// Locking contract: fetch_object/fetch_many follow the mapper rules of
// runtime.hpp (one shard lock max, never held across a blocking wait,
// in-flight guards make each object's mapping state single-writer).
// When an eviction scan finds every victim candidate in flight and the
// CALLING thread owns a pipelined window, drain_active_window() settles
// that window (clearing its guards) so the scan can make progress
// instead of spinning on its own outstanding fetches.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <unordered_set>

#include "core/object.hpp"
#include "net/endpoint.hpp"

namespace lots::core {

class Node;

class FetchEngine {
 public:
  explicit FetchEngine(Node& node) : node_(node) {}
  FetchEngine(const FetchEngine&) = delete;
  FetchEngine& operator=(const FetchEngine&) = delete;

  /// Blocking demand fetch of one invalid object (the access-check slow
  /// path). Caller holds the object's shard lock via `lk` AND its
  /// in-flight guard; the lock is dropped around the network wait. On
  /// return the copy is valid at the home's cut (see settle()).
  void fetch_object(ObjectMeta& m, std::unique_lock<std::mutex>& lk);

  /// Pipelined revalidation of `ids` (best effort): brings every listed
  /// object that is currently unmapped or invalid to mapped+valid with
  /// up to Config::fetch_window fetches outstanding at once. Objects a
  /// sibling thread is mid-transition on are skipped (their guard owner
  /// finishes the job). Call with NO shard lock held. Returns the
  /// number of fetch requests issued.
  size_t fetch_many(std::span<const ObjectId> ids);

  /// Home side of kObjFetch (service thread). Replies kObjData (form 0
  /// full / 1 diff / 2 redirect).
  void serve(net::Message&& m);

  /// Settles the calling thread's active pipelined window, if any —
  /// the eviction scan's escape hatch when every candidate it can see
  /// is one of OUR outstanding fetches. Returns true when a window was
  /// drained (the scan should rescan instead of yielding).
  static bool drain_active_window();

 private:
  /// One outstanding fetch: the object's in-flight guard is owned by the
  /// issuing thread until the entry settles or aborts.
  struct Inflight {
    ObjectId id = kNullObject;
    int32_t target = -1;
    int hops = 0;  ///< redirects taken (>0 means the home view was stale)
    std::unordered_set<int32_t> visited;  ///< distinct homes asked this chase round
    int retries = 0;  ///< backoff restarts after a full redirect cycle
    uint32_t base = 0;  ///< retained diff base (0: ask for a full copy)
    bool marked = false;  ///< the copy holds unshipped writes: ask for the diff form
    bool pipelined = false;  ///< counted in NodeStats::fetch_pipelined
    net::Endpoint::PendingReply reply;
  };

  // -- requester side --
  /// A fetch entry for `m` (caller holds its shard lock): the home as
  /// target, the retained base and whether the copy is marked.
  Inflight start(const ObjectMeta& m) const;
  /// Sends `f`'s kObjFetch to f.target (request_async).
  void issue(Inflight& f);
  /// Waits out `f`'s reply and settles it: meters the stall, applies the
  /// reply, chases home redirects (re-issuing `f` to each new target)
  /// bounded by DISTINCT homes visited — a chase that cycles back to a
  /// node already asked (a migration mid-handoff) backs off and retries,
  /// giving up only after a retry budget no live system reaches — and
  /// repairs a stale home view. Call with `lk` (f.id's shard lock)
  /// released; returns holding it. The caller owns the in-flight guard.
  void settle(Inflight& f, std::unique_lock<std::mutex>& lk);
  /// Applies a kObjData reply to `m` (caller holds the shard lock +
  /// guard; m is mapped). Returns the redirect target for form 2, -1
  /// when the copy was installed (share -> valid at the home's cut).
  int32_t apply_primary(ObjectMeta& m, net::Reader& r);
  /// Settles the oldest window entry, marks it prefetched and releases
  /// its in-flight guard.
  void complete_one(std::deque<Inflight>& out);
  /// Exception path: releases every outstanding entry's guard.
  void abort_window(std::deque<Inflight>& out) noexcept;

  // -- home side --
  /// Encodes and sends the kObjData reply for one object this node
  /// homes: form byte + home epoch + body (diff vs full chosen by size,
  /// the diff always for a `marked` requester).
  /// Caller holds the shard lock via `lk`; it is released before the
  /// send unless the reply borrows a mapped copy's DMM block.
  void encode_copy(const net::Message& req, ObjectMeta& obj, uint32_t req_base, bool marked,
                   std::unique_lock<std::mutex>& lk);

  Node& node_;
};

}  // namespace lots::core
