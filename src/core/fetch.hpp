// The asynchronous fetch engine: every kObjFetch/kObjData(.N) flow in
// the system, extracted from the node so the requester side can keep
// MULTIPLE object fetches in flight at once.
//
// Three mechanisms live here:
//
//  * fetch_object — the blocking demand path behind the §3.3 access
//    check (one object, identical semantics to the historical
//    fetch_clean_copy), now recording each fault in a per-thread ring.
//    When the ring shows an ascending/descending object-id stride and
//    Config::prefetch_degree > 0, the request carries a *wish-list* of
//    neighbor ids (+ their retained base epochs) and the home piggybacks
//    their diffs on the reply (kObjDataN) — the sequential prefetcher.
//  * fetch_many — the pipelined path behind lots::touch / lots::prefetch:
//    up to Config::fetch_window kObjFetch requests outstanding at once
//    (Endpoint::request_async), each holding its object's in-flight
//    guard so sibling threads coordinate exactly as they do with a
//    demand fault. Batch ids that ride a piggyback wish-list are not
//    issued separately; a second no-piggyback pass picks up any
//    neighbor whose landing was dropped.
//  * serve — the home side (service thread): answers with a redirect,
//    a per-word diff against the requester's base, or a full copy, plus
//    up to the wished number of neighbor sections for objects this node
//    homes. Never blocks on the network; takes one shard lock at a time.
//
// Piggybacked neighbors LAND AS WARMED PENDING STATE: the requester
// parks the diff in ObjectMeta::pending (marked completes_to_epoch),
// flips the copy valid and marks it `prefetched`; the next access
// applies the pending record under the per-word newer-than rule — so a
// piggybacked word can never regress a locally-newer one (e.g. a value
// applied from a lock token's scope chain the home has not merged yet)
// — and only THEN advances valid_epoch to the home's cut, so an
// invalidation that discards the unapplied record also discards the
// completeness claim and the retained diff base stays truthful. A neighbor
// is dropped — never force-landed — when its meta vanished, a sibling
// holds its in-flight guard, its base moved since the wish was sampled,
// or it is already valid (NodeStats::prefetch_wasted counts these).
//
// Locking contract: fetch_object/fetch_many follow the mapper rules of
// runtime.hpp (one shard lock max, never held across a blocking wait,
// in-flight guards make each object's mapping state single-writer).
// When an eviction scan finds every victim candidate in flight and the
// CALLING thread owns a pipelined window, drain_active_window() settles
// that window (clearing its guards) so the scan can make progress
// instead of spinning on its own outstanding fetches.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <unordered_set>
#include <vector>

#include "core/object.hpp"
#include "net/endpoint.hpp"

namespace lots::core {

class Node;

class FetchEngine {
 public:
  explicit FetchEngine(Node& node);
  FetchEngine(const FetchEngine&) = delete;
  FetchEngine& operator=(const FetchEngine&) = delete;

  /// Blocking demand fetch of one invalid object (the access-check slow
  /// path). Caller holds the object's shard lock via `lk` AND its
  /// in-flight guard; the lock is dropped around the network wait. On
  /// return the copy is valid at the home's cut. Follows home redirects,
  /// bounded by DISTINCT homes visited: when the chase cycles back to a
  /// node already asked (a migration mid-handoff), it backs off and
  /// retries rather than aborting, giving up only after a retry budget
  /// that no live system reaches.
  void fetch_object(ObjectMeta& m, std::unique_lock<std::mutex>& lk);

  /// Pipelined revalidation of `ids` (best effort): brings every listed
  /// object that is currently unmapped or invalid to mapped+valid with
  /// up to Config::fetch_window fetches outstanding at once. Objects a
  /// sibling thread is mid-transition on are skipped (their guard owner
  /// finishes the job). Call with NO shard lock held. Returns the
  /// number of fetch requests issued.
  size_t fetch_many(std::span<const ObjectId> ids);

  /// Home side of kObjFetch (service thread). Replies kObjData (form 0
  /// full / 1 diff / 2 redirect) or kObjDataN when the request's
  /// wish-list produced piggybacked neighbor sections.
  void serve(net::Message&& m);

  /// Settles the calling thread's active pipelined window, if any —
  /// the eviction scan's escape hatch when every candidate it can see
  /// is one of OUR outstanding fetches. Returns true when a window was
  /// drained (the scan should rescan instead of yielding).
  static bool drain_active_window();

 private:
  /// One neighbor on a request's piggyback wish-list: the id and the
  /// requester's retained base at sampling time. A landing is accepted
  /// only while the base still matches.
  struct NeighborReq {
    ObjectId id = kNullObject;
    uint32_t base = 0;
    bool has_base = false;
  };

  /// One outstanding pipelined fetch: the object's in-flight guard is
  /// owned by the issuing thread until the entry completes or aborts.
  struct Inflight {
    ObjectId id = kNullObject;
    int32_t target = -1;
    int hops = 0;  ///< redirects taken (>0 means the home view was stale)
    std::unordered_set<int32_t> visited;  ///< distinct homes asked this chase round
    int retries = 0;  ///< backoff restarts after a full redirect cycle
    uint32_t base = 0;
    bool has_base = false;
    std::vector<NeighborReq> wish;
    net::Endpoint::PendingReply reply;
  };

  /// Last-K demand-fault ids of one app thread (owner-thread-only: the
  /// stride predictor reads and writes it from the faulting thread).
  struct StrideRing {
    static constexpr size_t kSlots = 8;
    std::array<ObjectId, kSlots> ids{};
    uint64_t count = 0;  ///< total faults recorded (cursor = count % kSlots)
  };

  // -- requester side --
  void note_fault(ObjectId id);
  /// Stride prediction + base sampling for a demand fault on `id` whose
  /// home is `target`. Takes each candidate's shard lock in turn; call
  /// with NO shard lock held.
  std::vector<NeighborReq> predict_wish(ObjectId id, int32_t target);
  net::Message make_request(ObjectId id, uint32_t base, bool has_base,
                            std::span<const NeighborReq> wish, int32_t target);
  /// Applies a reply's primary section to `m` (caller holds the shard
  /// lock + guard; m is mapped). Returns the redirect target for form 2,
  /// -1 when the copy was installed (share -> valid at the home's cut).
  int32_t apply_primary(ObjectMeta& m, net::Reader& r);
  /// Lands the piggybacked neighbor sections of a kObjDataN reply (call
  /// with NO shard lock held).
  void land_neighbors(net::Reader& r, std::span<const NeighborReq> wish);
  /// Issues one pipelined fetch pass over `ids` with a sliding window;
  /// ids covered by an outstanding wish-list land via the piggyback and
  /// are appended to `leftovers` (when non-null) for a follow-up pass.
  size_t fetch_pass(std::span<const ObjectId> ids, bool piggyback,
                    std::vector<ObjectId>* leftovers);
  /// Waits out the oldest window entry, applies it (redirects re-issue
  /// in place) and releases its in-flight guard.
  void complete_one(std::deque<Inflight>& out);
  /// Exception path: releases every outstanding entry's guard.
  void abort_window(std::deque<Inflight>& out) noexcept;

  // -- home side --
  /// Encodes form byte + home epoch + body (diff vs full chosen by
  /// size) for one object this node homes. Caller holds the shard lock.
  void encode_copy(ObjectMeta& obj, uint32_t req_base, bool has_base, net::Writer& w);

  Node& node_;
  std::vector<StrideRing> rings_;  ///< one per app thread
};

}  // namespace lots::core
