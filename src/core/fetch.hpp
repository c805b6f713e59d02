// The asynchronous fetch engine: every kObjFetch/kObjData flow in the
// system, extracted from the node so the requester side can keep
// MULTIPLE object fetches in flight at once.
//
// One fetch path serves every requester: a fetch is an `Inflight` entry
// (one request_async, its wish-list sampled once and re-sent unchanged
// after a redirect) that settle() waits out — it applies the reply,
// chases home redirects with cycle backoff, repairs a stale home view
// and lands piggybacked neighbors. Three mechanisms build on it:
//
//  * fetch_object — the demand path behind the §3.3 access check: a
//    pipelined fetch of one, recording each fault in a per-thread ring.
//    When the ring shows an ascending/descending object-id stride and
//    Config::prefetch_degree > 0, the request carries a *wish-list* of
//    neighbor ids (+ their retained base epochs) and the home appends
//    their diffs to the reply — the sequential prefetcher.
//  * fetch_many — the pipelined path behind lots::touch / lots::prefetch:
//    up to Config::fetch_window kObjFetch requests outstanding at once,
//    each holding its object's in-flight guard so sibling threads
//    coordinate exactly as they do with a demand fault. Batch ids that
//    ride a piggyback wish-list are not issued separately; a second
//    no-piggyback pass picks up any neighbor whose landing was dropped.
//  * serve — the home side (service thread): answers with a redirect,
//    a per-word diff against the requester's base, or a full copy, plus
//    up to the wished number of neighbor sections for objects this node
//    homes as optional trailing bytes. Never blocks on the network;
//    takes one shard lock at a time.
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
  /// full / 1 diff / 2 redirect), followed by the neighbor sections when
  /// the request's wish-list produced any.
  void serve(net::Message&& m);

  /// Settles the calling thread's active pipelined window, if any —
  /// the eviction scan's escape hatch when every candidate it can see
  /// is one of OUR outstanding fetches. Returns true when a window was
  /// drained (the scan should rescan instead of yielding).
  static bool drain_active_window();

 private:
  /// One neighbor on a request's piggyback wish-list: the id and the
  /// requester's retained base at sampling time (0: none). A landing
  /// is accepted only while the base still matches.
  struct NeighborReq {
    ObjectId id = kNullObject;
    uint32_t base = 0;
  };

  /// One outstanding fetch: the object's in-flight guard is owned by the
  /// issuing thread until the entry settles or aborts.
  struct Inflight {
    ObjectId id = kNullObject;
    int32_t target = -1;
    int hops = 0;  ///< redirects taken (>0 means the home view was stale)
    std::unordered_set<int32_t> visited;  ///< distinct homes asked this chase round
    int retries = 0;  ///< backoff restarts after a full redirect cycle
    uint32_t base = 0;  ///< retained diff base (0: ask for a full copy)
    bool pipelined = false;  ///< counted in NodeStats::fetch_pipelined
    std::vector<NeighborReq> wish;
    net::Endpoint::PendingReply reply;
  };

  /// Whether a neighbor may ride a wish-list aimed at a home.
  enum class Wish {
    kYes,        ///< invalid, unguarded and homed at the target
    kGone,       ///< no such object
    kSkip,       ///< a sibling holds its guard, or the copy is already valid
    kOtherHome,  ///< a different home serves it
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
  /// Classifies neighbor `nid` for a wish-list aimed at `target` under
  /// its shard lock; on kYes fills `nr` with its id and retained base.
  Wish wishable(ObjectId nid, int32_t target, NeighborReq& nr);
  /// Stride prediction + base sampling for a demand fault on `id` whose
  /// home is `target`. Takes each candidate's shard lock in turn; call
  /// with NO shard lock held.
  std::vector<NeighborReq> predict_wish(ObjectId id, int32_t target);
  /// Sends `f`'s kObjFetch to f.target (request_async).
  void issue(Inflight& f);
  /// Waits out `f`'s reply and settles it: meters the stall, applies the
  /// primary section, chases home redirects (re-issuing `f` to each new
  /// target) bounded by DISTINCT homes visited — a chase that cycles back
  /// to a node already asked (a migration mid-handoff) backs off and
  /// retries, giving up only after a retry budget no live system reaches
  /// — repairs a stale home view and lands piggybacked neighbors. Call
  /// with `lk` (f.id's shard lock) released; returns holding it. The
  /// caller owns the in-flight guard.
  void settle(Inflight& f, std::unique_lock<std::mutex>& lk);
  /// Applies a reply's primary section to `m` (caller holds the shard
  /// lock + guard; m is mapped). Returns the redirect target for form 2,
  /// -1 when the copy was installed (share -> valid at the home's cut).
  int32_t apply_primary(ObjectMeta& m, net::Reader& r);
  /// Lands the piggybacked neighbor sections trailing a kObjData reply
  /// (call with NO shard lock held).
  void land_neighbors(net::Reader& r, std::span<const NeighborReq> wish);
  /// Issues one pipelined fetch pass over `ids` with a sliding window;
  /// ids covered by an outstanding wish-list land via the piggyback and
  /// are appended to `leftovers` (when non-null) for a follow-up pass.
  size_t fetch_pass(std::span<const ObjectId> ids, bool piggyback,
                    std::vector<ObjectId>* leftovers);
  /// Settles the oldest window entry, marks it prefetched and releases
  /// its in-flight guard.
  void complete_one(std::deque<Inflight>& out);
  /// Exception path: releases every outstanding entry's guard.
  void abort_window(std::deque<Inflight>& out) noexcept;

  // -- home side --
  /// Encodes form byte + home epoch + body (diff vs full chosen by
  /// size) for one object this node homes. Caller holds the shard lock.
  void encode_copy(ObjectMeta& obj, uint32_t req_base, net::Writer& w);

  Node& node_;
  std::vector<StrideRing> rings_;  ///< one per app thread
};

}  // namespace lots::core
