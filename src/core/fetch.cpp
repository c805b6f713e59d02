// FetchEngine implementation: requester-side demand + pipelined fetch
// flows and the home-side kObjFetch service. See fetch.hpp for the
// design and the landing rules for piggybacked neighbors.
#include "core/fetch.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <unordered_set>

#include "common/clock.hpp"
#include "core/diff.hpp"
#include "core/runtime.hpp"

namespace lots::core {
namespace {

/// The calling thread's active pipelined window, registered so the
/// eviction scan can drain it when every victim candidate it sees is
/// one of this thread's own outstanding fetches (drain_active_window).
thread_local FetchEngine* tls_window_engine = nullptr;
thread_local void* tls_window_out = nullptr;

/// Redirect chasing is bounded by DISTINCT homes visited, not a raw hop
/// count: under lock-driven adaptive migration a long chain of
/// legitimate moves is normal, while revisiting a home means our chase
/// lapped the migration in flight — back off and retry instead of
/// killing the process. The retry cap only exists to turn a genuinely
/// corrupt home graph (a cycle that never settles) into a diagnosable
/// failure rather than a silent spin.
constexpr int kMaxRedirectRetries = 64;

/// Linear backoff, capped: retry N sleeps N*100us (at most 1.6ms), long
/// enough for an in-flight handoff's pointer flips to land.
void redirect_backoff(int retries) {
  std::this_thread::sleep_for(std::chrono::microseconds(100 * std::min(retries, 16)));
}

}  // namespace

FetchEngine::FetchEngine(Node& node)
    : node_(node), rings_(static_cast<size_t>(node.config().threads_per_node)) {}

// ---------------------------------------------------------------------------
// Stride predictor (requester side, per app thread)
// ---------------------------------------------------------------------------

void FetchEngine::note_fault(ObjectId id) {
  StrideRing& ring = rings_[static_cast<size_t>(Runtime::thread_index())];
  ring.ids[ring.count % StrideRing::kSlots] = id;
  ring.count++;
}

FetchEngine::Wish FetchEngine::wishable(ObjectId nid, int32_t target, NeighborReq& nr) {
  auto lk = node_.dir_.lock_shard(nid);
  const ObjectMeta* nm = node_.dir_.find(nid);
  if (!nm) return Wish::kGone;
  // A sibling owns its transition, or the copy is already warm.
  if (nm->inflight || nm->share != ShareState::kInvalid) return Wish::kSkip;
  if (nm->home != target) return Wish::kOtherHome;
  nr = {nid, nm->valid_epoch};
  return Wish::kYes;
}

std::vector<FetchEngine::NeighborReq> FetchEngine::predict_wish(ObjectId id, int32_t target) {
  std::vector<NeighborReq> wish;
  const size_t degree = node_.config().prefetch_degree;
  if (degree == 0) return wish;
  const StrideRing& ring = rings_[static_cast<size_t>(Runtime::thread_index())];
  if (ring.count < 3) return wish;
  // The three newest faults, oldest first (the newest is `id` itself —
  // note_fault ran before prediction).
  const ObjectId prev = ring.ids[(ring.count - 2) % StrideRing::kSlots];
  const ObjectId prev2 = ring.ids[(ring.count - 3) % StrideRing::kSlots];
  const int64_t d = static_cast<int64_t>(id) - static_cast<int64_t>(prev);
  if (d == 0 || static_cast<int64_t>(prev) - static_cast<int64_t>(prev2) != d) return wish;

  for (size_t k = 1; k <= degree; ++k) {
    const int64_t nid64 = static_cast<int64_t>(id) + d * static_cast<int64_t>(k);
    if (nid64 < 1 || nid64 > static_cast<int64_t>(UINT32_MAX)) break;
    NeighborReq nr;
    const Wish w = wishable(static_cast<ObjectId>(nid64), target, nr);
    if (w == Wish::kGone) break;  // ran off the allocated id space
    if (w == Wish::kYes) wish.push_back(nr);
  }
  return wish;
}

// ---------------------------------------------------------------------------
// Request/reply plumbing shared by the demand and pipelined paths
// ---------------------------------------------------------------------------

void FetchEngine::issue(Inflight& f) {
  // flow: per-object stripe affinity (spreads fetch traffic).
  net::Message req{.type = net::MsgType::kObjFetch, .dst = f.target, .flow = f.id};
  net::Writer w(req.payload);
  w.u32(f.id);
  w.u32(f.base);  // 0: no retained base, send a full copy
  w.u8(static_cast<uint8_t>(f.wish.size()));
  for (const NeighborReq& nr : f.wish) {
    w.u32(nr.id);
    w.u32(nr.base);
  }
  if (f.hops == 0 && !f.wish.empty()) {
    // Counted once per fetch, not per redirect hop, so the hit/issued
    // ratio the benches report is not deflated by home migrations.
    node_.stats_.prefetch_issued.fetch_add(f.wish.size(), std::memory_order_relaxed);
  }
  f.reply = node_.ep_.request_async(std::move(req));
  if (f.pipelined) node_.stats_.fetch_pipelined.fetch_add(1, std::memory_order_relaxed);
}

int32_t FetchEngine::apply_primary(ObjectMeta& m, net::Reader& r) {
  const uint8_t form = r.u8();
  if (form == 2) return r.i32();  // redirect: home migrated under us

  node_.stats_.object_fetches.fetch_add(1, std::memory_order_relaxed);
  const size_t bytes = word_bytes(m);
  Mapper::Words words = node_.mapper_.words(m);
  uint8_t* data = words.data();
  uint32_t* ts = words.ts();
  const uint32_t home_base = r.u32();
  if (form == 0) {  // full copy at the home's cut
    auto body = r.bytes_view();
    LOTS_CHECK_EQ(body.size(), bytes, "fetch: full copy size mismatch");
    // Per-word stamp discipline, exactly like the diff form: the copy
    // is the home's state as of home_base, so it must not regress a
    // word whose local stamp exceeds that cut — e.g. a value just
    // applied from a lock token's scope chain that the home has not
    // merged yet. Common case first: no locally newer word -> one bulk
    // copy.
    bool has_newer = false;
    for (uint32_t wi = 0; wi < m.words(); ++wi) {
      if (ts[wi] > home_base) {
        has_newer = true;
        break;
      }
    }
    if (!has_newer) {
      std::memcpy(data, body.data(), bytes);
      for (uint32_t wi = 0; wi < m.words(); ++wi) ts[wi] = home_base;
    } else {
      for (uint32_t wi = 0; wi < m.words(); ++wi) {
        if (ts[wi] > home_base) continue;  // locally newer than the home's cut
        std::memcpy(data + static_cast<size_t>(wi) * 4,
                    body.data() + static_cast<size_t>(wi) * 4, 4);
        ts[wi] = home_base;
      }
    }
  } else {  // per-word diff against our retained stale base
    std::vector<uint32_t> idx, val, wts;
    decode_word_diff(r, idx, val, wts);
    apply_word_diff(idx, val, wts, data, ts);
  }
  if (m.twinned) {
    // A twinned object re-validated mid-interval (write-invalidate lock
    // mode): rebase the twin so the fetched content is not mistaken for
    // local writes at the next flush.
    std::memcpy(words.twin(), data, bytes);
  }
  words.store();
  m.share = ShareState::kValid;
  m.valid_epoch = home_base;
  return -1;
}

void FetchEngine::land_neighbors(net::Reader& r, std::span<const NeighborReq> wish) {
  const uint8_t count = r.u8();
  for (uint8_t i = 0; i < count; ++i) {
    const ObjectId nid = r.u32();
    const uint8_t form = r.u8();
    const uint32_t home_epoch = r.u32();
    // Decode the body unconditionally: the reader must advance past this
    // section even when the landing is dropped.
    DiffRecord rec;
    rec.object = nid;
    rec.epoch = home_epoch;
    std::span<const uint8_t> full_body;
    if (form == 0) {
      full_body = r.bytes_view();
    } else {
      decode_word_diff(r, rec.word_idx, rec.word_val, rec.word_ts);
    }
    // Find the wish entry: the base the home diffed against.
    const NeighborReq* asked = nullptr;
    for (const NeighborReq& nr : wish) {
      if (nr.id == nid) {
        asked = &nr;
        break;
      }
    }

    auto lk = node_.dir_.lock_shard(nid);
    ObjectMeta* nm = node_.dir_.find(nid);
    // Land only while the state the wish was sampled from still holds:
    // the copy is invalid, nobody is mid-transition on it, the retained
    // base did not move (an eviction dropping the disk image would make
    // a diff-since-base incomplete), and the home's cut is not older
    // than that base.
    const bool landable = asked != nullptr && nm != nullptr && !nm->inflight &&
                          nm->share == ShareState::kInvalid && nm->valid_epoch == asked->base &&
                          home_epoch >= asked->base;
    if (!landable || (form == 0 && full_body.size() != word_bytes(*nm))) {
      node_.stats_.prefetch_wasted.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (form == 0) {
      // Full copy -> a uniform-epoch record covering every word; the
      // per-word newer-than rule at application time gives it exactly
      // the blocking full-copy semantics (never regress past the cut).
      const uint32_t words = nm->words();
      rec.word_idx.resize(words);
      rec.word_val.resize(words);
      for (uint32_t wi = 0; wi < words; ++wi) {
        rec.word_idx[wi] = wi;
        std::memcpy(&rec.word_val[wi], full_body.data() + static_cast<size_t>(wi) * 4, 4);
      }
    }
    // The landing parks the delta and flips the copy valid, but does
    // NOT advance valid_epoch: the claim "complete to the home's cut"
    // only becomes true when the pending record is applied, and it
    // travels with the record (completes_to_epoch) so an invalidation
    // that clears pending drops the claim too — the retained diff base
    // never overstates what the data words actually hold.
    rec.completes_to_epoch = true;
    nm->pending.push_back(std::move(rec));
    node_.dir_.bump_generation(nid);  // pending landing: no ALB fast path
    nm->share = ShareState::kValid;
    nm->prefetched = true;
  }
}

void FetchEngine::settle(Inflight& f, std::unique_lock<std::mutex>& lk) {
  for (;;) {
    const uint64_t t0 = now_us();
    net::Message reply = f.reply.wait();
    node_.stats_.fetch_stall_us.fetch_add(now_us() - t0, std::memory_order_relaxed);
    lk.lock();

    ObjectMeta& m = node_.dir_.get(f.id);
    net::Reader r(reply.payload);
    const int32_t redirect = apply_primary(m, r);
    if (redirect < 0) {
      // Repair a stale home view: whoever answered IS the home, so later
      // fetches of this object go straight there instead of re-chasing.
      if (f.hops > 0 && m.home != f.target) node_.home_.move_home(m, f.target);
      if (!r.done()) {  // piggybacked neighbor sections
        lk.unlock();
        land_neighbors(r, f.wish);
        lk.lock();
      }
      return;
    }
    // The home migrated under us: chase it without giving up the guard
    // (the object's mapping state stays ours), re-sending the same wish.
    lk.unlock();
    ++f.hops;
    f.visited.insert(f.target);
    if (f.visited.count(redirect)) {
      // Every home in the cycle redirected us: a migration is mid
      // handoff. Back off and restart the chase with a clean slate.
      LOTS_CHECK(++f.retries <= kMaxRedirectRetries,
                 "fetch: home redirect chase stuck for object " + std::to_string(f.id));
      node_.stats_.fetch_redirect_retries.fetch_add(1, std::memory_order_relaxed);
      f.visited.clear();
      redirect_backoff(f.retries);
    }
    f.target = redirect;
    issue(f);
  }
}

// ---------------------------------------------------------------------------
// Demand fetch (the access-check slow path): a pipelined fetch of one
// ---------------------------------------------------------------------------

void FetchEngine::fetch_object(ObjectMeta& m, std::unique_lock<std::mutex>& lk) {
  LOTS_CHECK(m.home != node_.rank_, "fetch: home asked to fetch from itself");
  Inflight f;
  f.id = m.id;
  f.target = m.home;
  // A retained stale copy (data + word stamps) serves as the diff base:
  // the home then only sends words newer than our valid_epoch (§3.5).
  f.base = m.valid_epoch;
  note_fault(f.id);
  // Wish-list sampling takes other shard locks; it must (and does) run
  // with the faulted object's lock released — the in-flight guard keeps
  // m's mapping state ours until settle() returns.
  lk.unlock();
  f.wish = predict_wish(f.id, f.target);
  issue(f);
  settle(f, lk);
}

// ---------------------------------------------------------------------------
// Pipelined fetch (lots::touch / lots::prefetch)
// ---------------------------------------------------------------------------

size_t FetchEngine::fetch_many(std::span<const ObjectId> ids) {
  const bool piggyback = node_.config().prefetch_degree > 0;
  std::vector<ObjectId> leftovers;
  size_t issued = fetch_pass(ids, piggyback, piggyback ? &leftovers : nullptr);
  if (!leftovers.empty()) {
    // Neighbors whose landing was dropped (base moved, sibling guard,
    // already valid) come back through a plain pipelined pass.
    issued += fetch_pass(leftovers, /*piggyback=*/false, nullptr);
  }
  return issued;
}

size_t FetchEngine::fetch_pass(std::span<const ObjectId> ids, bool piggyback,
                               std::vector<ObjectId>* leftovers) {
  const size_t window = node_.config().fetch_window;
  const size_t degree = node_.config().prefetch_degree;
  std::deque<Inflight> out;
  std::unordered_set<ObjectId> wished;  // riding an outstanding wish-list
  size_t issued = 0;

  // Register the window for the eviction scan's drain escape hatch.
  FetchEngine* const prev_engine = tls_window_engine;
  void* const prev_out = tls_window_out;
  tls_window_engine = this;
  tls_window_out = &out;

  try {
    for (size_t k = 0; k < ids.size(); ++k) {
      const ObjectId id = ids[k];
      if (wished.count(id)) {
        if (leftovers) leftovers->push_back(id);
        continue;
      }
      while (out.size() >= window) complete_one(out);

      auto lk = node_.dir_.lock_shard(id);
      ObjectMeta* pm = node_.dir_.find(id);
      if (!pm) continue;
      ObjectMeta& m = *pm;
      if (m.inflight) continue;  // a sibling's transition settles it
      if (m.map == MapState::kMapped && m.share == ShareState::kValid) continue;
      m.inflight = true;  // ours until the entry completes or aborts
      bool entry_issued = false;
      try {
        if (m.map != MapState::kMapped) node_.mapper_.map_in(m, lk);
        if (m.share == ShareState::kInvalid) {
          LOTS_CHECK(m.home != node_.rank_, "fetch_many: invalid copy at its own home");
          Inflight f;
          f.id = id;
          f.target = m.home;
          f.base = m.valid_epoch;
          f.pipelined = true;
          lk.unlock();  // wish sampling locks other shards
          if (piggyback) {
            // Piggyback the ids that FOLLOW in the batch while they share
            // this fetch's home — those land off this reply instead of
            // costing their own round trips.
            for (size_t j = k + 1; j < ids.size() && f.wish.size() < degree; ++j) {
              const ObjectId nid = ids[j];
              if (nid == id || wished.count(nid)) continue;
              NeighborReq nr;
              const Wish w = wishable(nid, f.target, nr);
              if (w == Wish::kOtherHome) break;  // same-home run ended
              if (w != Wish::kYes) continue;
              f.wish.push_back(nr);
              // Insert as we pick so a duplicate id later in the batch
              // cannot burn a second wish slot.
              wished.insert(nid);
            }
          }
          issue(f);
          out.push_back(std::move(f));
          ++issued;
          entry_issued = true;
        }
        // pending/twin work is left to the access check: it needs the
        // accessing thread's identity for twin attribution anyway.
      } catch (...) {
        if (!lk.owns_lock()) lk.lock();
        m.inflight = false;
        node_.dir_.shard_cv(id).notify_all();
        throw;
      }
      if (!entry_issued) {
        if (!lk.owns_lock()) lk.lock();
        m.inflight = false;
        node_.dir_.shard_cv(id).notify_all();
      }
      // An issued entry keeps its guard: complete_one releases it.
    }
    while (!out.empty()) complete_one(out);
  } catch (...) {
    abort_window(out);
    tls_window_engine = prev_engine;
    tls_window_out = prev_out;
    throw;
  }
  tls_window_engine = prev_engine;
  tls_window_out = prev_out;
  return issued;
}

void FetchEngine::complete_one(std::deque<Inflight>& out) {
  Inflight f = std::move(out.front());
  out.pop_front();
  auto lk = node_.dir_.lock_shard(f.id);
  ObjectMeta& m = node_.dir_.get(f.id);
  InflightGuard guard{node_.dir_, m, lk};  // the entry's guard, released on return
  lk.unlock();
  settle(f, lk);
  m.prefetched = true;  // warmed ahead of any access
}

void FetchEngine::abort_window(std::deque<Inflight>& out) noexcept {
  for (Inflight& f : out) {
    auto lk = node_.dir_.lock_shard(f.id);
    ObjectMeta* m = node_.dir_.find(f.id);
    if (m) {
      m->inflight = false;
      node_.dir_.shard_cv(f.id).notify_all();
    }
  }
  out.clear();
}

bool FetchEngine::drain_active_window() {
  auto* out = static_cast<std::deque<Inflight>*>(tls_window_out);
  if (tls_window_engine == nullptr || out == nullptr || out->empty()) return false;
  while (!out->empty()) tls_window_engine->complete_one(*out);
  return true;
}

// ---------------------------------------------------------------------------
// Home side (service thread — never blocks on the network, and takes
// only one shard lock at a time)
// ---------------------------------------------------------------------------

void FetchEngine::encode_copy(ObjectMeta& obj, uint32_t req_base, net::Writer& w) {
  const size_t bytes = word_bytes(obj);
  // Read the home copy wherever it lives, without disturbing the DMM
  // mapping state (a home that never touched it reads zeros).
  const Mapper::Words words = node_.mapper_.words(obj);
  const uint8_t* data = words.data();

  // Prefer the on-demand diff (§3.5) when the requester kept a base and
  // the ENCODED diff is smaller than the full object — decided on the
  // actual wire size, so a contiguous run shipped at ~4 B/word still
  // wins where the flat 12 B/word estimate would have shipped the
  // whole object. The newer words are counted first: the diff is built
  // only when even a best-case run form (4 B/word + headers) can win.
  if (req_base > 0) {
    const uint32_t* ts = words.ts();
    const size_t newer = static_cast<size_t>(
        std::count_if(ts, ts + obj.words(), [&](uint32_t t) { return t > req_base; }));
    if (5 + newer * 4 < bytes) {
      std::vector<uint32_t> idx, val, wts;
      diff_since({data, bytes}, ts, req_base, idx, val, wts);
      std::vector<uint8_t> diff_wire;
      net::Writer dw(diff_wire);
      const size_t saved = encode_word_diff(dw, idx, val, wts);
      if (diff_wire.size() < bytes) {
        w.u8(1);
        w.u32(obj.valid_epoch);
        w.raw(diff_wire.data(), diff_wire.size());
        node_.stats_.diff_payload_bytes.fetch_add(diff_wire.size(),
                                                  std::memory_order_relaxed);
        node_.stats_.diff_bytes_saved.fetch_add(saved, std::memory_order_relaxed);
        node_.stats_.diff_words_sent.fetch_add(idx.size(), std::memory_order_relaxed);
        return;
      }
    }
  }
  w.u8(0);
  w.u32(obj.valid_epoch);
  w.bytes({data, bytes});
}

void FetchEngine::serve(net::Message&& m) {
  net::Reader r(m.payload);
  const ObjectId id = r.u32();
  const uint32_t req_base = r.u32();  // 0: the requester keeps no base
  std::vector<NeighborReq> wish;
  if (!r.done()) {  // request carries a prefetch wish-list
    const uint8_t n = r.u8();
    wish.reserve(n);
    for (uint8_t i = 0; i < n; ++i) {
      NeighborReq nr;
      nr.id = r.u32();
      nr.base = r.u32();
      wish.push_back(nr);
    }
  }

  // Replies are req_seq-matched; the flow just spreads load.
  net::Message resp{.type = net::MsgType::kObjData, .flow = id};
  {
    auto lk = node_.dir_.lock_shard(id);
    ObjectMeta& obj = node_.dir_.get(id);
    if (obj.home != node_.rank_) {  // stale home view at the requester
      net::Writer w(resp.payload);
      w.u8(2);
      w.i32(obj.home);
      lk.unlock();
      node_.ep_.reply(m, std::move(resp));
      return;
    }
    // Zero-copy fast path: a plain full-copy reply (no diff base, no
    // prefetch wish) of a DMM-mapped object goes from the object image
    // to the wire without an intermediate payload copy — the form-0
    // header is encoded normally and the image rides as a borrowed
    // span. Replying under the shard lock is safe (and required: the
    // span points into the DMM): the transport copies the span into its
    // window-retained datagram buffers before returning, and datagram
    // drain only needs pump threads, which never take shard locks.
    if (req_base == 0 && wish.empty() && obj.map == MapState::kMapped) {
      const size_t bytes = word_bytes(obj);
      net::Writer w(resp.payload);
      w.u8(0);
      w.u32(obj.valid_epoch);
      w.u32(static_cast<uint32_t>(bytes));  // w.bytes()'s length prefix
      resp.borrowed = {node_.mapper_.data(obj), bytes};
      node_.ep_.reply(m, std::move(resp));
      return;
    }
    net::Writer w(resp.payload);
    encode_copy(obj, req_base, w);
  }

  // Neighbor sections, each under its own shard lock with the primary's
  // released. An object this node no longer homes, one that vanished, or
  // one mid-transition by a local app thread is silently skipped — the
  // requester demand-faults it like any other miss.
  uint8_t count = 0;
  std::vector<uint8_t> sections;
  net::Writer nw(sections);
  for (const NeighborReq& nr : wish) {
    auto lk = node_.dir_.lock_shard(nr.id);
    ObjectMeta* nm = node_.dir_.find(nr.id);
    if (!nm || nm->home != node_.rank_ || nm->inflight) continue;
    nw.u32(nr.id);
    encode_copy(*nm, nr.base, nw);
    ++count;
  }
  if (count > 0) {  // optional trailing neighbor sections
    net::Writer w(resp.payload);
    w.u8(count);
    w.raw(sections.data(), sections.size());
  }
  node_.ep_.reply(m, std::move(resp));
}

}  // namespace lots::core
