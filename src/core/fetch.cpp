// FetchEngine implementation: requester-side demand + pipelined fetch
// flows and the home-side kObjFetch service. See fetch.hpp for the
// design.
#include "core/fetch.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

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

// ---------------------------------------------------------------------------
// Request/reply plumbing shared by the demand and pipelined paths
// ---------------------------------------------------------------------------

FetchEngine::Inflight FetchEngine::start(const ObjectMeta& m) const {
  Inflight f;
  f.id = m.id;
  f.target = m.home;
  // A retained stale copy (data + word stamps) serves as the diff base:
  // the home then only sends words newer than our valid_epoch (§3.5).
  f.base = m.valid_epoch;
  f.marked = m.marks != ObjectMeta::kNoMarks;
  return f;
}

void FetchEngine::issue(Inflight& f) {
  // flow: per-object stripe affinity (spreads fetch traffic).
  net::Message req{.type = net::MsgType::kObjFetch, .dst = f.target, .flow = f.id};
  net::Writer w(req.payload);
  w.u32(f.id);
  w.u32(f.base);  // 0: no retained base, send a full copy
  if (f.marked) w.u8(1);
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
      return;
    }
    // The home migrated under us: chase it without giving up the guard
    // (the object's mapping state stays ours).
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
  Inflight f = start(m);
  // The in-flight guard keeps m's mapping state ours until settle()
  // returns; the lock is down for the round trip.
  lk.unlock();
  issue(f);
  settle(f, lk);
}

// ---------------------------------------------------------------------------
// Pipelined fetch (lots::touch / lots::prefetch)
// ---------------------------------------------------------------------------

size_t FetchEngine::fetch_many(std::span<const ObjectId> ids) {
  const size_t window = node_.config().fetch_window;
  std::deque<Inflight> out;
  size_t issued = 0;

  // Register the window for the eviction scan's drain escape hatch.
  FetchEngine* const prev_engine = tls_window_engine;
  void* const prev_out = tls_window_out;
  tls_window_engine = this;
  tls_window_out = &out;

  try {
    for (const ObjectId id : ids) {
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
          Inflight f = start(m);
          f.pipelined = true;
          lk.unlock();
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

void FetchEngine::encode_copy(const net::Message& req, ObjectMeta& obj, uint32_t req_base,
                              bool marked, std::unique_lock<std::mutex>& lk) {
  const size_t bytes = word_bytes(obj);
  // Read the home copy wherever it lives, without disturbing the DMM
  // mapping state (a home that never touched it reads zeros). The reply
  // is sent while this view is alive: a full copy rides as a span
  // borrowed from it — the DMM block of a mapped copy, or the image
  // read back for a swapped-out one. Only the DMM block needs the shard
  // lock across the send (app threads write it); replying under the
  // lock is safe: the transport copies the span into its
  // window-retained datagram buffers before returning, and datagram
  // drain only needs pump threads, which never take shard locks.
  const Mapper::Words words = node_.mapper_.words(obj);
  const uint8_t* data = words.data();
  // Replies are req_seq-matched; the flow just spreads load.
  net::Message resp{.type = net::MsgType::kObjData, .flow = obj.id};
  net::Writer w(resp.payload);

  // Prefer the on-demand diff (§3.5) when the requester kept a base and
  // the ENCODED diff is smaller than the full object — decided on the
  // actual wire size, so a contiguous run shipped at ~4 B/word still
  // wins where the flat 12 B/word estimate would have shipped the
  // whole object. The newer words are counted first: the diff is built
  // only when even a best-case run form (4 B/word + headers) can win. A
  // marked requester gets the diff whatever its size (fetch.hpp).
  if (req_base > 0 || marked) {
    const uint32_t* ts = words.ts();
    const size_t newer = static_cast<size_t>(
        std::count_if(ts, ts + obj.words(), [&](uint32_t t) { return t > req_base; }));
    if (marked || 5 + newer * 4 < bytes) {
      std::vector<uint32_t> idx, val, wts;
      diff_since({data, bytes}, ts, req_base, idx, val, wts);
      w.u8(1);
      w.u32(obj.valid_epoch);
      const size_t head = resp.payload.size();
      const size_t saved = encode_word_diff(w, idx, val, wts);
      const size_t diff_bytes = resp.payload.size() - head;
      if (marked || diff_bytes < bytes) {
        node_.stats_.diff_payload_bytes.fetch_add(diff_bytes, std::memory_order_relaxed);
        node_.stats_.diff_bytes_saved.fetch_add(saved, std::memory_order_relaxed);
        node_.stats_.diff_words_sent.fetch_add(idx.size(), std::memory_order_relaxed);
        lk.unlock();
        node_.ep_.reply(req, std::move(resp));
        return;
      }
      resp.payload.clear();  // the full copy is smaller
    }
  }
  w.u8(0);
  w.u32(obj.valid_epoch);
  w.u32(static_cast<uint32_t>(bytes));  // Reader::bytes_view()'s length prefix
  resp.borrowed = {data, bytes};
  if (obj.map != MapState::kMapped) lk.unlock();
  node_.ep_.reply(req, std::move(resp));
}

void FetchEngine::serve(net::Message&& m) {
  net::Reader r(m.payload);
  const ObjectId id = r.u32();
  const uint32_t req_base = r.u32();  // 0: the requester keeps no base
  const bool marked = r.remaining() > 0 && r.u8() != 0;
  auto lk = node_.dir_.lock_shard(id);
  ObjectMeta& obj = node_.dir_.get(id);
  if (obj.home != node_.rank_) {  // stale home view at the requester
    net::Message resp{.type = net::MsgType::kObjData, .flow = id};
    net::Writer w(resp.payload);
    w.u8(2);
    w.i32(obj.home);
    lk.unlock();
    node_.ep_.reply(m, std::move(resp));
    return;
  }
  encode_copy(m, obj, req_base, marked, lk);
}

}  // namespace lots::core
