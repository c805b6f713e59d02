#include "jiajia/jia_runtime.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "common/threading.hpp"

namespace lots::jia {
namespace {

thread_local JiaNode* tls_node = nullptr;

}  // namespace

// ---------------------------------------------------------------------------
// JiaRuntime
// ---------------------------------------------------------------------------

JiaRuntime::JiaRuntime(Config cfg) : cfg_(std::move(cfg)), fabric_((cfg_.validate(), cfg_.nprocs), cfg_.net) {
  nodes_.reserve(static_cast<size_t>(cfg_.nprocs));
  for (int r = 0; r < cfg_.nprocs; ++r) {
    nodes_.push_back(std::make_unique<JiaNode>(*this, r, fabric_.open(r)));
  }
}

JiaRuntime::~JiaRuntime() = default;

void JiaRuntime::run(const std::function<void(int)>& fn) {
  run_spmd(cfg_.nprocs, [&](int rank) {
    tls_node = nodes_[static_cast<size_t>(rank)].get();
    struct Reset {
      ~Reset() { tls_node = nullptr; }
    } reset;
    fn(rank);
  });
}

JiaNode& JiaRuntime::self() {
  LOTS_CHECK(tls_node != nullptr, "JiaRuntime::self() outside run()");
  return *tls_node;
}

size_t JiaRuntime::alloc(size_t bytes) {
  // SPMD-collective: every node calls alloc in the same program order;
  // the first caller of each position performs the actual carve, later
  // callers receive the recorded offset.
  LOTS_CHECK(bytes > 0, "jia_alloc: zero size");
  const int rank = self().rank();
  std::lock_guard lk(alloc_mu_);
  const size_t pos = alloc_seq_[rank]++;
  if (pos < alloc_results_.size()) return alloc_results_[pos];
  const size_t aligned = (bytes + 7) / 8 * 8;
  LOTS_CHECK(brk_ + aligned <= cfg_.jia_heap_bytes,
             "jia_alloc: shared heap exhausted — JIAJIA cannot exceed the process space "
             "(the limitation LOTS removes)");
  const size_t off = brk_;
  brk_ += aligned;
  alloc_results_.push_back(off);
  return off;
}

void JiaRuntime::aggregate_stats(NodeStats& out) const {
  for (const auto& n : nodes_) out.accumulate(n->stats_);
}

uint64_t JiaRuntime::max_modeled_wait_us() const {
  uint64_t best = 0;
  for (const auto& n : nodes_) {
    best = std::max(best, n->stats_.net_wait_us.load() + n->stats_.disk_wait_us.load());
  }
  return best;
}

// ---------------------------------------------------------------------------
// JiaNode
// ---------------------------------------------------------------------------

JiaNode::JiaNode(JiaRuntime& rt, int rank, std::unique_ptr<net::Transport> transport)
    : rt_(rt),
      rank_(rank),
      ep_((transport->set_stats(&stats_), std::move(transport))),
      region_(rt.config().jia_heap_bytes, rt.config().page_bytes) {
  // Arm the VM machinery: home pages are clean (write detection only);
  // non-home pages start invalid (first touch fetches from the home).
  for (size_t p = 0; p < region_.pages(); ++p) {
    region_.set_protection(p, home_of_page(p) == rank_ ? vm::Prot::kRead : vm::Prot::kNone);
  }
  region_.set_fault_handler(
      [this](vm::Region&, size_t page, bool is_write) { return on_fault(page, is_write); });
  ep_.start([this](net::Message&& m) { dispatch(std::move(m)); });
}

JiaNode::~JiaNode() { ep_.stop(); }

int32_t JiaNode::home_of_page(size_t page) const {
  // JIAJIA V1.1: "round-robin home allocation on pages" (paper §4.1).
  return static_cast<int32_t>(page % static_cast<size_t>(ep_.nprocs()));
}

void JiaNode::dispatch(net::Message&& m) {
  using net::MsgType;
  switch (m.type) {
    case MsgType::kPageFetch: on_page_fetch(std::move(m)); break;
    case MsgType::kPageDiff: on_page_diff(std::move(m)); break;
    case MsgType::kJiaLockAcquire: on_lock_acquire(std::move(m)); break;
    case MsgType::kJiaLockRelease: on_lock_release(std::move(m)); break;
    case MsgType::kJiaBarrierEnter: on_barrier_enter(std::move(m)); break;
    default:
      LOTS_CHECK(false, std::string("jia: unexpected message ") + net::to_string(m.type));
  }
}

// ---------------------------------------------------------------------------
// VM fault path (app thread, synchronous on a data access)
// ---------------------------------------------------------------------------

bool JiaNode::on_fault(size_t page, bool is_write) {
  if (!is_write) {
    // Invalid page: whole-page fetch from the fixed home.
    fetch_page(page);
    return true;
  }
  // First store to a clean page: twin it (write detection), unless we
  // are the home — the home's copy IS the master, a dirty flag suffices.
  std::unique_lock lk(mu_);
  const size_t pb = region_.page_bytes();
  if (home_of_page(page) != rank_) {
    auto& twin = twins_[page];
    twin.resize(pb);
    std::memcpy(twin.data(), region_.base() + page * pb, pb);
  }
  dirty_.push_back(static_cast<uint32_t>(page));
  region_.set_protection(page, vm::Prot::kReadWrite);
  return true;
}

void JiaNode::fetch_page(size_t page) {
  const int32_t home = home_of_page(page);
  LOTS_CHECK(home != rank_, "home page cannot be invalid");
  net::Message req;
  req.type = net::MsgType::kPageFetch;
  req.dst = home;
  net::Writer w(req.payload);
  w.u32(static_cast<uint32_t>(page));
  net::Message reply = ep_.request(std::move(req));  // blocks; service answers
  net::Reader r(reply.payload);
  auto body = r.bytes_view();
  const size_t pb = region_.page_bytes();
  LOTS_CHECK_EQ(body.size(), pb, "page fetch size mismatch");
  std::unique_lock lk(mu_);
  region_.set_protection(page, vm::Prot::kReadWrite);
  std::memcpy(region_.base() + page * pb, body.data(), pb);
  region_.set_protection(page, vm::Prot::kRead);
  stats_.page_fetches.fetch_add(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Release-time diff flushing
// ---------------------------------------------------------------------------

std::vector<uint32_t> JiaNode::flush_dirty_pages() {
  std::unique_lock lk(mu_);
  const size_t pb = region_.page_bytes();
  std::vector<uint32_t> written = dirty_;
  dirty_.clear();
  for (uint32_t p : written) interval_written_.insert(p);
  // Group word diffs by home node: {page, nwords, (idx,val)*}*
  std::unordered_map<int32_t, net::Message> per_home;
  for (const uint32_t page : written) {
    const int32_t home = home_of_page(page);
    // Downgrade to clean so the next store re-twins.
    region_.set_protection(page, vm::Prot::kRead);
    if (home == rank_) continue;  // home writes are already in place
    auto tw = twins_.find(page);
    LOTS_CHECK(tw != twins_.end(), "dirty non-home page without twin");
    const uint8_t* data = region_.base() + page * pb;
    const uint8_t* twin = tw->second.data();
    std::vector<uint32_t> idx, val;
    for (size_t wi = 0; wi < pb / 4; ++wi) {
      uint32_t dv, tv;
      std::memcpy(&dv, data + wi * 4, 4);
      std::memcpy(&tv, twin + wi * 4, 4);
      if (dv != tv) {
        idx.push_back(static_cast<uint32_t>(wi));
        val.push_back(dv);
      }
    }
    twins_.erase(tw);
    if (idx.empty()) continue;
    auto [it, fresh] = per_home.try_emplace(home);
    if (fresh) {
      it->second.type = net::MsgType::kPageDiff;
      it->second.dst = home;
    }
    net::Writer w(it->second.payload);
    w.u32(page);
    w.u32(static_cast<uint32_t>(idx.size()));
    w.raw(idx.data(), idx.size() * 4);
    w.raw(val.data(), val.size() * 4);
    stats_.diffs_created.fetch_add(1, std::memory_order_relaxed);
    stats_.diff_words_sent.fetch_add(idx.size(), std::memory_order_relaxed);
  }
  lk.unlock();
  for (auto& [home, msg] : per_home) {
    ep_.request(std::move(msg));  // acked: ordered before the sync point
  }
  return written;
}

void JiaNode::invalidate_pages(const std::vector<uint32_t>& notices) {
  std::lock_guard lk(mu_);
  for (const uint32_t page : notices) {
    if (home_of_page(page) == rank_) continue;  // homes stay valid
    if (region_.protection(page) != vm::Prot::kNone) {
      region_.set_protection(page, vm::Prot::kNone);
      stats_.invalidations.fetch_add(1, std::memory_order_relaxed);
    }
    twins_.erase(page);
  }
}

// ---------------------------------------------------------------------------
// Locks (home-based ScC: manager keeps write notices per lock)
// ---------------------------------------------------------------------------

void JiaNode::lock(uint32_t lock_id) {
  const int32_t manager = static_cast<int32_t>(lock_id % static_cast<uint32_t>(nprocs()));
  net::Message req;
  req.type = net::MsgType::kJiaLockAcquire;
  req.dst = manager;
  net::Writer w(req.payload);
  w.u32(lock_id);
  // The manager answers when the lock is free: the reply is the grant.
  const net::Message grant = ep_.request(std::move(req));

  // Apply the lock's write notices: invalidate our cached copies.
  net::Reader r(grant.payload);
  r.u32();  // lock id
  const uint32_t n = r.u32();
  std::vector<uint32_t> notices(n);
  if (n) r.raw(notices.data(), n * 4);
  invalidate_pages(notices);
  stats_.lock_acquires.fetch_add(1, std::memory_order_relaxed);
}

void JiaNode::unlock(uint32_t lock_id) {
  const int32_t manager = static_cast<int32_t>(lock_id % static_cast<uint32_t>(nprocs()));
  const std::vector<uint32_t> written = flush_dirty_pages();
  net::Message rel;
  rel.type = net::MsgType::kJiaLockRelease;
  rel.dst = manager;
  net::Writer w(rel.payload);
  w.u32(lock_id);
  w.u32(static_cast<uint32_t>(written.size()));
  w.raw(written.data(), written.size() * 4);
  ep_.send(std::move(rel));
}

void JiaNode::on_lock_acquire(net::Message&& m) {
  net::Reader r(m.payload);
  const uint32_t lock_id = r.u32();
  std::unique_lock lk(mu_);
  LockState& s = managed_[lock_id];
  if (s.busy) {
    s.waiters.push_back(std::move(m));
    return;
  }
  s.busy = true;
  net::Message grant = grant_locked(lock_id, s);
  lk.unlock();
  ep_.reply(m, std::move(grant));
}

net::Message JiaNode::grant_locked(uint32_t lock_id, const LockState& s) {
  net::Message g{.type = net::MsgType::kReply};
  net::Writer w(g.payload);
  w.u32(lock_id);
  w.u32(static_cast<uint32_t>(s.notices.size()));
  w.raw(s.notices.data(), s.notices.size() * 4);
  return g;
}

void JiaNode::on_lock_release(net::Message&& m) {
  net::Reader r(m.payload);
  const uint32_t lock_id = r.u32();
  const uint32_t n = r.u32();
  std::vector<uint32_t> written(n);
  if (n) r.raw(written.data(), n * 4);
  std::unique_lock lk(mu_);
  LockState& s = managed_[lock_id];
  // Accumulate this critical section's notices (cleared at barriers).
  for (uint32_t p : written) {
    if (std::find(s.notices.begin(), s.notices.end(), p) == s.notices.end()) {
      s.notices.push_back(p);
    }
  }
  s.busy = false;
  if (s.waiters.empty()) return;
  net::Message next = std::move(s.waiters.front());
  s.waiters.erase(s.waiters.begin());
  s.busy = true;
  net::Message grant = grant_locked(lock_id, s);
  lk.unlock();
  ep_.reply(next, std::move(grant));
}

// ---------------------------------------------------------------------------
// Barrier (master = node 0): flush diffs, merge write notices, invalidate
// ---------------------------------------------------------------------------

void JiaNode::barrier() {
  flush_dirty_pages();
  std::vector<uint32_t> written;
  {
    std::lock_guard lk(mu_);
    written.assign(interval_written_.begin(), interval_written_.end());
    interval_written_.clear();
  }
  net::Message enter;
  enter.type = net::MsgType::kJiaBarrierEnter;
  enter.dst = 0;
  net::Writer w(enter.payload);
  w.u32(static_cast<uint32_t>(written.size()));
  w.raw(written.data(), written.size() * 4);
  net::Message exit = ep_.request(std::move(enter));

  net::Reader r(exit.payload);
  const uint32_t n = r.u32();
  std::vector<uint32_t> notices(n);
  if (n) r.raw(notices.data(), n * 4);
  invalidate_pages(notices);
  stats_.barriers.fetch_add(1, std::memory_order_relaxed);
}

void JiaNode::on_barrier_enter(net::Message&& m) {
  net::Reader r(m.payload);
  const uint32_t n = r.u32();
  std::unique_lock lk(mu_);
  for (uint32_t i = 0; i < n; ++i) merged_notices_.insert(r.u32());
  enter_reqs_.push_back(std::move(m));
  if (enter_reqs_.size() < static_cast<size_t>(nprocs())) return;

  std::vector<uint32_t> notices(merged_notices_.begin(), merged_notices_.end());
  std::vector<net::Message> reqs = std::move(enter_reqs_);
  enter_reqs_.clear();
  merged_notices_.clear();
  // Barriers globally reconcile: per-lock notice history resets too.
  for (auto& [id, s] : managed_) s.notices.clear();
  lk.unlock();
  for (auto& req : reqs) {
    net::Message resp;
    resp.type = net::MsgType::kReply;
    net::Writer w(resp.payload);
    w.u32(static_cast<uint32_t>(notices.size()));
    w.raw(notices.data(), notices.size() * 4);
    ep_.reply(req, std::move(resp));
  }
}

// ---------------------------------------------------------------------------
// Service handlers: page fetch + diff application (home side)
// ---------------------------------------------------------------------------

void JiaNode::on_page_fetch(net::Message&& m) {
  net::Reader r(m.payload);
  const size_t page = r.u32();
  LOTS_CHECK(home_of_page(page) == rank_, "page fetch sent to a non-home node");
  const size_t pb = region_.page_bytes();
  net::Message resp;
  resp.type = net::MsgType::kPageData;
  net::Writer w(resp.payload);
  {
    std::lock_guard lk(mu_);
    w.bytes({region_.base() + page * pb, pb});
  }
  ep_.reply(m, std::move(resp));
}

void JiaNode::on_page_diff(net::Message&& m) {
  net::Reader r(m.payload);
  std::unique_lock lk(mu_);
  const size_t pb = region_.page_bytes();
  while (!r.done()) {
    const size_t page = r.u32();
    const uint32_t n = r.u32();
    std::vector<uint32_t> idx(n), val(n);
    if (n) {
      r.raw(idx.data(), n * 4);
      r.raw(val.data(), n * 4);
    }
    LOTS_CHECK(home_of_page(page) == rank_, "page diff sent to a non-home node");
    // The home page may be read-protected (clean); write through a
    // temporary upgrade. The home's app thread is at a sync point when
    // diffs arrive, so this cannot race with its own faults.
    const vm::Prot prev = region_.protection(page);
    if (prev != vm::Prot::kReadWrite) region_.set_protection(page, vm::Prot::kReadWrite);
    uint8_t* base = region_.base() + page * pb;
    for (uint32_t i = 0; i < n; ++i) {
      std::memcpy(base + static_cast<size_t>(idx[i]) * 4, &val[i], 4);
    }
    if (prev != vm::Prot::kReadWrite) region_.set_protection(page, prev);
  }
  lk.unlock();
  ep_.reply(m, {.type = net::MsgType::kReply});
}

}  // namespace lots::jia
