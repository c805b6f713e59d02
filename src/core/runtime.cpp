// Node lifecycle and the access check. The dynamic memory mapper
// (map-in / swap-out / eviction / remote swapping) lives in mapper.cpp;
// the lock and barrier protocols in SyncEngine (sync.cpp), the node's
// barrier body in barrier.cpp, home ownership in HomeEngine (home.cpp);
// replication and recovery in RecoveryEngine (recovery.cpp); object
// fetches in fetch.cpp; twin / flush / diff-application in coherence.cpp.
//
// Locking discipline (see runtime.hpp): per-object work holds only the
// object's directory-shard lock; nothing here ever holds two shard
// locks at once or blocks on a network request with one held.
#include "core/runtime.hpp"

#include <unistd.h>

#include <algorithm>
#include <thread>

#include "cluster/bootstrap.hpp"
#include "common/threading.hpp"
#include "net/udp.hpp"

namespace lots::core {
namespace {

thread_local Node* tls_node = nullptr;
thread_local int tls_thread = 0;  ///< app-thread index within its node

}  // namespace

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

Runtime::Runtime(Config cfg) : cfg_(std::move(cfg)) {
  cfg_.validate();
  if (cfg_.disk_dir.empty()) {
    scratch_ = std::make_unique<TempDir>();
    cfg_.disk_dir = scratch_->path();
  }
  if (cfg_.cluster.fabric == FabricKind::kUdp) {
    // Multi-process worker: bind one ephemeral loopback UDP socket per
    // stripe first so the rendezvous can publish them, then learn rank +
    // peer endpoint tables from the coordinator and host exactly one
    // node on them. The fds are guarded until the transport adopts
    // them: a failed rendezvous must not leak sockets per construction
    // attempt.
    size_t nstripes = cfg_.cluster.net_stripes;
    if (nstripes == 0) {  // auto: match the directory sharding, capped by the machine
      const size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
      nstripes = std::max<size_t>(1, std::min(ObjectDirectory::kDefaultShards, hw));
    }
    struct FdGuard {
      std::vector<int> fds;
      ~FdGuard() {
        for (const int fd : fds) {
          if (fd >= 0) ::close(fd);
        }
      }
    } guard;
    std::vector<uint16_t> udp_ports(nstripes, 0);
    guard.fds.reserve(nstripes);
    for (size_t s = 0; s < nstripes; ++s) {
      guard.fds.push_back(net::UdpTransport::bind_ephemeral(udp_ports[s]));
    }
    boot_ = std::make_unique<cluster::WorkerBootstrap>(cfg_.cluster.coord_port, udp_ports,
                                                       cfg_.cluster.boot_timeout_ms);
    LOTS_CHECK(boot_->nprocs() == cfg_.nprocs,
               "cluster bootstrap assigned nprocs=" + std::to_string(boot_->nprocs()) +
                   " but Config.nprocs=" + std::to_string(cfg_.nprocs));
    auto transport = std::make_unique<net::UdpTransport>(
        boot_->rank(), boot_->peer_stripe_ports(), guard.fds, cfg_.cluster.udp_window,
        cfg_.cluster.udp_rto_us);
    guard.fds.clear();  // adopted
    transport->set_fault(net::FaultSpec{
        .drop_prob = cfg_.cluster.drop_prob,
        .dup_prob = cfg_.cluster.dup_prob,
        .reorder_prob = cfg_.cluster.reorder_prob,
        // Per-rank streams: otherwise every worker would fault the same
        // positions in its send sequence.
        .seed = cfg_.cluster.fault_seed + static_cast<uint64_t>(boot_->rank()),
    });
    // Bounded retransmit: rounds beyond the cap declare the peer
    // unreachable instead of retrying forever (0 keeps the historical
    // retry-forever behavior).
    transport->set_max_retrans(cfg_.cluster.udp_max_retrans);
    net::UdpTransport* udp = transport.get();
    nodes_.push_back(std::make_unique<Node>(*this, boot_->rank(), std::move(transport)));
    Node* n = nodes_.back().get();
    // Failure detection, both directions: the transport's own verdict
    // (retransmit cap exceeded) uplinks a suspect for the coordinator to
    // arbitrate AND enters recovery locally; the coordinator's broadcast
    // (its own EOF observation, or another worker's verdict it endorsed)
    // arrives through the watcher thread below.
    udp->set_peer_unreachable_cb([this, n](int r) {
      boot_->send_suspect(r);
      n->on_peer_dead(r);
    });
    boot_->barrier_start();
    boot_->start_watch([n](int r) { n->on_peer_dead(r); });
    return;
  }
  fabric_ = std::make_unique<net::InProcFabric>(cfg_.nprocs, cfg_.net);
  nodes_.reserve(static_cast<size_t>(cfg_.nprocs));
  for (int r = 0; r < cfg_.nprocs; ++r) {
    nodes_.push_back(std::make_unique<Node>(*this, r, fabric_->open(r)));
  }
}

Runtime::~Runtime() {
  // Shutdown barrier BEFORE the nodes (and their transports) die: every
  // worker keeps serving fetches until the whole cluster reported done.
  if (boot_) boot_->report_done(0);
}

void Runtime::run(const std::function<void(int)>& fn) {
  struct Bind {
    Bind(Node* n, int t) {
      tls_node = n;
      tls_thread = t;
    }
    ~Bind() {
      tls_node = nullptr;
      tls_thread = 0;
    }
  };
  const int threads = cfg_.threads_per_node;
  // The first app-thread exception must fail run(), not hang it: its
  // siblings and the other nodes' threads would wait forever in the next
  // collective or barrier request. Break every local node's collectives
  // and fail its request waits (requests first: a collective's leader
  // holds the group's mutex while it waits on one), so each thread
  // unwinds and run_spmd rethrows the first error. The nodes stay failed.
  const auto abort_run = [this] {
    for (const auto& n : nodes_) n->ep_.abort_waits();
    for (const auto& n : nodes_) n->group_.abort();
  };
  if (!single_process()) {
    Node* n = nodes_.front().get();
    // However run() ends, the node then answers recovery rounds itself.
    struct Leave {
      Runtime& rt;
      Node& n;
      ~Leave() {
        rt.in_run_.store(false);
        n.recovery_.recover_departed();
      }
    };
    in_run_.store(true);
    Leave leave{*this, *n};
    if (threads == 1) {  // historical path: the single rank runs inline
      Bind bind(n, 0);
      fn(n->rank());
      return;
    }
    run_spmd(
        threads,
        [&](int t) {
          Bind bind(n, t);
          fn(n->rank());
        },
        abort_run);
    return;
  }
  // In-proc: worker w is app thread w % threads of rank w / threads.
  run_spmd(
      cfg_.nprocs * threads,
      [&](int w) {
        Bind bind(nodes_[static_cast<size_t>(w / threads)].get(), w % threads);
        fn(w / threads);
      },
      abort_run);
}

Node& Runtime::self() {
  LOTS_CHECK(tls_node != nullptr, "Runtime::self() called outside run()");
  return *tls_node;
}

bool Runtime::in_node() { return tls_node != nullptr; }

int Runtime::thread_index() { return tls_thread; }

std::vector<Node*> Runtime::local_nodes() const {
  std::vector<Node*> out;
  out.reserve(nodes_.size());
  for (const auto& n : nodes_) out.push_back(n.get());
  return out;
}

Node* Runtime::find_node(int rank) const {
  for (const auto& n : nodes_) {
    if (n->rank() == rank) return n.get();
  }
  return nullptr;
}

Node& Runtime::node(int rank) {
  Node* n = find_node(rank);
  LOTS_CHECK(n != nullptr, "Runtime::node(" + std::to_string(rank) +
                               "): rank is hosted by another process");
  return *n;
}

void Runtime::aggregate_stats(NodeStats& out) const {
  for (const auto& n : nodes_) out.accumulate(n->stats());
}

uint64_t Runtime::max_modeled_wait_us() const {
  uint64_t best = 0;
  for (const auto& n : nodes_) {
    const uint64_t w = n->stats_.net_wait_us.load() + n->stats_.disk_wait_us.load();
    best = std::max(best, w);
  }
  return best;
}

void Runtime::reset_stats() {
  for (auto& n : nodes_) {
    n->fold_alb_stats();  // pre-reset hits belong to the epoch being dropped
    n->stats_.reset();
  }
}

// ---------------------------------------------------------------------------
// Node lifecycle
// ---------------------------------------------------------------------------

Node::Node(Runtime& rt, int rank, std::unique_ptr<net::Transport> transport)
    : rt_(rt),
      rank_(rank),
      ep_((transport->set_stats(&stats_), std::move(transport))),
      mapper_(*this),
      coherence_(dir_, mapper_, stats_),
      fetch_(*this),
      sync_(*this),
      recovery_(*this),
      home_(*this),
      group_(rt.config().threads_per_node),
      albs_(rt.config().alb ? static_cast<size_t>(rt.config().threads_per_node) : 0),
      alb_on_(rt.config().alb),
      one_app_thread_(rt.config().threads_per_node == 1) {
  for (Alb& a : albs_) a.slots.resize(kAlbSlots);
  dir_.set_stats(&stats_);
  ep_.start([this](net::Message&& m) { dispatch(std::move(m)); });
}

void Node::fold_alb_stats() {
  std::lock_guard g(alb_fold_mu_);
  for (Alb& a : albs_) {
    const uint64_t h = a.hits.load(std::memory_order_relaxed);
    const uint64_t fresh = h - a.folded;
    if (!fresh) continue;
    a.folded = h;
    stats_.alb_hits.fetch_add(fresh, std::memory_order_relaxed);
    // access_checks stays the TOTAL check count: the locked path counts
    // itself inline, hits arrive here.
    stats_.access_checks.fetch_add(fresh, std::memory_order_relaxed);
  }
}

void Node::alb_insert(ObjectMeta& m, uint8_t* data) {
  AlbEntry& e =
      albs_[static_cast<size_t>(Runtime::thread_index())].slots[m.id & (kAlbSlots - 1)];
  if (e.id != kNullObject && e.id != m.id) {
    stats_.alb_evictions.fetch_add(1, std::memory_order_relaxed);
  }
  const std::atomic<uint64_t>* cell = dir_.generation_cell(m.id);
  // Both snapshots are taken under the object's shard lock; every bump
  // of this cell happens under the same lock, so relaxed loads are
  // ordered by the mutex.
  e = AlbEntry{m.id, data, &m, cell, cell->load(std::memory_order_relaxed),
               epoch_.load(std::memory_order_relaxed)};
}

Node::~Node() { ep_.stop(); }

const Config& Node::config() const { return rt_.config(); }

void Node::dispatch(net::Message&& m) {
  using net::MsgType;
  switch (m.type) {
    case MsgType::kObjFetch: fetch_.serve(std::move(m)); break;
    case MsgType::kSwapPut: mapper_.on_swap_put(std::move(m)); break;
    case MsgType::kSwapGet: mapper_.on_swap_get(std::move(m)); break;
    case MsgType::kSwapDrop: mapper_.on_swap_drop(std::move(m)); break;
    case MsgType::kHomeMigrate: home_.on_home_migrate(std::move(m)); break;
    case MsgType::kHomeMigrateAck: home_.on_home_migrate_ack(std::move(m)); break;
    case MsgType::kDiffBatch: on_diff_batch(std::move(m)); break;
    case MsgType::kReplicaUpdate: recovery_.on_replica_update(std::move(m)); break;
    case MsgType::kLockAcquire:
    case MsgType::kLockForward:
    case MsgType::kLockRelease:
    case MsgType::kBarrierEnter:
    case MsgType::kBarrierDone:
    case MsgType::kRunBarrierEnter:
    case MsgType::kRecoverEnter: sync_.handle(std::move(m)); break;
    default:
      LOTS_CHECK(false, std::string("unexpected message type ") + net::to_string(m.type));
  }
}

// ---------------------------------------------------------------------------
// Object lifecycle
// ---------------------------------------------------------------------------

ObjectId Node::alloc_object(size_t bytes) {
  // Thread-collective: every app thread of this node executes the same
  // SPMD declaration sequence; they rendezvous here and the last arriver
  // creates the object ONCE, so the per-node ID counter stays in step
  // with every other node regardless of threads_per_node.
  return group_.collective([&]() -> ObjectId {
    if (bytes == 0) throw UsageError("alloc_object: zero size");
    if (bytes > rt_.config().dmm_bytes / 2) {
      // Paper §4.3: "the single object size is only limited by the size of
      // the DMM area". We cap at half so a twin-able working set always fits.
      throw UsageError("single object of " + std::to_string(bytes) +
                       " bytes exceeds the DMM area capacity");
    }
    // Round-robin initial homes; the mixed protocol migrates them at
    // barriers anyway. The home is computed before create() so it is
    // published under the shard lock: a remote node running ahead in the
    // SPMD sequence may already address this id.
    ObjectMeta& m = dir_.create(static_cast<uint32_t>(bytes),
                                HomeEngine::initial_home(dir_.peek_next_id(), nprocs()));
    const ObjectId id = m.id;
    if (!rt_.config().large_object_space) {
      // LOTS-x: eager, permanent mapping; the app must fit in the process
      // space — which is the very limitation the paper removes.
      auto lk = dir_.lock_shard(id);
      m.inflight = true;
      InflightGuard guard{dir_, m, lk};
      mapper_.map_in(m, lk);
    }
    return id;
  });
}

void Node::free_object(ObjectId id) {
  // Thread-collective, like alloc_object: the erase must not race a
  // sibling thread's access check, and the rendezvous guarantees no
  // sibling is inside one.
  group_.collective([&] {
    auto lk = dir_.lock_shard(id);
    ObjectMeta* m = dir_.find(id);
    if (!m) return;
    // drop_mapping covers every copy the object may hold: the DMM block,
    // the local disk image, AND a remotely parked image (the kSwapDrop
    // would otherwise leak the buddy's disk space forever). The erase
    // happens under the same lock hold — an unlock window here would let
    // an in-flight diff re-materialize a home disk image that the erase
    // then orphans.
    mapper_.drop_mapping(*m, /*keep_disk_image=*/false);
    dir_.remove_locked(id);
    // Every node frees collectively, so each backup drops its replica
    // here too (the backup store's mutex is a leaf under shard locks).
    recovery_.drop_replica(id);
  });
}

size_t Node::object_size(ObjectId id) {
  auto lk = dir_.lock_shard(id);
  return dir_.get(id).size_bytes;
}

size_t Node::touch(std::span<const ObjectId> ids) { return fetch_.fetch_many(ids); }

// ---------------------------------------------------------------------------
// The access check (paper §3.3): fast path is a table lookup under the
// object's shard lock — disjoint objects never contend. Sibling app
// threads faulting the SAME object coordinate through the in-flight
// guard: exactly one runs the slow path, the rest park on the shard's
// condition variable and re-check when it settles.
// ---------------------------------------------------------------------------

void* Node::access(ObjectId id) {
  // Scope attribution: every access check stamps its thread into the
  // object's twin_writers, so this thread's release flushes this twin —
  // a lock-guarded write ships with its own lock's token even when a
  // sibling created the twin.
  const uint64_t tbit = twin_writer_bit(Runtime::thread_index());
  // Hard-pin: no sibling eviction may unmap this object while our
  // statement still holds its reference.
  mapper_.stmt_pin(id, Runtime::thread_index());
  if (alb_on_) {
    // Lookaside hit: this thread validated the object earlier in the
    // SAME interval (epoch match) and nothing in its shard has left the
    // fast-path-eligible state since (generation match) — the shard
    // lock, hash lookup and twin bookkeeping are all redundant. The pin
    // store above must be ordered before the generation load: an
    // evictor bumps the generation, fences and THEN rechecks the pin
    // rings (Mapper::alloc_dmm_or_evict), so either we see its bump and
    // miss, or it sees our pin and skips the victim — never both blind.
    // A sibling evictor needs a seq_cst fence on both sides. With one
    // app thread the only evictor is this thread, whose pin precedes its
    // recheck in program order: a compiler fence keeps the order here.
    Alb& alb = albs_[static_cast<size_t>(Runtime::thread_index())];
    const AlbEntry& e = alb.slots[id & (kAlbSlots - 1)];
    if (e.id == id && e.epoch == epoch_.load(std::memory_order_relaxed)) {
      if (one_app_thread_) {
        std::atomic_signal_fence(std::memory_order_seq_cst);
      } else {
        std::atomic_thread_fence(std::memory_order_seq_cst);
      }
      if (e.gen->load(std::memory_order_relaxed) == e.gen_val) {
        // Refresh the LRU stamp to the newest tick WITHOUT advancing
        // the clock (no RMW): hits keep hot objects looking recent,
        // and choose_victim's oldest-fallback covers the slow clock.
        e.meta->access_stamp.store(dir_.newest_stamp(), std::memory_order_relaxed);
        // Single-writer hit counter: folded into NodeStats::alb_hits /
        // access_checks by fold_alb_stats() — no lock-prefixed RMW here.
        alb.hits.store(alb.hits.load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
        return e.data;
      }
    }
  }
  stats_.access_checks.fetch_add(1, std::memory_order_relaxed);
  auto lk = dir_.lock_shard(id);
  ObjectMeta& m = dir_.get(id);
  for (;;) {
    if (rt_.config().large_object_space) {
      m.access_stamp.store(dir_.stamp(), std::memory_order_relaxed);
    }
    if (!m.inflight && m.map == MapState::kMapped && m.share == ShareState::kValid &&
        m.pending.empty() && m.twinned) {
      if (m.prefetched) {
        // A mid-interval revalidation can leave a warmed object fully
        // fast-path eligible (still twinned, nothing pending): count
        // the hit here too, or the next barrier would book it wasted.
        m.prefetched = false;
        stats_.prefetch_hits.fetch_add(1, std::memory_order_relaxed);
      }
      m.twin_writers |= tbit;
      uint8_t* data = mapper_.data(m);
      if (alb_on_) alb_insert(m, data);
      return data;
    }
    if (!m.inflight) break;
    stats_.inflight_waits.fetch_add(1, std::memory_order_relaxed);
    dir_.shard_cv(id).wait(lk);
  }

  // Slow path: bring the object in from disk and/or the network, with
  // the in-flight guard held. The helpers may drop `lk` around blocking
  // requests; each subsequent step re-examines the flag it owns, and the
  // guard keeps every other thread out of this object's mapping state
  // while `lk` is down.
  stats_.slow_path_checks.fetch_add(1, std::memory_order_relaxed);
  m.inflight = true;
  InflightGuard guard{dir_, m, lk};
  if (m.prefetched) {
    // First access to a copy the async fetch engine warmed: a hit when
    // the warm-up survived to be useful, wasted when something (an
    // invalidation, a dropped base) undid it first.
    m.prefetched = false;
    auto& counter = m.share == ShareState::kValid ? stats_.prefetch_hits : stats_.prefetch_wasted;
    counter.fetch_add(1, std::memory_order_relaxed);
  }
  if (m.share == ShareState::kInvalid) fetch_.fetch_object(m, lk);  // maps it on the reply
  if (m.map != MapState::kMapped) mapper_.map_in(m, lk);
  if (!m.pending.empty()) coherence_.apply_pending(m);
  if (!m.twinned) coherence_.ensure_twin(m, Runtime::thread_index());
  m.twin_writers |= tbit;
  uint8_t* data = mapper_.data(m);
  if (alb_on_) alb_insert(m, data);
  return data;
}

bool Node::is_mapped(ObjectId id) {
  auto lk = dir_.lock_shard(id);
  ObjectMeta& m = dir_.get(id);
  while (m.inflight) dir_.shard_cv(id).wait(lk);  // report settled state only
  return m.map == MapState::kMapped;
}

bool Node::is_valid(ObjectId id) {
  auto lk = dir_.lock_shard(id);
  ObjectMeta& m = dir_.get(id);
  while (m.inflight) dir_.shard_cv(id).wait(lk);
  return m.share == ShareState::kValid;
}

int32_t Node::home_of(ObjectId id) {
  auto lk = dir_.lock_shard(id);
  const ObjectMeta* m = dir_.find(id);
  return m ? m->home : -1;
}

void Node::set_home_for_test(ObjectId id, int32_t home) {
  auto lk = dir_.lock_shard(id);
  home_.move_home(dir_.get(id), home);
}

// ---------------------------------------------------------------------------
// Batched diff delivery (home side or write-update broadcast receiver):
// one message carries every record the sender owed this node for one
// sync operation. Records are applied under their own shard locks, one
// at a time — a batch touching many objects still never blocks an
// unrelated access check for long.
// ---------------------------------------------------------------------------

void Node::on_diff_batch(net::Message&& m) {
  net::Reader r(m.payload);
  const uint32_t nrecs = r.u32();
  for (uint32_t i = 0; i < nrecs; ++i) {
    DiffRecord rec = decode_record(r);
    auto lk = dir_.lock_shard(rec.object);
    ObjectMeta* obj = dir_.find(rec.object);
    if (!obj) continue;
    coherence_.apply_delivery(*obj, std::move(rec), rank_);
  }
  ep_.reply(m, {.type = net::MsgType::kReply});
}

}  // namespace lots::core
