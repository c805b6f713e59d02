// kv_zipf: lots_kv through its serving path.
//
// Each rank runs one closed-loop client thread that pushes one verb at a
// time onto the rank's WorkQueue and waits for it; the rank's app thread
// drains the queue in lots::serve(). 4096 dense keys over 32 range
// shards, preloaded during set-up. Zipf(0.99) popularity; 80% reads, of
// which 1/16 are 64-key scans; 20% writes to client-owned keys (7/8 put,
// 1/8 erase). Every op is checked against the client's model: any
// (key, version, value) must satisfy value == value_for(key, version),
// versions never run backwards, and reads of the client's own keys see
// exactly its writes.
#include <algorithm>
#include <array>
#include <barrier>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "common/rng.hpp"
#include "service/kv.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using lots::core::WorkQueue;
using lots::service::KvConfig;
using lots::service::KvStore;
using lots::service::ScanItem;
using lots::service::Sharder;

constexpr int kRanks = 2;
constexpr uint64_t kKeys = 4096;
constexpr uint32_t kShards = 32;
constexpr uint64_t kScanKeys = 64;
constexpr double kTheta = 0.99;
constexpr uint64_t kWarmupOps = 3000;  ///< per client, untimed

/// Zipfian ranks in [0, n), rank 0 hottest (Gray et al., as in YCSB).
class Zipf {
 public:
  Zipf(uint64_t n, double theta) : n_(n), theta_(theta) {
    for (uint64_t i = 1; i <= n; ++i) zetan_ += 1.0 / std::pow(static_cast<double>(i), theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - (1.0 + std::pow(0.5, theta)) / zetan_);
  }
  uint64_t next(lots::Rng& rng) const {
    const double u = rng.unit();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const auto r = static_cast<uint64_t>(static_cast<double>(n_) *
                                         std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return r >= n_ ? n_ - 1 : r;
  }

 private:
  uint64_t n_;
  double theta_;
  double zetan_ = 0.0, alpha_ = 0.0, eta_ = 0.0;
};

/// Every writer stores value_for(key, version), so any reader can check
/// any triple it sees.
uint64_t value_for(uint64_t key, uint64_t version) {
  return mix64(key * 0x9E3779B97F4A7C15ull ^ version * 0xC2B2AE3D27D4EB4Full);
}

/// Completion rendezvous between a client and the app thread running
/// its closure.
struct OpDone {
  std::mutex m;
  std::condition_variable cv;
  bool done = false;  // guarded by m
  /// Notifies under the lock: the client may destroy this object as soon
  /// as it sees `done`, so the signalling thread must be finished with it
  /// by then.
  void signal() {
    std::lock_guard lk(m);
    done = true;
    cv.notify_one();
  }
  void wait_and_reset() {
    std::unique_lock lk(m);
    cv.wait(lk, [&] { return done; });
    done = false;
  }
};

struct ClientOut {
  Samples get, write, scan;
  uint64_t attempted = 0, failed = 0, timed_ops = 0;
  uint64_t end_ns = 0;  ///< when the client's last timed op completed
  std::vector<std::string> failures;
  std::exception_ptr error;
};

/// One set-up's shared state. The clients' start barrier marks the end
/// of warm-up: its completion (run once, by the last client to arrive)
/// stamps the timed phase's start and snapshots the counters.
struct Setup {
  lots::Runtime* rt = nullptr;
  bool measure = false;
  double seconds = 0;
  uint64_t seed = 0;
  KvStore kv;
  std::array<WorkQueue, kRanks> queues;
  uint64_t t0 = 0, deadline = 0;
  size_t threads_at_start = 0;
  Counters base;

  struct Start {
    Setup* s;
    void operator()() noexcept {
      s->t0 = now_ns();
      s->deadline = s->t0 + static_cast<uint64_t>(s->seconds * 1e9);
      s->threads_at_start = process_threads();
      s->base = Counters::read(*s->rt);
    }
  };
  std::barrier<Start> start{kRanks, Start{this}};
};

class Client {
 public:
  Client(Setup& s, int id, ClientOut& out)
      : s_(s), id_(static_cast<uint64_t>(id)), out_(out), q_(s.queues[static_cast<size_t>(id)]),
        rng_(mix64(s.seed * 0x5851F42D4C957F2Dull + id_)),
        model_(kKeys), floor_(kKeys, 0) {
    for (uint64_t k = id_; k < kKeys; k += kRanks) {
      own_.push_back(k);
      model_[k] = {1, true};  // preloaded at version 1
    }
  }

  void run() {
    const Zipf read_pick(kKeys, kTheta);
    const Zipf write_pick(own_.size(), kTheta);
    for (uint64_t i = 0; i < kWarmupOps; ++i) one_op(read_pick, write_pick, false);
    s_.start.arrive_and_wait();
    if (!s_.measure) return;
    for (uint64_t now = now_ns(); now < s_.deadline; now = now_ns()) {
      one_op(read_pick, write_pick, true);
      ++out_.timed_ops;
    }
    out_.end_ns = now_ns();
  }

 private:
  struct OwnKey {
    uint64_t version = 0;
    bool live = false;
  };
  /// App-thread timestamps of one closure (traced runs only).
  struct Stamps {
    uint64_t start = 0, end = 0;
  };

  /// Pushes `verb` and waits for it; returns the op's latency in ns.
  /// Traced: an op span with three children — queue wait (push to
  /// closure start), the verb itself, and the wake-up (closure end to
  /// client resume).
  template <typename Verb>
  uint64_t call(const char* op_name, const char* verb_name, bool timed, Verb&& verb) {
    const bool traced = timed && Trace::on();
    Stamps st;
    const uint64_t t0 = now_ns();
    q_.push([&] {
      if (traced) st.start = now_ns();
      verb();
      if (traced) st.end = now_ns();
      done_.signal();
    });
    done_.wait_and_reset();
    const uint64_t t1 = now_ns();
    if (traced) {
      const uint64_t op = Trace::new_id();
      Trace::add(Trace::new_id(), op, "workqueue.wait", t0, st.start);
      Trace::add(Trace::new_id(), op, verb_name, st.start, st.end);
      Trace::add(Trace::new_id(), op, "workqueue.wake", st.end, t1);
      Trace::add(op, 0, op_name, t0, t1);
    }
    return t1 - t0;
  }

  void check(bool ok, const char* what, uint64_t key) {
    if (ok) return;
    op_ok_ = false;
    if (out_.failures.size() < 8) out_.failures.push_back(what + std::to_string(key));
  }
  void check_floor(uint64_t key, uint64_t version) {
    check(version >= floor_[key], "version ran backwards at key ", key);
    floor_[key] = std::max(floor_[key], version);
  }
  bool own(uint64_t key) const { return key % kRanks == id_; }

  void one_op(const Zipf& read_pick, const Zipf& write_pick, bool timed) {
    op_ok_ = true;
    const bool is_read = rng_.below(100) < 80;
    if (is_read && rng_.below(16) == 0) {
      const uint64_t lo = read_pick.next(rng_);
      const uint64_t hi = std::min(kKeys - 1, lo + kScanKeys - 1);
      std::vector<ScanItem> items;
      const uint64_t ns = call("client.scan", "kv.scan", timed, [&] { items = s_.kv.scan(lo, hi); });
      if (timed) out_.scan.add(ns);
      size_t at = 0;
      for (uint64_t k = lo; k <= hi; ++k) {
        while (at < items.size() && items[at].key < k) ++at;
        const bool present = at < items.size() && items[at].key == k;
        if (present) {
          check(items[at].value == value_for(k, items[at].version),
                "scan: value/version mismatch at key ", k);
          check_floor(k, items[at].version);
        }
        if (own(k)) {
          const OwnKey& m = model_[k];
          check(present == m.live && (!present || items[at].version == m.version),
                "scan: model disagrees at own key ", k);
        }
      }
    } else if (is_read) {
      const uint64_t key = read_pick.next(rng_);
      lots::service::GetResult r;
      const uint64_t ns = call("client.get", "kv.get", timed, [&] { r = s_.kv.get(key); });
      if (timed) out_.get.add(ns);
      check(!r.found || r.value == value_for(key, r.version),
            "get: value/version mismatch at key ", key);
      check_floor(key, r.version);
      if (own(key)) {
        const OwnKey& m = model_[key];
        check(r.found == m.live && r.version == m.version,
              "get: lost write at own key ", key);
      }
    } else {
      const uint64_t key = own_[write_pick.next(rng_)];
      OwnKey& m = model_[key];
      uint64_t ns = 0;
      if (m.live && rng_.below(8) == 0) {
        bool erased = false;
        ns = call("client.erase", "kv.erase", timed, [&] { erased = s_.kv.erase(key); });
        check(erased, "erase: absent own live key ", key);
        m = {m.version + 1, false};
      } else {
        const uint64_t want = m.version + 1;
        uint64_t got = 0;
        ns = call("client.put", "kv.put", timed,
                  [&] { got = s_.kv.put(key, value_for(key, want)); });
        check(got == want, "put: version skew at key ", key);
        m = {want, true};
      }
      if (timed) out_.write.add(ns);
    }
    ++out_.attempted;
    if (!op_ok_) ++out_.failed;
  }

  Setup& s_;
  const uint64_t id_;
  ClientOut& out_;
  WorkQueue& q_;
  lots::Rng rng_;
  std::vector<uint64_t> own_;
  std::vector<OwnKey> model_;    ///< indexed by key; own keys only
  std::vector<uint64_t> floor_;  ///< highest version seen per key
  OpDone done_;
  bool op_ok_ = true;
};

Sharder dense_sharder() {
  Sharder sh;
  for (uint32_t s = 1; s < kShards; ++s) {
    sh.insert_split(kKeys * s / kShards, static_cast<int>(s) % kRanks);
  }
  return sh;
}

}  // namespace

Report run_kv_zipf(const Options& opts) {
  Report rep;
  KvConfig kcfg;
  kcfg.shards = kShards;
  kcfg.slots_per_shard = 2 * kKeys / kShards + 16;  // tombstones keep their slot
  const Sharder sharder = dense_sharder();

  std::vector<double> setup_s;
  for (int n = 0; n < kSetups; ++n) {
    const uint64_t setup_start = begin_setup(n);
    Setup s;
    s.measure = n == kSetups - 1;
    s.seconds = opts.seconds;
    s.seed = opts.seed;
    const auto rt = construct_runtime(base_config(opts, n));
    s.rt = rt.get();
    std::array<ClientOut, kRanks> outs;

    rt->run([&](int rank) {
      place_app_thread(rank);
      {
        ScopedSpan span("kv.open");
        s.kv.open(kcfg, sharder);
      }
      uint64_t bad = 0;
      {
        // Preload: each rank's app thread writes version 1 of the keys its
        // client owns.
        ScopedSpan span("kv.preload");
        for (uint64_t k = static_cast<uint64_t>(rank); k < kKeys; k += kRanks) {
          bad += s.kv.put(k, value_for(k, 1)) != 1;
        }
      }
      outs[static_cast<size_t>(rank)].attempted += kKeys / kRanks;
      outs[static_cast<size_t>(rank)].failed += bad;
      lots::run_barrier();  // every key is loaded before traffic starts

      WorkQueue& q = s.queues[static_cast<size_t>(rank)];
      std::thread client([&, rank] {
        ClientOut& out = outs[static_cast<size_t>(rank)];
        try {
          pin_current_thread({static_cast<size_t>(rank)});  // beside its app thread
          Client(s, rank, out).run();
        } catch (...) {
          out.error = std::current_exception();
        }
        q.close();  // the app thread's serve() drains and returns
      });
      lots::serve(q);
      client.join();
    });

    for (const ClientOut& o : outs) {
      if (o.error) std::rethrow_exception(o.error);
      rep.attempted += o.attempted;
      rep.failed += o.failed;
      for (const std::string& f : o.failures) rep.fail(f);
    }
    setup_s.push_back(static_cast<double>(s.t0 - setup_start) / 1e9);
    const Counters end = Counters::read(*rt);
    rep.require(end.swap_outs == 0, "kv_zipf swapped objects out (it must fit in the DMM)");
    require_thread_budget(rep, s.threads_at_start, kRanks);
    if (!s.measure) continue;

    Samples scan;
    uint64_t ops = 0, end_ns = 0;
    for (const ClientOut& o : outs) {
      scan.merge(o.scan);
      ops += o.timed_ops;
      end_ns = std::max(end_ns, o.end_ns);
    }
    report_setup(rep, setup_s);
    rep.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    rep.e2e("ops_per_s", static_cast<double>(ops) * 1e9 / static_cast<double>(end_ns - s.t0),
            "1/s");
    rep.latency("read", {&outs[0].get, &outs[1].get});
    rep.latency("write", {&outs[0].write, &outs[1].write});
    rep.sample_counts.emplace_back("scan", scan.count());
    rep.e2e("scan_p50_us", scan.p50_us(), "us");

    LayerInputs in;
    in.delta = end.minus(s.base);
    in.ops = static_cast<double>(ops);
    add_layer_metrics(rep, in, Trace::all());
    if (opts.trace) {
      // The three spans tile a get by construction (same three
      // timestamps), so this checks that the instrumentation is intact:
      // a missing or misplaced span drops the share.
      for (const Metric& m : rep.layers) {
        if (m.name != "kv.read_accounted_pct") continue;
        rep.require(m.value >= 80.0, "queue wait + get + wake-up medians account for " +
                                         std::to_string(m.value) + "% of the median get");
      }
    }
  }
  return rep;
}

}  // namespace perfbench
