// lots_kv closed-loop load harness (the "serve real traffic" workload).
//
// Topology: every node runs the request-queue execution mode — its app
// threads park in lots::serve() draining a per-rank WorkQueue — while
// C plain client threads per node (no DSM binding) push one verb at a
// time and wait for its completion: a closed loop, optionally paced to
// a per-client QPS target. Keys are dense integers [0, keys) range-
// sharded by a custom split-point Sharder (built with insert_split, so
// the non-uniform path runs in production, not just tests); a client
// reads ANY key but writes only the keys it owns (key % total_clients
// == its global id), which is what makes the model check sound.
//
// Key popularity: uniform or Zipfian (LOTS_KV_ZIPF=theta, YCSB-style
// sampler). Hot Zipfian keys are LOW keys, which under range sharding
// concentrates them in the low shards — deliberately: skewed popularity
// hammering a few shard locks is the pathology this workload exists to
// measure (and what the adaptive home-migration item will attack).
//
// The self-gate (KV_SMOKE_OK): every client maintains a model of its
// own keys — per-key version counters and the value it wrote — and
// verifies linearizable read-your-writes on every op:
//  * put(own k) must return exactly model_version + 1 (single writer);
//  * get(own k) must return exactly the model's (live, version, value);
//  * get(foreign k) must return value == value_for(key, version) (all
//    writers derive values from (key, version)) and a version that
//    never runs backwards from what this client already observed;
//  * scan must contain every live own key of the range with exact
//    version/value, no dead own key, and consistent foreign items.
// Any violation anywhere fails the token and the process exit code.
//
// Reporting: BENCH_JSON rows (per rank and aggregate) with achieved
// throughput and p50/p99 latency from a merged log-bucket histogram.
// Cross-rank aggregation rides the DSM itself: each rank writes its
// slice of a shared results object, a barrier publishes it, rank 0
// merges.
//
//   In one process (4 modeled ranks):   ./bench_kv_load
//   Real processes over loopback UDP:
//       ./lots_launch -n 4 --threads 2 --kv-shards 32 --kv-clients 4 ./bench_kv_load
//   Lossy:  ./lots_launch -n 4 --drop 0.01 --reorder 0.01 ./bench_kv_load
//   Chaos soak (LOTS_KV_SPARE=3: rank 3 runs ZERO clients, so SIGKILLing
//   it right after the publish barrier — its 2nd coherence barrier; the
//   KvStore open barrier is the 1st — loses no client model; survivors
//   recover, rank 0 re-reads the dead rank's slice from its replica
//   holder, and KV_SMOKE_OK still gates):
//       LOTS_KV_SPARE=3 ./lots_launch -n 4 --threads 2 --replicate 2
//           --kill 3:barrier:2 ./bench_kv_load
#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "core/api.hpp"
#include "service/kv.hpp"

namespace lots::bench {
namespace {

using core::WorkQueue;
using service::KvConfig;
using service::KvStore;
using service::ScanItem;
using service::Sharder;

// ---- workload options (LOTS_KV_* / lots_launch --kv-*) ---------------------

struct LoadOptions {
  uint32_t clients = 4;   ///< closed-loop client threads per node
  uint64_t keys = 4096;   ///< dense key space [0, keys)
  uint64_t ops = 2000;    ///< ops per client
  long read_pct = 80;     ///< reads per 100 ops (1/16 of reads are scans)
  double zipf = 0.99;     ///< popularity skew theta; 0 = uniform
  double qps = 0.0;       ///< per-client target rate; 0 = unthrottled
  uint64_t seed = 1;
  int spare = -1;  ///< LOTS_KV_SPARE: rank that runs ZERO clients (chaos
                   ///< soak victim — killable without losing any client
                   ///< model; its published slice is recovered from its
                   ///< replica holder by rank 0's merge)

  static LoadOptions from_env() {
    using namespace lots::cluster;
    LoadOptions o;
    o.clients = static_cast<uint32_t>(env_int_or(kEnvKvClients, o.clients, 1, 1024));
    o.keys = static_cast<uint64_t>(env_int_or(kEnvKvKeys, static_cast<long>(o.keys), 16, 1 << 24));
    o.ops = static_cast<uint64_t>(env_int_or(kEnvKvOps, static_cast<long>(o.ops), 1, 1 << 30));
    o.read_pct = env_int_or(kEnvKvReadPct, o.read_pct, 0, 100);
    o.zipf = env_double_or(kEnvKvZipf, o.zipf, 0.0, 0.999);
    o.qps = env_double_or(kEnvKvQps, o.qps, 0.0, 1e7);
    o.seed = static_cast<uint64_t>(env_int_or(kEnvKvSeed, static_cast<long>(o.seed), 0,
                                              std::numeric_limits<long>::max()));
    o.spare = static_cast<int>(env_int_or(kEnvKvSpare, o.spare, -1, 255));
    return o;
  }
};

// ---- Zipfian popularity (Gray et al. / YCSB incremental form) --------------

class ZipfGen {
 public:
  ZipfGen(uint64_t n, double theta) : n_(n), theta_(theta) {
    if (theta_ <= 0.0) return;  // uniform
    for (uint64_t i = 1; i <= n_; ++i) zetan_ += 1.0 / std::pow(static_cast<double>(i), theta_);
    const double zeta2 = 1.0 + std::pow(0.5, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) / (1.0 - zeta2 / zetan_);
  }

  /// Rank in [0, n): rank 0 is the hottest.
  uint64_t next(Rng& rng) const {
    if (theta_ <= 0.0) return rng.below(n_);
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

// ---- latency histogram (log buckets, 8 per octave: ~9% resolution) ---------

struct Hist {
  static constexpr size_t kBuckets = 256;
  std::array<uint64_t, kBuckets> b{};
  uint64_t count = 0;
  uint64_t sum_us = 0;

  void add(uint64_t us) {
    const size_t idx =
        us < 2 ? 0
               : std::min<size_t>(kBuckets - 1,
                                  static_cast<size_t>(8.0 * std::log2(static_cast<double>(us))));
    ++b[idx];
    ++count;
    sum_us += us;
  }
  void merge(const Hist& o) {
    for (size_t i = 0; i < kBuckets; ++i) b[i] += o.b[i];
    count += o.count;
    sum_us += o.sum_us;
  }
  /// Approximate quantile in microseconds (bucket geometric midpoint).
  [[nodiscard]] double quantile(double q) const {
    if (count == 0) return 0.0;
    const auto target = static_cast<uint64_t>(q * static_cast<double>(count - 1));
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      seen += b[i];
      if (seen > target) return std::exp2((static_cast<double>(i) + 0.5) / 8.0);
    }
    return std::exp2(static_cast<double>(kBuckets) / 8.0);
  }
};

// ---- the client-side model (read-your-writes / linearizability check) ------

uint64_t value_for(uint64_t key, uint64_t version) {
  // Every writer derives stored values from (key, version) with this
  // one function, so ANY reader can validate any (key, version, value)
  // triple it sees — a torn or cross-version read cannot pass.
  uint64_t x = key * 0x9E3779B97F4A7C15ull ^ version * 0xC2B2AE3D27D4EB4Full;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  return x ^ (x >> 31);
}

struct OwnedKey {
  uint64_t version = 0;
  bool live = false;
};

struct ClientResult {
  uint64_t ops = 0, reads = 0, writes = 0, scans = 0;
  uint64_t failures = 0;
  std::string first_failure;
  Hist hist;
};

/// Per-op completion rendezvous between the client thread and whichever
/// app thread executes its work item.
struct OpDone {
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  /// Notifies while holding the mutex: the waiting client may see `done`
  /// the moment the lock drops, return and destroy this OpDone, so an
  /// unlocked notify could touch a dead condition variable.
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

struct ClientCtx {
  KvStore* kv = nullptr;
  WorkQueue* queue = nullptr;
  const LoadOptions* opts = nullptr;
  uint64_t total_clients = 0;
  uint64_t global_id = 0;  ///< rank * clients + local client index
};

void client_main(const ClientCtx& ctx, ClientResult& out) {
  const LoadOptions& o = *ctx.opts;
  Rng rng(o.seed * 0x5851F42D4C957F2Dull + ctx.global_id * 0x14057B7EF767814Full + 1);

  // The keys this client writes: {k : k % total_clients == global_id}.
  std::vector<uint64_t> own_keys;
  for (uint64_t k = ctx.global_id; k < o.keys; k += ctx.total_clients) own_keys.push_back(k);
  if (own_keys.empty()) return;  // more clients than keys: nothing to write
  std::unordered_map<uint64_t, OwnedKey> model;
  std::unordered_map<uint64_t, uint64_t> observed;  ///< key -> version floor

  const ZipfGen read_pick(o.keys, o.zipf);
  const ZipfGen write_pick(own_keys.size(), o.zipf);

  auto fail = [&](const std::string& what) {
    ++out.failures;
    if (out.first_failure.empty()) out.first_failure = what;
  };
  auto check_floor = [&](uint64_t key, uint64_t version) {
    auto [it, fresh] = observed.try_emplace(key, version);
    if (!fresh) {
      if (version < it->second) {
        fail("version ran backwards for key " + std::to_string(key) + ": saw " +
             std::to_string(version) + " after " + std::to_string(it->second));
      } else {
        it->second = version;
      }
    }
  };

  OpDone done;
  const uint64_t t_start = now_us();
  for (uint64_t i = 0; i < o.ops; ++i) {
    if (o.qps > 0.0) {
      const auto due = t_start + static_cast<uint64_t>(static_cast<double>(i) * 1e6 / o.qps);
      const uint64_t now = now_us();
      if (now < due) std::this_thread::sleep_for(std::chrono::microseconds(due - now));
    }

    const bool is_read = rng.below(100) < static_cast<uint64_t>(o.read_pct);
    const uint64_t t0 = now_us();
    if (is_read && rng.below(16) == 0) {
      // ---- scan: a 64-key window around a popular key ----
      const uint64_t lo = read_pick.next(rng);
      const uint64_t hi = std::min(o.keys - 1, lo + 63);
      std::vector<ScanItem> items;
      ctx.queue->push([&] {
        items = ctx.kv->scan(lo, hi);
        done.signal();
      });
      done.wait_and_reset();
      ++out.scans;
      for (const ScanItem& it : items) {
        if (it.value != value_for(it.key, it.version)) {
          fail("scan: value/version mismatch at key " + std::to_string(it.key));
        }
        check_floor(it.key, it.version);
        if (it.key % ctx.total_clients == ctx.global_id) {
          const auto m = model.find(it.key);
          if (m == model.end() || !m->second.live || m->second.version != it.version) {
            fail("scan: own key " + std::to_string(it.key) + " inconsistent with model");
          }
        }
      }
      // Completeness: every live own key in [lo, hi] must have appeared.
      for (const auto& [k, st] : model) {
        if (!st.live || k < lo || k > hi) continue;
        bool present = false;
        for (const ScanItem& it : items) present |= (it.key == k);
        if (!present) fail("scan: live own key " + std::to_string(k) + " missing");
      }
    } else if (is_read) {
      // ---- get ----
      const uint64_t key = read_pick.next(rng);
      service::GetResult r;
      ctx.queue->push([&] {
        r = ctx.kv->get(key);
        done.signal();
      });
      done.wait_and_reset();
      ++out.reads;
      if (r.found && r.value != value_for(key, r.version)) {
        fail("get: value/version mismatch at key " + std::to_string(key));
      }
      if (r.version != 0) check_floor(key, r.version);
      if (key % ctx.total_clients == ctx.global_id) {
        // Read-your-writes on an own key is EXACT: we are its only writer.
        const auto m = model.find(key);
        const uint64_t want_ver = m == model.end() ? 0 : m->second.version;
        const bool want_live = m != model.end() && m->second.live;
        if (r.found != want_live || r.version != want_ver ||
            (want_live && r.value != value_for(key, want_ver))) {
          fail("get: own key " + std::to_string(key) + " lost a write (want v" +
               std::to_string(want_ver) + " got v" + std::to_string(r.version) + ")");
        }
      }
    } else {
      // ---- write: 7/8 put, 1/8 erase, always an own key ----
      const uint64_t key = own_keys[write_pick.next(rng)];
      OwnedKey& m = model[key];
      if (m.live && rng.below(8) == 0) {
        bool erased = false;
        ctx.queue->push([&] {
          erased = ctx.kv->erase(key);
          done.signal();
        });
        done.wait_and_reset();
        if (!erased) fail("erase: own live key " + std::to_string(key) + " was absent");
        ++m.version;
        m.live = false;
      } else {
        const uint64_t want_ver = m.version + 1;
        uint64_t got_ver = 0;
        ctx.queue->push([&] {
          got_ver = ctx.kv->put(key, value_for(key, want_ver));
          done.signal();
        });
        done.wait_and_reset();
        if (got_ver != want_ver) {
          fail("put: version skew at key " + std::to_string(key) + " (want v" +
               std::to_string(want_ver) + " got v" + std::to_string(got_ver) + ")");
        }
        m.version = want_ver;
        m.live = true;
      }
      ++out.writes;
    }
    out.hist.add(now_us() - t0);
    ++out.ops;
  }
}

// ---- cross-rank result aggregation (rides the DSM) -------------------------

// Per-rank slice of the shared results object, in uint64 words.
constexpr size_t kOk = 0, kOps = 1, kWallUs = 2, kReads = 3, kWrites = 4, kScans = 5,
                 kFailures = 6, kHist = 7;  // kHist .. kHist+255
constexpr size_t kHistCount = kHist + Hist::kBuckets, kHistSum = kHistCount + 1;
constexpr size_t kSlice = kHistSum + 1;

Sharder build_sharder(const KvConfig& kcfg, uint64_t keys, int nprocs) {
  // Dense-key split points: shard s starts at s * keys / shards. Built
  // through the rebalancing API (empty map + insert_split) so the
  // production path to a non-uniform layout is the one under load.
  Sharder sh;
  for (uint32_t s = 1; s < kcfg.shards; ++s) {
    sh.insert_split(keys * s / kcfg.shards, static_cast<int>(s) % nprocs);
  }
  return sh;
}

/// Atomic because the in-proc fabric runs every rank's threads in ONE
/// process sharing one of these; under UDP each process sees one rank.
struct RankOutcome {
  std::atomic<bool> local_fail{false};    ///< some local rank failed its model
  std::atomic<bool> cluster_fail{false};  ///< rank 0's merged verdict
  std::atomic<int> my_rank{0};            ///< meaningful under UDP only
};

/// The inner repair loop of the recoverable pattern: recover() throws
/// WorkerDied when ANOTHER worker dies mid-repair; keep going until a
/// round completes (examples/fault_tolerant.cpp).
void recover_until_quiet() {
  for (;;) {
    try {
      lots::recover();
      return;
    } catch (const lots::WorkerDied&) {
    }
  }
}

void run_load(core::Runtime& rt, const Config& cfg, const LoadOptions& opts,
              const KvConfig& kcfg, const char* label, RankOutcome& outcome) {
  const auto nprocs = static_cast<uint64_t>(cfg.nprocs);
  // The spare rank (chaos soak) serves shards but runs no clients, so
  // the dense client-id space — which defines key ownership via
  // key % total_clients — is built over the OTHER ranks only.
  const bool has_spare = opts.spare >= 0 && opts.spare < cfg.nprocs;
  const uint64_t client_ranks = nprocs - (has_spare ? 1 : 0);
  const uint64_t total_clients = client_ranks * opts.clients;
  std::vector<std::unique_ptr<WorkQueue>> queues;
  for (uint64_t r = 0; r < nprocs; ++r) queues.push_back(std::make_unique<WorkQueue>());
  KvStore kv;

  rt.run([&](int rank) {
    kv.open(kcfg, build_sharder(kcfg, opts.keys, cfg.nprocs));
    lots::Pointer<uint64_t> res;
    res.alloc(nprocs * kSlice);
    if (lots::my_thread() == 0) {
      outcome.my_rank.store(rank);
      rt.reset_stats();  // report load-phase protocol traffic, not open()'s
    }
    lots::run_barrier();  // open + reset everywhere before traffic starts

    // Dense client-rank index: ranks after the spare shift down one so
    // global ids stay contiguous in [0, total_clients).
    const bool is_spare = has_spare && rank == opts.spare;
    const uint32_t my_clients = is_spare ? 0 : opts.clients;
    const uint64_t crank =
        static_cast<uint64_t>(rank) - ((has_spare && rank > opts.spare) ? 1 : 0);

    WorkQueue& q = *queues[static_cast<size_t>(rank)];
    std::vector<std::thread> clients;
    std::vector<ClientResult> results(my_clients);
    uint64_t t0 = 0;
    if (lots::my_thread() == 0) {
      t0 = now_us();
      if (my_clients == 0) {
        // The spare pushes no work of its own; close the queue so this
        // rank's serve() loops return once the queue drains. Its DSM
        // node keeps answering remote shard traffic on the service
        // thread until the publish barrier below.
        q.close();
      }
      auto remaining = std::make_shared<std::atomic<uint32_t>>(my_clients);
      for (uint32_t c = 0; c < my_clients; ++c) {
        ClientCtx ctx{&kv, &q, &opts, total_clients, crank * opts.clients + c};
        clients.emplace_back([ctx, &results, c, remaining, &q] {
          client_main(ctx, results[c]);
          // The last client of the rank turns off the lights: the app
          // threads' serve() loops drain and return.
          if (remaining->fetch_sub(1) == 1) q.close();
        });
      }
    }
    lots::serve(q);  // every app thread of the rank services work items

    ClientResult rank_total;
    uint64_t wall_us = 0;
    bool rank_ok = true;
    if (lots::my_thread() == 0) {
      for (auto& t : clients) t.join();
      wall_us = now_us() - t0;
      for (const ClientResult& r : results) {
        rank_total.ops += r.ops;
        rank_total.reads += r.reads;
        rank_total.writes += r.writes;
        rank_total.scans += r.scans;
        rank_total.failures += r.failures;
        rank_total.hist.merge(r.hist);
        if (r.failures && !r.first_failure.empty()) {
          std::fprintf(stderr, "kv_load[%s] rank %d MODEL CHECK FAILED: %s (+%" PRIu64 " more)\n",
                       label, rank, r.first_failure.c_str(), r.failures - 1);
        }
      }
      rank_ok = rank_total.failures == 0 && rank_total.ops == my_clients * opts.ops;
      if (!rank_ok) outcome.local_fail.store(true);
    }
    // Publish this rank's slice. Under the chaos soak (--kill on the
    // spare) a peer can die here; slice write + barrier is an
    // idempotent superstep, so catch on every app thread, recover, and
    // redo — the recoverable pattern from examples/fault_tolerant.cpp.
    //
    // Thread alignment: a WorkerDied raised in a SINGLE-thread section
    // (the slice writes below, the merge reads further down) is
    // swallowed in place, because sibling app threads may already be
    // parked inside the next collective — recovering unilaterally would
    // put this thread one collective out of step with them (deadlock).
    // The death stays pending, so the next collective every thread
    // executes (barrier / run_barrier) throws WorkerDied to ALL of
    // them via the leader's check_death, and they recover in lockstep.
    for (;;) {
      try {
        if (lots::my_thread() == 0) {
          try {
            const size_t base = static_cast<size_t>(rank) * kSlice;
            res[base + kOk] = rank_ok ? 1 : 0;
            res[base + kOps] = rank_total.ops;
            res[base + kWallUs] = wall_us;
            res[base + kReads] = rank_total.reads;
            res[base + kWrites] = rank_total.writes;
            res[base + kScans] = rank_total.scans;
            res[base + kFailures] = rank_total.failures;
            for (size_t i = 0; i < Hist::kBuckets; ++i) {
              res[base + kHist + i] = rank_total.hist.b[i];
            }
            res[base + kHistCount] = rank_total.hist.count;
            res[base + kHistSum] = rank_total.hist.sum_us;
          } catch (const lots::WorkerDied&) {
            // Swallowed: the barrier below rethrows on every thread.
          }
        }
        lots::barrier();  // publish every rank's slice
        break;
      } catch (const lots::WorkerDied&) {
        recover_until_quiet();
      }
    }

    // Merge + hold-open rendezvous, also recoverable: the chaos soak
    // kills the spare right after the publish barrier commits, so the
    // merge below may be the first to notice. All slice reads happen
    // into a local snapshot BEFORE any reporting, so a retry after
    // recover() (which re-homes the dead rank's slice to its replica
    // holder) never emits duplicate rows.
    bool reported = false;
    for (;;) {
      try {
        if (lots::my_worker() == 0 && !reported) {
          try {
            std::vector<uint64_t> snap(static_cast<size_t>(nprocs) * kSlice);
            for (size_t w = 0; w < snap.size(); ++w) snap[w] = res[w];
            Hist merged;
            uint64_t total_ops = 0, max_wall_us = 0, failures = 0;
            bool all_ok = true;
            for (uint64_t r = 0; r < nprocs; ++r) {
              const size_t base = r * kSlice;
              all_ok &= snap[base + kOk] == 1;
              total_ops += snap[base + kOps];
              max_wall_us = std::max(max_wall_us, snap[base + kWallUs]);
              failures += snap[base + kFailures];
              Hist h;
              for (size_t i = 0; i < Hist::kBuckets; ++i) h.b[i] = snap[base + kHist + i];
              h.count = snap[base + kHistCount];
              h.sum_us = snap[base + kHistSum];
              merged.merge(h);
              JsonLine("kv_load")
                  .str("row", "rank")
                  .str("label", label)
                  .num("rank", r)
                  .num("ops", snap[base + kOps])
                  .num("wall_s", static_cast<double>(snap[base + kWallUs]) / 1e6)
                  .num("failures", snap[base + kFailures])
                  .boolean("ok", snap[base + kOk] == 1)
                  .emit();
            }
            const double wall_s = static_cast<double>(max_wall_us) / 1e6;
            const double qps = wall_s > 0 ? static_cast<double>(total_ops) / wall_s : 0.0;
            NodeStats agg;
            rt.aggregate_stats(agg);
            JsonLine("kv_load")
                .str("row", "aggregate")
                .str("label", label)
                .num("p", nprocs)
                .num("threads", static_cast<uint64_t>(cfg.threads_per_node))
                .num("clients", total_clients)
                .num("shards", static_cast<uint64_t>(kcfg.shards))
                .num("keys", opts.keys)
                .num("read_pct", opts.read_pct)
                .num("zipf", opts.zipf)
                .num("ops", total_ops)
                .num("wall_s", wall_s)
                .num("qps", qps)
                .num("p50_us", merged.quantile(0.50))
                .num("p99_us", merged.quantile(0.99))
                .num("mean_us", merged.count ? static_cast<double>(merged.sum_us) /
                                                   static_cast<double>(merged.count)
                                             : 0.0)
                .num("lock_acquires", agg.lock_acquires.load())
                .num("msgs", agg.msgs_sent.load())
                .num("fetches", agg.object_fetches.load())
                .num("service_items", agg.service_items.load())
                .num("recoveries", agg.recoveries.load())
                .boolean("ok", all_ok)
                .emit();
            std::printf("KV_SMOKE_%s label=%s p=%" PRIu64 " threads=%d clients=%" PRIu64
                        " shards=%u keys=%" PRIu64 " ops=%" PRIu64 " failures=%" PRIu64
                        " qps=%.0f p50_us=%.0f p99_us=%.0f recoveries=%" PRIu64 "\n",
                        all_ok ? "OK" : "FAIL", label, nprocs, cfg.threads_per_node, total_clients,
                        kcfg.shards, opts.keys, total_ops, failures, qps, merged.quantile(0.50),
                        merged.quantile(0.99), agg.recoveries.load());
            if (!all_ok) outcome.cluster_fail.store(true);
            reported = true;
          } catch (const lots::WorkerDied&) {
            // Single-thread section: swallow, stay un-reported, and let
            // the run_barrier below rethrow on every app thread so the
            // node recovers in lockstep (see the publish loop above).
          }
        }
        // Hold every rank until rank 0 has fetched all the slices:
        // under UDP a rank that returns here starts tearing its node
        // down, and rank 0's reads above may still need that node's
        // home copies.
        lots::run_barrier();
        break;
      } catch (const lots::WorkerDied&) {
        recover_until_quiet();
      }
    }
  });
}

KvConfig kv_config(const LoadOptions& opts) {
  KvConfig kcfg = KvConfig::from_env();
  // A shard needs at least one dense key or build_sharder would produce
  // duplicate split points. Deterministic from env, so cluster-uniform.
  kcfg.shards = static_cast<uint32_t>(std::min<uint64_t>(kcfg.shards, opts.keys));
  if (std::getenv(cluster::kEnvKvSlots) == nullptr) {
    // Unless pinned, size buckets for the whole key space with slack:
    // tombstones never free their slot (per-key versions persist).
    kcfg.slots_per_shard = (2 * opts.keys) / kcfg.shards + 16;
  }
  return kcfg;
}

}  // namespace
}  // namespace lots::bench

int main() {
  using namespace lots;
  using namespace lots::bench;

  const LoadOptions opts = LoadOptions::from_env();
  const KvConfig kcfg = kv_config(opts);

  Config cfg;
  cfg.nprocs = 4;
  cfg.dmm_bytes = 32u << 20;
  if (cluster::configure_from_env(cfg)) {
    // One lots_launch worker: a single run with the environment's knobs.
    core::Runtime rt(cfg);
    RankOutcome r;
    run_load(rt, cfg, opts, kcfg, "udp", r);
    // Rank 0 fails the launch on the merged verdict; every rank fails it
    // on its own model check.
    const bool ok = !r.local_fail.load() && (r.my_rank.load() != 0 || !r.cluster_fail.load());
    return ok ? 0 : 1;
  }

  // Standalone: an in-proc cluster, uniform then Zipfian popularity
  // (both shapes must pass their model checks for the process to exit 0).
  std::vector<std::pair<double, const char*>> phases{{0.0, "uniform"}};
  if (opts.zipf > 0.0) phases.emplace_back(opts.zipf, "zipf");
  bool ok = true;
  for (const auto& [theta, label] : phases) {
    LoadOptions phase = opts;
    phase.zipf = theta;
    core::Runtime rt(cfg);
    RankOutcome r;
    run_load(rt, cfg, phase, kcfg, label, r);
    ok &= !r.local_fail.load() && !r.cluster_fail.load();
  }
  return ok ? 0 : 1;
}
