#include "measure.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

uint64_t g_process_start_ns = 0;

// ---- Samples -----------------------------------------------------------------

uint64_t Samples::sum_ns() const {
  uint64_t s = 0;
  for (const uint32_t x : v_) s += x;
  return s;
}

double Samples::pct_us(double p, size_t min_beyond) const {
  const size_t n = v_.size();
  if (n == 0) return 0.0;
  // Nearest rank: the smallest sample with at least p% of samples <= it.
  auto rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < min_beyond) {
    throw std::runtime_error("p" + std::to_string(static_cast<int>(p)) + " over " +
                             std::to_string(n) + " samples leaves fewer than " +
                             std::to_string(min_beyond) + " beyond it");
  }
  std::vector<uint32_t> sorted = v_;
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<ptrdiff_t>(rank - 1),
                   sorted.end());
  return static_cast<double>(sorted[rank - 1]) / 1e3;
}

// ---- Trace ---------------------------------------------------------------------

std::atomic<bool> Trace::on_{false};
std::atomic<uint64_t> Trace::next_id_{1};

namespace {

struct SpanBuffer {
  std::vector<Span> spans;
};

std::mutex g_buffers_mu;
std::vector<std::unique_ptr<SpanBuffer>> g_buffers;  // guarded by g_buffers_mu

/// The calling thread's buffer. Buffers are owned by g_buffers, so they
/// outlive the threads that filled them.
SpanBuffer& my_buffer() {
  thread_local SpanBuffer* mine = nullptr;
  if (mine == nullptr) {
    auto b = std::make_unique<SpanBuffer>();
    b->spans.reserve(1 << 14);
    mine = b.get();
    std::lock_guard lk(g_buffers_mu);
    g_buffers.push_back(std::move(b));
  }
  return *mine;
}

thread_local std::vector<uint64_t> t_open;  ///< open ScopedSpan ids, innermost last

}  // namespace

void Trace::add(uint64_t id, uint64_t parent, const char* name, uint64_t start_ns,
                uint64_t end_ns) {
  if (!on()) return;
  my_buffer().spans.push_back({id, parent, name, start_ns, end_ns});
}

void Trace::prepare_thread() {
  my_buffer();
  t_open.reserve(16);
}

std::vector<Span> Trace::all() {
  std::lock_guard lk(g_buffers_mu);
  std::vector<Span> out;
  for (const auto& b : g_buffers) out.insert(out.end(), b->spans.begin(), b->spans.end());
  return out;
}

Samples Trace::durations(const std::vector<Span>& spans, const char* name) {
  Samples s;
  const std::string want(name);
  for (const Span& sp : spans) {
    if (want == sp.name) s.add(sp.end_ns - sp.start_ns);
  }
  return s;
}

void Trace::write(const std::string& path) {
  const std::vector<Span> spans = all();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace file " + path);
  for (const Span& sp : spans) {
    std::fprintf(f,
                 "{\"id\":%" PRIu64 ",\"parent\":%" PRIu64 ",\"name\":\"%s\",\"start_ns\":%" PRIu64
                 ",\"end_ns\":%" PRIu64 "}\n",
                 sp.id, sp.parent, sp.name, sp.start_ns, sp.end_ns);
  }
  std::fclose(f);

  // Self time: a span's duration minus the time its children cover.
  // Children of one span never overlap (each parent waits for them in
  // turn), so the covered time is the sum of their durations.
  std::unordered_map<uint64_t, uint64_t> child_ns;
  for (const Span& sp : spans) {
    if (sp.parent != 0) child_ns[sp.parent] += sp.end_ns - sp.start_ns;
  }
  struct Row {
    uint64_t count = 0, total_ns = 0, self_ns = 0;
  };
  std::map<std::string, Row> rows;
  for (const Span& sp : spans) {
    const uint64_t dur = sp.end_ns - sp.start_ns;
    const auto it = child_ns.find(sp.id);
    const uint64_t covered = it == child_ns.end() ? 0 : std::min(it->second, dur);
    Row& r = rows[sp.name];
    ++r.count;
    r.total_ns += dur;
    r.self_ns += dur - covered;
  }
  std::printf("trace: %zu spans -> %s\n", spans.size(), path.c_str());
  std::printf("%-26s %10s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, r] : rows) {
    std::printf("%-26s %10" PRIu64 " %12.3f %12.3f\n", name.c_str(), r.count,
                static_cast<double>(r.total_ns) / 1e6, static_cast<double>(r.self_ns) / 1e6);
  }
}

ScopedSpan::ScopedSpan(const char* name) : name_(name) {
  if (name == nullptr || !Trace::on()) return;
  id_ = Trace::new_id();
  parent_ = t_open.empty() ? 0 : t_open.back();
  t_open.push_back(id_);
  start_ = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  const uint64_t end = now_ns();
  t_open.pop_back();
  Trace::add(id_, parent_, name_, start_, end);
}

// ---- counters and process facts ------------------------------------------------

Counters Counters::read(lots::Runtime& rt) {
  lots::NodeStats agg;
  rt.aggregate_stats(agg);
  Counters c;
  c.msgs_sent = agg.msgs_sent.load();
  c.bytes_sent = agg.bytes_sent.load();
  c.diff_payload_bytes = agg.diff_payload_bytes.load();
  c.object_fetches = agg.object_fetches.load();
  c.invalidations = agg.invalidations.load();
  c.home_commit_notices = agg.home_commit_notices.load();
  c.lock_acquires = agg.lock_acquires.load();
  c.access_checks = agg.access_checks.load();
  c.alb_hits = agg.alb_hits.load();
  c.swap_ins = agg.swap_ins.load();
  c.swap_outs = agg.swap_outs.load();
  c.swap_bytes_in = agg.swap_bytes_in.load();
  c.swap_bytes_out = agg.swap_bytes_out.load();
  c.evictions = agg.evictions.load();
  c.inflight_waits = agg.inflight_waits.load();
  c.evict_races = agg.evict_races.load();
  c.fetch_stall_us = agg.fetch_stall_us.load();
  // "cpu  user nice system idle iowait irq softirq steal ..."
  if (std::FILE* f = std::fopen("/proc/stat", "r")) {
    uint64_t v[8] = {};
    if (std::fscanf(f, "cpu %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64
                       " %" SCNu64 " %" SCNu64,
                    &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      c.cpu_steal = v[7];
      for (const uint64_t x : v) c.cpu_total += x;
    }
    std::fclose(f);
  }
  return c;
}

Counters Counters::minus(const Counters& b) const {
  Counters d;
  d.msgs_sent = msgs_sent - b.msgs_sent;
  d.bytes_sent = bytes_sent - b.bytes_sent;
  d.diff_payload_bytes = diff_payload_bytes - b.diff_payload_bytes;
  d.object_fetches = object_fetches - b.object_fetches;
  d.invalidations = invalidations - b.invalidations;
  d.home_commit_notices = home_commit_notices - b.home_commit_notices;
  d.lock_acquires = lock_acquires - b.lock_acquires;
  d.access_checks = access_checks - b.access_checks;
  d.alb_hits = alb_hits - b.alb_hits;
  d.swap_ins = swap_ins - b.swap_ins;
  d.swap_outs = swap_outs - b.swap_outs;
  d.swap_bytes_in = swap_bytes_in - b.swap_bytes_in;
  d.swap_bytes_out = swap_bytes_out - b.swap_bytes_out;
  d.evictions = evictions - b.evictions;
  d.inflight_waits = inflight_waits - b.inflight_waits;
  d.evict_races = evict_races - b.evict_races;
  d.fetch_stall_us = fetch_stall_us - b.fetch_stall_us;
  d.cpu_steal = cpu_steal - b.cpu_steal;
  d.cpu_total = cpu_total - b.cpu_total;
  return d;
}

size_t process_threads() {
  size_t n = 0;
  for ([[maybe_unused]] const auto& e : std::filesystem::directory_iterator("/proc/self/task")) ++n;
  return n;
}

size_t cpu_count() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<size_t>(n) : 1;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

// ---- Report ----------------------------------------------------------------------

void Report::fail(const std::string& why) {
  if (failures.size() < 16) failures.push_back(why);
}

void Report::require(bool ok, const std::string& what) {
  if (!ok) fail("shape assertion failed: " + what);
}

void Report::latency(const std::string& prefix, const std::vector<const Samples*>& streams) {
  Samples all;
  for (const Samples* s : streams) all.merge(*s);
  sample_counts.emplace_back(prefix, all.count());
  e2e((prefix + "_p50_us").c_str(), all.p50_us(), "us");
  e2e((prefix + "_p99_us").c_str(), all.p99_us(), "us");
  std::printf("%s: %zu samples, p50 %.1f us, p99 %.1f us\n", prefix.c_str(), all.count(),
              all.p50_us(), all.p99_us());
}

namespace {

std::string json_escaped(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", std::isfinite(ms[i].value) ? ms[i].value : 0.0);
    out += (i ? ",\"" : "\"") + ms[i].name + "\":{\"value\":" + num + ",\"unit\":\"" +
           ms[i].unit + "\"}";
  }
  return out + "}";
}

}  // namespace

void Report::print_json() const {
  std::string samples = "{";
  for (size_t i = 0; i < sample_counts.size(); ++i) {
    samples += (i ? ",\"" : "\"") + sample_counts[i].first +
               "\":" + std::to_string(sample_counts[i].second);
  }
  samples += "}";
  std::string fails = "[";
  for (size_t i = 0; i < failures.size(); ++i) {
    fails += (i ? ",\"" : "\"") + json_escaped(failures[i]) + "\"";
  }
  fails += "]";
  const bool correct = failed == 0 && failures.empty();
  std::printf("{\"correct\":%s,\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
              ",\"metrics\":%s,\"layers\":%s,\"samples\":%s,\"failures\":%s}\n",
              correct ? "true" : "false", attempted, failed, metrics_json(end_to_end).c_str(),
              metrics_json(layers).c_str(), samples.c_str(), fails.c_str());
  std::fflush(stdout);
}

// ---- per-layer metrics -------------------------------------------------------------

void add_layer_metrics(Report& r, const LayerInputs& in, const std::vector<Span>& spans) {
  const Counters& d = in.delta;
  auto per = [](double x, double base) { return base > 0 ? x / base : 0.0; };
  auto p50 = [&](const char* name) { return Trace::durations(spans, name).p50_us(); };
  // A per-layer p99 is reported only where the trace holds enough spans
  // to leave ten beyond it; otherwise 0 (the workload does not use it).
  auto p99 = [&](const char* name) {
    const Samples s = Trace::durations(spans, name);
    return s.count() < 1000 ? 0.0 : s.p99_us();
  };
  auto median_ms = [&](const char* name) { return p50(name) / 1e3; };

  r.layer("workqueue.wait_p50_us", p50("workqueue.wait"), "us");
  r.layer("workqueue.wait_p99_us", p99("workqueue.wait"), "us");
  r.layer("workqueue.wake_p50_us", p50("workqueue.wake"), "us");
  r.layer("kv.get_p50_us", p50("kv.get"), "us");
  r.layer("kv.put_p50_us", p50("kv.put"), "us");
  r.layer("kv.scan_p50_us", p50("kv.scan"), "us");
  r.layer("kv.open_ms", median_ms("kv.open"), "ms");
  r.layer("kv.preload_ms", median_ms("kv.preload"), "ms");
  // The share of a get's median latency that the three blocking steps'
  // medians account for (queue wait + verb + wake-up).
  const double get_op = p50("client.get");
  r.layer("kv.read_accounted_pct",
          per(100.0 * (p50("workqueue.wait") + p50("kv.get") + p50("workqueue.wake")), get_op),
          "%");

  r.layer("locks.acquires_per_op", per(d.lock_acquires, in.ops), "count");
  r.layer("locks.home_notices_per_op", per(d.home_commit_notices, in.ops), "count");

  r.layer("coherence.diff_bytes_per_op", per(d.diff_payload_bytes, in.ops), "B");
  r.layer("coherence.diff_bytes_per_iter", per(d.diff_payload_bytes, in.iters), "B");
  r.layer("coherence.invalidations_per_iter", per(d.invalidations, in.iters), "count");

  const Samples barrier = Trace::durations(spans, "lots.barrier");
  r.layer("barrier.wait_p50_us", barrier.p50_us(), "us");
  r.layer("barrier.wait_p99_us", p99("lots.barrier"), "us");
  r.layer("barrier.share", per(static_cast<double>(barrier.sum_ns()), in.timed_ns), "ratio");

  r.layer("core.ns_per_access", per(in.compute_ns, d.access_checks), "ns");
  r.layer("core.alb_hit_ratio", per(d.alb_hits, d.access_checks), "ratio");
  r.layer("core.first_touch_write_p50_us", p50("core.first_touch_write"), "us");
  r.layer("core.first_touch_read_p50_us", p50("core.first_touch_read"), "us");

  r.layer("fetch.fetches_per_op", per(d.object_fetches, in.ops), "count");
  r.layer("fetch.stall_us_per_op", per(d.fetch_stall_us, in.ops), "us");

  r.layer("mem.evictions_per_row", per(d.evictions, in.rows), "count");
  r.layer("mem.inflight_waits", static_cast<double>(d.inflight_waits), "count");
  r.layer("mem.evict_races", static_cast<double>(d.evict_races), "count");
  r.layer("mem.alloc_p50_us", p50("mem.alloc"), "us");

  r.layer("storage.swap_out_mb", static_cast<double>(d.swap_bytes_out) / (1 << 20), "MB");
  r.layer("storage.swap_in_mb", static_cast<double>(d.swap_bytes_in) / (1 << 20), "MB");
  r.layer("storage.swap_ins_per_row", per(d.swap_ins, in.rows), "count");

  r.layer("net.msgs_per_op", per(d.msgs_sent, in.ops), "count");
  r.layer("net.kb_per_op", per(d.bytes_sent / 1024.0, in.ops), "KB");

  r.layer("runtime.construct_ms", median_ms("runtime.construct"), "ms");
  r.layer("sor.seq_s", in.seq_s, "s");
  // Not a layer of the program, so printed rather than reported: how much
  // CPU the host took from this VM during the timed phase, so a slow run
  // can be told from a slow change.
  std::printf("host steal over the timed phase: %.1f%%\n",
              per(100.0 * static_cast<double>(d.cpu_steal), d.cpu_total));
}

}  // namespace perfbench
