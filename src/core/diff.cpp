#include "core/diff.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <optional>

namespace lots::core {
namespace {

uint32_t load_word(const uint8_t* p, size_t word) {
  uint32_t v;
  std::memcpy(&v, p + word * 4, 4);
  return v;
}

void store_word(uint8_t* p, size_t word, uint32_t v) { std::memcpy(p + word * 4, &v, 4); }

/// Bit j set when word j of the first `n` (at most 64) words of `d` and
/// `t` differ. A clean group, the common one (every accessed object is
/// twinned, read-only ones too), costs one memcmp.
uint64_t changed_mask(const uint8_t* d, const uint8_t* t, size_t n) {
  if (std::memcmp(d, t, n * 4) == 0) return 0;
  uint64_t mask = 0;
  for (size_t j = 0; j < n; ++j) {
    if (load_word(d, j) != load_word(t, j)) mask |= uint64_t{1} << j;
  }
  return mask;
}

}  // namespace

size_t mark_twin_diff(std::span<const uint8_t> data, std::span<const uint8_t> twin,
                      uint64_t* bits, uint32_t* word_ts, uint32_t epoch, DiffRecord* rec) {
  LOTS_CHECK_EQ(data.size(), twin.size(), "twin/data size mismatch");
  LOTS_CHECK_EQ(data.size() % 4, 0u, "twin diff needs word-aligned images");
  const size_t words = data.size() / 4;
  size_t changed = 0;
  for (size_t g = 0; g < words; g += 64) {
    const uint8_t* d = data.data() + g * 4;
    const uint64_t mask = changed_mask(d, twin.data() + g * 4, std::min<size_t>(64, words - g));
    if (mask == 0) continue;
    bits[g / 64] |= mask;
    if (mask == ~uint64_t{0}) {  // a fully rewritten group: one fill
      std::fill_n(word_ts + g, 64, epoch);
      if (rec) {
        for (size_t j = 0; j < 64; ++j) rec->word_idx.push_back(static_cast<uint32_t>(g + j));
        const size_t at = rec->word_val.size();
        rec->word_val.resize(at + 64);
        std::memcpy(rec->word_val.data() + at, d, 64 * 4);
      }
      changed += 64;
      continue;
    }
    for (uint64_t x = mask; x != 0; x &= x - 1) {
      const auto j = static_cast<size_t>(std::countr_zero(x));
      word_ts[g + j] = epoch;
      if (rec) {
        rec->word_idx.push_back(static_cast<uint32_t>(g + j));
        rec->word_val.push_back(load_word(d, j));
      }
    }
    changed += static_cast<size_t>(std::popcount(mask));
  }
  return changed;
}

size_t apply_record(const DiffRecord& rec, uint8_t* data, uint32_t* word_ts) {
  size_t applied = 0;
  for (size_t i = 0; i < rec.word_idx.size(); ++i) {
    const uint32_t wi = rec.word_idx[i];
    const uint32_t wts = rec.ts_of(i);
    if (wts > word_ts[wi]) {
      store_word(data, wi, rec.word_val[i]);
      word_ts[wi] = wts;
      ++applied;
    }
  }
  return applied;
}

namespace {

/// Merges `rec` into `into`, both ascending, keeping only the words
/// stamped after `floor`: a word in both keeps the newer stamp. Returns
/// the word entries dropped.
size_t merge_words(DiffRecord& into, const DiffRecord& rec, uint32_t floor) {
  DiffRecord out;
  out.object = into.object;
  out.epoch = std::max(into.epoch, rec.epoch);
  const size_t in = into.words() + rec.words();
  out.word_idx.reserve(in);
  out.word_val.reserve(in);
  out.word_ts.reserve(in);
  const auto take = [&](const DiffRecord& from, size_t k) {
    if (from.ts_of(k) <= floor) return;
    out.word_idx.push_back(from.word_idx[k]);
    out.word_val.push_back(from.word_val[k]);
    out.word_ts.push_back(from.ts_of(k));
  };
  for (size_t i = 0, j = 0; i < into.words() || j < rec.words();) {
    const uint32_t a = i < into.words() ? into.word_idx[i] : UINT32_MAX;
    const uint32_t b = j < rec.words() ? rec.word_idx[j] : UINT32_MAX;
    if (a < b) {
      take(into, i++);
    } else if (b < a) {
      take(rec, j++);
    } else {
      const bool newer = rec.ts_of(j) >= into.ts_of(i);  // a tie goes to `rec`
      take(newer ? rec : into, newer ? j : i);
      ++i;
      ++j;
    }
  }
  const auto at_epoch = [&](uint32_t t) { return t == out.epoch; };
  if (std::all_of(out.word_ts.begin(), out.word_ts.end(), at_epoch)) out.word_ts.clear();
  const size_t dropped = in - out.words();
  into = std::move(out);
  return dropped;
}

}  // namespace

size_t fold_record(std::vector<DiffRecord>& chain, DiffRecord&& rec) {
  static const DiffRecord kNoWords;
  const ObjectId id = rec.object;
  const bool notice = rec.home_hint >= 0;
  auto it = std::lower_bound(chain.begin(), chain.end(), id,
                             [](const DiffRecord& e, ObjectId v) { return e.object < v; });
  const bool has_notice = it != chain.end() && it->object == id && it->home_hint >= 0;
  if (notice && has_notice && rec.epoch <= it->epoch) return 0;  // the newer notice stays
  if (notice && has_notice) *it = std::move(rec);
  if (notice && !has_notice) it = chain.insert(it, std::move(rec));
  uint32_t floor = 0;
  if (notice || has_notice) floor = (it++)->epoch;  // the data entry follows
  if (it == chain.end() || it->object != id) {  // no data entry yet
    if (notice) return 0;
    it = chain.insert(it, DiffRecord{});
    it->object = id;
  }
  const size_t dropped = merge_words(*it, notice ? kNoWords : rec, floor);
  if (dropped > 0 && it->word_idx.empty()) chain.erase(it);  // the home holds it all
  return dropped;
}

void diff_since(std::span<const uint8_t> data, const uint32_t* word_ts, uint32_t since_epoch,
                std::vector<uint32_t>& out_idx, std::vector<uint32_t>& out_val,
                std::vector<uint32_t>& out_ts) {
  const size_t words = (data.size() + 3) / 4;
  // Block-test the stamps first (a branch-free OR-reduce the compiler
  // vectorizes), descending to per-word pushes only inside blocks that
  // actually carry a newer stamp — the common fetch shape is "most of
  // the object is older than the requester's base".
  constexpr size_t kBlockWords = 16;
  size_t wi = 0;
  while (wi < words) {
    const size_t end = std::min(wi + kBlockWords, words);
    uint32_t any = 0;
    for (size_t j = wi; j < end; ++j) any |= static_cast<uint32_t>(word_ts[j] > since_epoch);
    if (!any) {
      wi = end;
      continue;
    }
    for (; wi < end; ++wi) {
      if (word_ts[wi] > since_epoch) {
        out_idx.push_back(static_cast<uint32_t>(wi));
        out_val.push_back(load_word(data.data(), wi));
        out_ts.push_back(word_ts[wi]);
      }
    }
  }
}

namespace {
// Body wire forms (the form byte doubles as the format version). Form 1,
// the retired dense form, is rejected like any unknown byte.
constexpr uint8_t kFlat = 0;         ///< count, idx[], val[]; the record epoch stamps all
constexpr uint8_t kFlatStamped = 2;  ///< count, idx[], val[], ts[]
constexpr uint8_t kRuns = 3;         ///< run headers + packed values

// Per-run stamp modes for the kRuns form.
constexpr uint8_t kRunEpochTs = 0;    ///< record-level epoch covers the run
constexpr uint8_t kRunSharedTs = 1;   ///< one u32 stamp covers the run
constexpr uint8_t kRunPerWordTs = 2;  ///< count stamps follow the values

/// One contiguous ascending index run [idx[begin], idx[begin]+count).
struct RunSpan {
  size_t begin = 0;
  size_t count = 0;
  bool uniform_ts = true;  ///< every word of the run carries one stamp
};

/// Splits `idx` into maximal consecutive runs. Returns false when the
/// indices are not strictly ascending (run encoding needs order; the
/// callers all produce ascending diffs, but a fuzzer may not).
bool scan_runs(std::span<const uint32_t> idx, std::span<const uint32_t> ts,
               std::vector<RunSpan>& runs) {
  for (size_t i = 0; i < idx.size();) {
    RunSpan run{i, 1, true};
    while (run.begin + run.count < idx.size()) {
      const size_t j = run.begin + run.count;
      if (idx[j] <= idx[j - 1]) return false;  // unordered input
      if (idx[j] != idx[j - 1] + 1) break;
      if (!ts.empty() && ts[j] != ts[run.begin]) run.uniform_ts = false;
      ++run.count;
    }
    runs.push_back(run);
    i = run.begin + run.count;
  }
  // Ordering BETWEEN runs needs no second pass: the extension loop
  // tested idx[j] <= idx[j-1] on every adjacent pair, including the
  // pair straddling each run boundary, before breaking the run.
  return true;
}

/// Encoded size of one run: start + count + mode + values [+ stamps].
size_t run_wire_bytes(const RunSpan& run, bool stamped) {
  size_t n = 4 + 4 + 1 + run.count * 4;
  if (stamped) n += run.uniform_ts ? 4 : run.count * 4;
  return n;
}

/// Emits the smaller of the flat and runs bodies. `stamped` bodies carry
/// per-word stamps from `ts`; unstamped ones leave every word to the
/// record epoch. Returns the bytes saved versus the flat body.
size_t encode_body(net::Writer& w, std::span<const uint32_t> idx, std::span<const uint32_t> val,
                   std::span<const uint32_t> ts, bool stamped) {
  const size_t n = idx.size();
  const size_t flat = 1 + 4 + n * (stamped ? 12 : 8);
  std::vector<RunSpan> runs;
  if (n > 0 && scan_runs(idx, stamped ? ts : std::span<const uint32_t>{}, runs)) {
    size_t rle = 1 + 4;
    for (const RunSpan& run : runs) rle += run_wire_bytes(run, stamped);
    if (rle < flat) {
      w.u8(kRuns);
      w.u32(static_cast<uint32_t>(runs.size()));
      for (const RunSpan& run : runs) {
        w.u32(idx[run.begin]);
        w.u32(static_cast<uint32_t>(run.count));
        const bool per_word = stamped && !run.uniform_ts;
        if (!stamped) {
          w.u8(kRunEpochTs);
        } else if (per_word) {
          w.u8(kRunPerWordTs);
        } else {
          w.u8(kRunSharedTs);
          w.u32(ts[run.begin]);
        }
        w.raw(val.data() + run.begin, run.count * 4);
        if (per_word) w.raw(ts.data() + run.begin, run.count * 4);
      }
      return flat - rle;
    }
  }
  w.u8(stamped ? kFlatStamped : kFlat);
  w.u32(static_cast<uint32_t>(n));
  w.raw(idx.data(), n * 4);
  w.raw(val.data(), n * 4);
  if (stamped) w.raw(ts.data(), n * 4);
  return 0;
}

/// Decodes one body into (idx, val, ts). With a record epoch, `ts` stays
/// empty when that epoch stamps every word, and otherwise back-fills it
/// for epoch-stamped runs; without one (word diffs), every word must
/// carry its own stamp.
void decode_body(net::Reader& r, std::optional<uint32_t> epoch, std::vector<uint32_t>& idx,
                 std::vector<uint32_t>& val, std::vector<uint32_t>& ts) {
  const uint8_t form = r.u8();
  if (form == kFlat || form == kFlatStamped) {
    if (form == kFlat && !epoch) throw SystemError("word diff: flat body without stamps");
    const uint32_t n = r.u32();
    idx.resize(n);
    val.resize(n);
    if (n) {
      r.raw(idx.data(), n * 4);
      r.raw(val.data(), n * 4);
    }
    if (form == kFlatStamped) {
      ts.resize(n);
      if (n) r.raw(ts.data(), n * 4);
    }
    return;
  }
  if (form != kRuns) throw SystemError("diff body: unknown wire form " + std::to_string(form));
  const uint32_t nruns = r.u32();
  bool any_ts = !epoch;  // word diffs materialize stamps from the start
  for (uint32_t k = 0; k < nruns; ++k) {
    const uint32_t start = r.u32();
    const uint32_t count = r.u32();
    const uint8_t mode = r.u8();
    if (mode > kRunPerWordTs || (mode == kRunEpochTs && !epoch)) {
      throw SystemError("diff body: bad run stamp mode " + std::to_string(mode));
    }
    uint32_t shared_ts = 0;
    if (mode == kRunSharedTs) shared_ts = r.u32();
    const size_t base = idx.size();
    idx.resize(base + count);
    val.resize(base + count);
    for (uint32_t i = 0; i < count; ++i) idx[base + i] = start + i;
    if (count) r.raw(val.data() + base, count * 4);
    if (mode != kRunEpochTs && !any_ts) {
      // First stamped run: back-fill the record epoch for prior runs.
      any_ts = true;
      ts.assign(base, *epoch);
    }
    if (!any_ts) continue;
    ts.resize(base + count, epoch.value_or(0));
    if (mode == kRunSharedTs) {
      for (uint32_t i = 0; i < count; ++i) ts[base + i] = shared_ts;
    } else if (mode == kRunPerWordTs && count) {
      r.raw(ts.data() + base, count * 4);
    }
  }
}

}  // namespace

size_t encode_record(net::Writer& w, const DiffRecord& rec) {
  w.u32(rec.object);
  w.u32(rec.epoch);
  return encode_body(w, rec.word_idx, rec.word_val, rec.word_ts, !rec.word_ts.empty());
}

DiffRecord decode_record(net::Reader& r) {
  DiffRecord rec;
  rec.object = r.u32();
  rec.epoch = r.u32();
  decode_body(r, rec.epoch, rec.word_idx, rec.word_val, rec.word_ts);
  return rec;
}

size_t encode_word_diff(net::Writer& w, std::span<const uint32_t> idx,
                        std::span<const uint32_t> val, std::span<const uint32_t> ts) {
  LOTS_CHECK(idx.size() == val.size() && idx.size() == ts.size(), "word diff arity mismatch");
  return encode_body(w, idx, val, ts, /*stamped=*/true);
}

void decode_word_diff(net::Reader& r, std::vector<uint32_t>& idx, std::vector<uint32_t>& val,
                      std::vector<uint32_t>& ts) {
  idx.clear();
  val.clear();
  ts.clear();
  decode_body(r, std::nullopt, idx, val, ts);
}

size_t apply_word_diff(std::span<const uint32_t> idx, std::span<const uint32_t> val,
                       std::span<const uint32_t> ts, uint8_t* data, uint32_t* word_ts) {
  size_t applied = 0;
  for (size_t i = 0; i < idx.size(); ++i) {
    if (ts[i] > word_ts[idx[i]]) {
      store_word(data, idx[i], val[i]);
      word_ts[idx[i]] = ts[i];
      ++applied;
    }
  }
  return applied;
}

}  // namespace lots::core
