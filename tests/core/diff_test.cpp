#include "core/diff.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>

#include "common/rng.hpp"

namespace lots::core {
namespace {

std::vector<uint8_t> words_to_bytes(const std::vector<uint32_t>& w) {
  std::vector<uint8_t> out(w.size() * 4);
  std::memcpy(out.data(), w.data(), out.size());
  return out;
}

TEST(Diff, TwinDiffFindsChangedWords) {
  auto twin = words_to_bytes({1, 2, 3, 4, 5});
  auto data = words_to_bytes({1, 9, 3, 8, 5});
  uint64_t bits = 0;
  std::vector<uint32_t> ts{7, 7, 7, 7, 7};
  DiffRecord rec;
  EXPECT_EQ(mark_twin_diff(data, twin, &bits, ts.data(), 42, &rec), 2u);
  EXPECT_EQ(bits, 0b01010u);  // one bit per changed word
  EXPECT_EQ(ts, (std::vector<uint32_t>{7, 42, 7, 42, 7}));
  EXPECT_EQ(rec.word_idx, (std::vector<uint32_t>{1, 3}));
  EXPECT_EQ(rec.word_val, (std::vector<uint32_t>{9, 8}));
}

TEST(Diff, IdenticalDataYieldsEmptyRecord) {
  auto v = words_to_bytes({1, 2, 3});
  uint64_t bits = 0;
  std::vector<uint32_t> ts{1, 1, 1};
  DiffRecord rec;
  EXPECT_EQ(mark_twin_diff(v, v, &bits, ts.data(), 5, &rec), 0u);
  EXPECT_EQ(bits, 0u);
  EXPECT_EQ(ts, (std::vector<uint32_t>{1, 1, 1}));
  EXPECT_TRUE(rec.word_idx.empty());
}

TEST(Diff, ApplyRespectsNewerThanRule) {
  auto data = words_to_bytes({0, 0, 0});
  std::vector<uint32_t> ts{5, 5, 5};
  DiffRecord rec;
  rec.epoch = 5;  // same epoch: NOT newer, must be rejected
  rec.word_idx = {0, 1};
  rec.word_val = {7, 8};
  EXPECT_EQ(apply_record(rec, data.data(), ts.data()), 0u);
  rec.epoch = 6;
  EXPECT_EQ(apply_record(rec, data.data(), ts.data()), 2u);
  uint32_t w0;
  std::memcpy(&w0, data.data(), 4);
  EXPECT_EQ(w0, 7u);
  EXPECT_EQ(ts[0], 6u);
  EXPECT_EQ(ts[2], 5u);  // untouched word keeps its stamp
}

TEST(Diff, FoldKeepsLastValuePerWord) {
  // Paper §3.5: a migratory object updated in many intervals must not
  // re-send superseded values.
  DiffRecord a{1, 10, {0, 1}, {100, 200}, {}};
  DiffRecord b{1, 11, {1, 2}, {201, 300}, {}};
  DiffRecord c{1, 12, {0}, {102}, {}};
  std::vector<DiffRecord> chain;
  size_t redundant = 0;
  for (DiffRecord rec : {a, b, c}) redundant += fold_record(chain, std::move(rec));
  ASSERT_EQ(chain.size(), 1u);
  const DiffRecord& merged = chain[0];
  EXPECT_EQ(merged.epoch, 12u);
  EXPECT_EQ(merged.word_idx, (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(merged.word_val, (std::vector<uint32_t>{102, 201, 300}));
  EXPECT_EQ(merged.word_ts, (std::vector<uint32_t>{12, 11, 11}));
  // 5 entries total across records, 3 unique words -> 2 redundant.
  EXPECT_EQ(redundant, 2u);
  // A word stamped alike in both goes to the later record.
  EXPECT_EQ(fold_record(chain, {1, 12, {0}, {103}, {}}), 1u);
  EXPECT_EQ(chain[0].word_val[0], 103u);
}

TEST(Diff, FoldNoticeDropsTheWordsItCovers) {
  // A home-commit notice at epoch 11: the home holds every word stamped
  // at or before 11, so only word 1 (stamped 12) stays on the chain.
  std::vector<DiffRecord> chain;
  EXPECT_EQ(fold_record(chain, {1, 12, {0, 1}, {5, 6}, {10, 12}}), 0u);
  DiffRecord notice{1, 11, {}, {}, {}};
  notice.home_hint = 3;
  EXPECT_EQ(fold_record(chain, DiffRecord(notice)), 1u);
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[0].home_hint, 3);  // the notice comes first
  EXPECT_EQ(chain[1].word_idx, (std::vector<uint32_t>{1}));
  EXPECT_TRUE(chain[1].word_ts.empty());  // one stamp left: the epoch's
  // An older notice changes nothing; a newer one empties the entry.
  notice.epoch = 9;
  notice.home_hint = 2;
  EXPECT_EQ(fold_record(chain, DiffRecord(notice)), 0u);
  EXPECT_EQ(chain[0].home_hint, 3);
  notice.epoch = 12;
  EXPECT_EQ(fold_record(chain, DiffRecord(notice)), 1u);
  ASSERT_EQ(chain.size(), 1u);
  EXPECT_EQ(chain[0].home_hint, 2);
  // Later data follows the notice; another object sorts by id.
  fold_record(chain, {1, 13, {4}, {40}, {}});
  fold_record(chain, {0, 14, {}, {}, {}});  // a write-invalidate notice
  fold_record(chain, {0, 15, {}, {}, {}});
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0].object, 0u);
  EXPECT_EQ(chain[0].epoch, 15u);
  EXPECT_EQ(chain[1].home_hint, 2);
  EXPECT_EQ(chain[2].word_idx, (std::vector<uint32_t>{4}));
}

TEST(Diff, DiffSinceSelectsByTimestamp) {
  auto data = words_to_bytes({10, 20, 30, 40});
  std::vector<uint32_t> ts{1, 5, 3, 5};
  std::vector<uint32_t> idx, val, ots;
  diff_since(data, ts.data(), 3, idx, val, ots);
  EXPECT_EQ(idx, (std::vector<uint32_t>{1, 3}));
  EXPECT_EQ(val, (std::vector<uint32_t>{20, 40}));
  EXPECT_EQ(ots, (std::vector<uint32_t>{5, 5}));
}

TEST(Diff, RecordWireRoundTrip) {
  DiffRecord rec{99, 7, {3, 5, 9}, {30, 50, 90}};
  std::vector<uint8_t> buf;
  net::Writer w(buf);
  encode_record(w, rec);
  net::Reader r(buf);
  DiffRecord out = decode_record(r);
  EXPECT_EQ(out.object, rec.object);
  EXPECT_EQ(out.epoch, rec.epoch);
  EXPECT_EQ(out.word_idx, rec.word_idx);
  EXPECT_EQ(out.word_val, rec.word_val);
}

TEST(Diff, ContiguousRecordShipsAsRuns) {
  // One contiguous run: header 8 B, then min(flat 5 + 8 B/word, runs
  // 5 + one 9 B run header + 4 B/word) — the runs body wins.
  DiffRecord rec{5, 9, {10, 11, 12, 13, 14}, {1, 2, 3, 4, 5}};
  std::vector<uint8_t> buf;
  net::Writer w(buf);
  const size_t saved = encode_record(w, rec);
  const size_t flat = 5 + 5 * 8;
  const size_t runs = 5 + 9 + 5 * 4;
  EXPECT_EQ(buf.size(), 8 + std::min(flat, runs));
  EXPECT_EQ(saved, flat - runs);
  net::Reader r(buf);
  const DiffRecord d = decode_record(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(d.word_idx, rec.word_idx);
  EXPECT_EQ(d.word_val, rec.word_val);
  EXPECT_TRUE(d.word_ts.empty());  // the record epoch still stamps every word
  EXPECT_EQ(d.epoch, 9u);
}

TEST(Diff, GappyRecordStaysFlat) {
  // Two 2-word runs cost more as run headers than as flat pairs; the
  // encoder keeps flat (and never pads the gap with unchanged words,
  // which would clobber concurrent writers).
  DiffRecord rec{5, 9, {10, 11, 13, 14}, {1, 2, 4, 5}};
  std::vector<uint8_t> buf;
  net::Writer w(buf);
  EXPECT_EQ(encode_record(w, rec), 0u);
  const size_t flat = 5 + 4 * 8;
  const size_t runs = 5 + 2 * (9 + 2 * 4);
  EXPECT_EQ(buf.size(), 8 + std::min(flat, runs));
  net::Reader r(buf);
  const DiffRecord out = decode_record(r);
  EXPECT_EQ(out.word_idx, rec.word_idx);
  EXPECT_EQ(out.word_val, rec.word_val);
}

TEST(Diff, WordDiffWireRoundTrip) {
  std::vector<uint32_t> idx{1, 2}, val{10, 20}, ts{5, 6};
  std::vector<uint8_t> buf;
  net::Writer w(buf);
  encode_word_diff(w, idx, val, ts);
  net::Reader r(buf);
  std::vector<uint32_t> i2, v2, t2;
  decode_word_diff(r, i2, v2, t2);
  EXPECT_EQ(i2, idx);
  EXPECT_EQ(v2, val);
  EXPECT_EQ(t2, ts);
}

TEST(Diff, ApplyWordDiffPerWordStamps) {
  auto data = words_to_bytes({0, 0});
  std::vector<uint32_t> local_ts{4, 8};
  std::vector<uint32_t> idx{0, 1}, val{7, 9}, ts{5, 5};
  // word 0: incoming ts 5 > 4 -> applied; word 1: 5 < 8 -> rejected.
  EXPECT_EQ(apply_word_diff(idx, val, ts, data.data(), local_ts.data()), 1u);
  uint32_t w0, w1;
  std::memcpy(&w0, data.data(), 4);
  std::memcpy(&w1, data.data() + 4, 4);
  EXPECT_EQ(w0, 7u);
  EXPECT_EQ(w1, 0u);
}

// The fold's specification kept with maps: per object, the newest
// notice and the last value of every word stamped after it.
struct RefObject {
  std::optional<DiffRecord> notice;
  bool has_data = false;
  uint32_t epoch = 0;
  std::map<uint32_t, std::pair<uint32_t, uint32_t>> words;  // idx -> (val, ts)
};

void ref_fold(std::map<ObjectId, RefObject>& ref, const DiffRecord& rec) {
  RefObject& o = ref[rec.object];
  size_t dropped = 0;
  if (rec.home_hint >= 0) {
    if (o.notice && rec.epoch <= o.notice->epoch) return;
    o.notice = rec;
    dropped = std::erase_if(o.words, [&](const auto& w) { return w.second.second <= rec.epoch; });
  } else {
    o.epoch = o.has_data ? std::max(o.epoch, rec.epoch) : rec.epoch;
    o.has_data = true;
    for (size_t i = 0; i < rec.words(); ++i) {
      const uint32_t ts = rec.ts_of(i);
      if (o.notice && ts <= o.notice->epoch) {
        ++dropped;
        continue;
      }
      auto [it, fresh] = o.words.try_emplace(rec.word_idx[i], rec.word_val[i], ts);
      if (fresh) continue;
      ++dropped;
      if (ts >= it->second.second) it->second = {rec.word_val[i], ts};
    }
  }
  if (dropped > 0 && o.words.empty()) o.has_data = false;
}

std::vector<DiffRecord> ref_chain(const std::map<ObjectId, RefObject>& ref) {
  std::vector<DiffRecord> chain;
  for (const auto& [id, o] : ref) {
    if (o.notice) chain.push_back(*o.notice);
    if (!o.has_data) continue;
    DiffRecord rec{id, o.epoch, {}, {}, {}};
    bool uniform = true;
    for (const auto& [wi, vt] : o.words) {
      rec.word_idx.push_back(wi);
      rec.word_val.push_back(vt.first);
      rec.word_ts.push_back(vt.second);
      uniform = uniform && vt.second == o.epoch;
    }
    if (uniform) rec.word_ts.clear();
    chain.push_back(std::move(rec));
  }
  return chain;
}

/// A chain's grant bytes: a flags byte per record, then a notice's
/// fields or the encoded record (SyncEngine::send_grant_locked).
std::vector<uint8_t> grant_bytes(const std::vector<DiffRecord>& chain) {
  std::vector<uint8_t> buf;
  net::Writer w(buf);
  for (const DiffRecord& rec : chain) {
    w.u8(rec.home_hint >= 0 ? 1 : 0);
    if (rec.home_hint < 0) {
      encode_record(w, rec);
      continue;
    }
    w.u32(rec.object);
    w.u32(rec.epoch);
    w.i32(rec.home_hint);
  }
  return buf;
}

TEST(Diff, PropertyFoldMatchesSequentialApplyAndModel) {
  // Random chains mixing uniform and per-word stamped records,
  // home-commit notices (some stale) and write-invalidate notices, in
  // epoch order as a token carries them. A word's value is a function
  // of its stamp: one stamp names one write.
  lots::Rng rng(31337);
  auto value = [](uint32_t wi, uint32_t ts) { return wi * 2654435761u ^ ts * 40503u; };
  for (int iter = 0; iter < 300; ++iter) {
    const ObjectId nobj = 1 + rng.below(3);
    const size_t words = 1 + rng.below(48);
    const auto epochs = static_cast<uint32_t>(2 + rng.below(12));
    std::vector<DiffRecord> recs;
    for (uint32_t e = 1; e <= epochs; ++e) {
      DiffRecord rec{static_cast<ObjectId>(rng.below(nobj)), e, {}, {}, {}};
      const double kind = rng.unit();
      if (kind < 0.2) {
        rec.home_hint = static_cast<int32_t>(rng.below(4));
        if (rng.unit() < 0.3) rec.epoch = 1 + static_cast<uint32_t>(rng.below(e));
      } else if (kind < 0.8) {
        const bool per_word = kind >= 0.55;
        for (uint32_t wi = 0; wi < words; ++wi) {
          if (rng.unit() >= 0.3) continue;
          const uint32_t ts = per_word ? 1 + static_cast<uint32_t>(rng.below(e)) : e;
          rec.word_idx.push_back(wi);
          rec.word_val.push_back(value(wi, ts));
          if (per_word) rec.word_ts.push_back(ts);
        }
        if (rec.word_idx.empty()) continue;
        if (per_word) {  // the epoch is the newest stamp, as records carry it
          rec.word_ts.back() = e;
          rec.word_val.back() = value(rec.word_idx.back(), e);
        }
      }  // else: a write-invalidate notice, no words
      recs.push_back(std::move(rec));
    }
    std::vector<DiffRecord> chain;
    std::map<ObjectId, RefObject> ref;
    size_t in_words = 0, redundant = 0;
    for (const DiffRecord& rec : recs) {
      in_words += rec.words();
      ref_fold(ref, rec);
      redundant += fold_record(chain, DiffRecord(rec));
    }
    ASSERT_EQ(grant_bytes(chain), grant_bytes(ref_chain(ref))) << "iter " << iter;
    size_t out_words = 0;
    for (const DiffRecord& rec : chain) out_words += rec.words();
    EXPECT_EQ(redundant, in_words - out_words) << "iter " << iter;

    // An acquirer applying the chain ends where applying every record
    // does: a notice's home copy holds each word stamped up to it.
    for (ObjectId id = 0; id < nobj; ++id) {
      std::vector<uint8_t> seq(words * 4, 0), got(words * 4, 0);
      std::vector<uint32_t> ts_seq(words, 0), ts_got(words, 0);
      uint32_t home_cut = 0;
      for (const DiffRecord& rec : chain) {
        if (rec.object == id && rec.home_hint >= 0) home_cut = rec.epoch;
      }
      for (const DiffRecord& rec : recs) {
        if (rec.object != id || rec.home_hint >= 0) continue;
        apply_record(rec, seq.data(), ts_seq.data());
        DiffRecord held{id, rec.epoch, {}, {}, {}};
        for (size_t i = 0; i < rec.words(); ++i) {
          if (rec.ts_of(i) > home_cut) continue;
          held.word_idx.push_back(rec.word_idx[i]);
          held.word_val.push_back(rec.word_val[i]);
          held.word_ts.push_back(rec.ts_of(i));
        }
        apply_record(held, got.data(), ts_got.data());
      }
      for (const DiffRecord& rec : chain) {
        if (rec.object == id && rec.home_hint < 0) apply_record(rec, got.data(), ts_got.data());
      }
      ASSERT_EQ(seq, got) << "iter " << iter << " object " << id;
      ASSERT_EQ(ts_seq, ts_got) << "iter " << iter << " object " << id;
    }
  }
}

}  // namespace
}  // namespace lots::core
