#include "core/diff.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

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

TEST(Diff, MergeKeepsLastValuePerWord) {
  // Paper §3.5: a migratory object updated in many intervals must not
  // re-send superseded values.
  DiffRecord a{1, 10, {0, 1}, {100, 200}};
  DiffRecord b{1, 11, {1, 2}, {201, 300}};
  DiffRecord c{1, 12, {0}, {102}};
  std::vector<DiffRecord> recs{a, b, c};
  uint64_t redundant = 0;
  DiffRecord merged = merge_records(recs, /*since=*/0, &redundant);
  EXPECT_EQ(merged.epoch, 12u);
  EXPECT_EQ(merged.word_idx, (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(merged.word_val, (std::vector<uint32_t>{102, 201, 300}));
  // 5 entries total across records, 3 unique words -> 2 redundant.
  EXPECT_EQ(redundant, 2u);
}

TEST(Diff, MergeFiltersBySinceEpoch) {
  DiffRecord a{1, 10, {0}, {1}};
  DiffRecord b{1, 20, {1}, {2}};
  std::vector<DiffRecord> recs{a, b};
  DiffRecord merged = merge_records(recs, /*since=*/10);
  EXPECT_EQ(merged.word_idx, (std::vector<uint32_t>{1}));
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

TEST(Diff, PropertyMergeEqualsSequentialApplication) {
  // Applying the merged diff must give the same final bytes as applying
  // every record in epoch order.
  lots::Rng rng(31337);
  for (int iter = 0; iter < 50; ++iter) {
    const size_t words = 1 + rng.below(64);
    std::vector<DiffRecord> recs;
    for (uint32_t e = 1; e <= 1 + rng.below(8); ++e) {
      DiffRecord rec{1, e * 2, {}, {}};
      for (size_t wi = 0; wi < words; ++wi) {
        if (rng.unit() < 0.3) {
          rec.word_idx.push_back(static_cast<uint32_t>(wi));
          rec.word_val.push_back(rng.next_u32());
        }
      }
      if (!rec.word_idx.empty()) recs.push_back(std::move(rec));
    }
    std::vector<uint8_t> seq(words * 4, 0), mrg(words * 4, 0);
    std::vector<uint32_t> ts_seq(words, 0), ts_mrg(words, 0);
    for (const auto& rec : recs) apply_record(rec, seq.data(), ts_seq.data());
    DiffRecord merged = merge_records(recs, 0);
    apply_record(merged, mrg.data(), ts_mrg.data());
    ASSERT_EQ(seq, mrg) << "iter " << iter;
  }
}

}  // namespace
}  // namespace lots::core
