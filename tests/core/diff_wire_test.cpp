// Round-trip and fuzz coverage for the diff wire codec (format v2):
// records and word diffs share one body encoder, which must emit
// exactly min(flat, runs) bytes, decode back to the same logical diff,
// and — applied — produce byte-identical memory, including adversarial
// run boundaries, empty diffs, single words and full objects.
#include "core/diff.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace lots::core {
namespace {

/// The body size the encoder must pick, derived independently of it:
/// flat = form + count + (8 or 12) B/word; runs = form + count + per
/// run (start, count, mode, 4 B/word values, plus one shared stamp or
/// 4 B/word stamps when stamped). Unordered indices cannot run-encode.
size_t expected_body_bytes(const std::vector<uint32_t>& idx, const std::vector<uint32_t>& ts,
                           bool stamped) {
  const size_t flat = 5 + idx.size() * (stamped ? 12 : 8);
  if (idx.empty()) return flat;
  size_t runs = 5;
  for (size_t i = 0; i < idx.size();) {
    size_t j = i + 1;
    bool uniform = true;
    while (j < idx.size() && idx[j] == idx[j - 1] + 1) {
      uniform = uniform && (!stamped || ts[j] == ts[i]);
      ++j;
    }
    if (j < idx.size() && idx[j] <= idx[j - 1]) return flat;
    const size_t count = j - i;
    runs += 9 + count * 4;
    if (stamped) runs += uniform ? 4 : count * 4;
    i = j;
  }
  return std::min(flat, runs);
}

void expect_word_diff_round_trip(const std::vector<uint32_t>& idx,
                                 const std::vector<uint32_t>& val,
                                 const std::vector<uint32_t>& ts, const char* label) {
  std::vector<uint8_t> buf;
  net::Writer w(buf);
  const size_t saved = encode_word_diff(w, idx, val, ts);
  EXPECT_EQ(buf.size(), expected_body_bytes(idx, ts, /*stamped=*/true)) << label;
  EXPECT_EQ(saved, 5 + idx.size() * 12 - buf.size()) << label;
  net::Reader r(buf);
  std::vector<uint32_t> i2, v2, t2;
  decode_word_diff(r, i2, v2, t2);
  EXPECT_TRUE(r.done()) << label << ": trailing bytes";
  EXPECT_EQ(i2, idx) << label;
  EXPECT_EQ(v2, val) << label;
  EXPECT_EQ(t2, ts) << label;
}

void expect_record_round_trip(const DiffRecord& rec, const char* label) {
  std::vector<uint8_t> buf;
  net::Writer w(buf);
  encode_record(w, rec);
  EXPECT_EQ(buf.size(), 8 + expected_body_bytes(rec.word_idx, rec.word_ts, !rec.word_ts.empty()))
      << label;
  net::Reader r(buf);
  const DiffRecord out = decode_record(r);
  EXPECT_TRUE(r.done()) << label << ": trailing bytes";
  EXPECT_EQ(out.object, rec.object) << label;
  EXPECT_EQ(out.epoch, rec.epoch) << label;
  EXPECT_EQ(out.word_idx, rec.word_idx) << label;
  EXPECT_EQ(out.word_val, rec.word_val) << label;
  // The stamp VECTOR may differ in representation (a decoded run
  // record materializes per-word stamps); the per-word effective
  // stamp must not.
  ASSERT_EQ(out.words(), rec.words()) << label;
  for (size_t i = 0; i < rec.words(); ++i) {
    EXPECT_EQ(out.ts_of(i), rec.ts_of(i)) << label << " word " << i;
  }
}

TEST(DiffWire, WordDiffRunsShrinkDenseShapes) {
  // One 64-word run with a shared stamp: 5 + 9 + 4 + 4*64 B vs 5 + 12*64 B.
  std::vector<uint32_t> idx(64), val(64), ts(64, 7);
  for (uint32_t i = 0; i < 64; ++i) {
    idx[i] = 100 + i;
    val[i] = i * 3;
  }
  std::vector<uint8_t> buf;
  net::Writer w(buf);
  const size_t saved = encode_word_diff(w, idx, val, ts);
  const size_t flat = 5 + 12 * 64;
  const size_t runs = 5 + 9 + 4 + 4 * 64;
  EXPECT_EQ(buf.size(), std::min(flat, runs));
  EXPECT_EQ(saved, flat - runs);
  expect_word_diff_round_trip(idx, val, ts, "dense shared-stamp");
}

TEST(DiffWire, WordDiffMixedStampsFallBackPerWordInsideRuns) {
  // A run whose stamps differ must carry per-word stamps, and a run with
  // one epoch must not.
  std::vector<uint32_t> idx{5, 6, 7, 8, 20, 21, 22, 23};
  std::vector<uint32_t> val{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<uint32_t> ts{9, 9, 9, 9, 3, 4, 3, 4};  // run 2 is mixed
  expect_word_diff_round_trip(idx, val, ts, "mixed stamps");
}

TEST(DiffWire, WordDiffAdversarialShapes) {
  expect_word_diff_round_trip({}, {}, {}, "empty");
  expect_word_diff_round_trip({0}, {42}, {1}, "single word at zero");
  expect_word_diff_round_trip({4097}, {42}, {9}, "single word high");
  // Alternating singletons: worst case for run encoding (must fall back).
  std::vector<uint32_t> idx, val, ts;
  for (uint32_t i = 0; i < 32; ++i) {
    idx.push_back(i * 2);
    val.push_back(i);
    ts.push_back(5 + (i % 3));
  }
  expect_word_diff_round_trip(idx, val, ts, "alternating singletons");
  // Runs touching at a boundary minus one (1,2,3 then 5,6,7).
  expect_word_diff_round_trip({1, 2, 3, 5, 6, 7}, {1, 2, 3, 4, 5, 6}, {2, 2, 2, 2, 2, 2},
                              "adjacent-minus-one runs");
  // Unsorted indices: the encoder must notice and fall back to flat.
  std::vector<uint8_t> buf;
  net::Writer w(buf);
  const size_t saved =
      encode_word_diff(w, std::vector<uint32_t>{9, 3, 4}, std::vector<uint32_t>{1, 2, 3},
                       std::vector<uint32_t>{1, 1, 1});
  EXPECT_EQ(saved, 0u);
  EXPECT_EQ(buf.size(), 5u + 3 * 12);
  net::Reader r(buf);
  std::vector<uint32_t> i2, v2, t2;
  decode_word_diff(r, i2, v2, t2);
  EXPECT_EQ(i2, (std::vector<uint32_t>{9, 3, 4}));
}

TEST(DiffWire, RecordRunsRoundTripAllForms) {
  // Uniform epoch, two runs.
  expect_record_round_trip(DiffRecord{7, 12, {10, 11, 12, 40, 41, 42}, {1, 2, 3, 4, 5, 6}},
                           "uniform two runs");
  // Per-word stamps, one uniform run + one mixed run.
  DiffRecord per_word{9, 30, {0, 1, 2, 3, 50, 51}, {9, 8, 7, 6, 5, 4}};
  per_word.word_ts = {30, 30, 30, 30, 12, 14};
  expect_record_round_trip(per_word, "per-word stamps");
  // Empty and single-word records.
  expect_record_round_trip(DiffRecord{1, 1, {}, {}}, "empty record");
  expect_record_round_trip(DiffRecord{1, 1, {3}, {4}}, "single word record");
  // Full-object contiguous record: one run, 4 B/word.
  DiffRecord full{3, 8, {}, {}};
  for (uint32_t i = 0; i < 256; ++i) {
    full.word_idx.push_back(i);
    full.word_val.push_back(i ^ 0xABCD);
  }
  expect_record_round_trip(full, "full object");
}

TEST(DiffWire, RecordRunsBeatFlatOnMultiRunShapes) {
  // Two 64-word runs with a gap: flat is 8 B/word, runs ~4 B/word.
  DiffRecord rec{5, 9, {}, {}};
  for (uint32_t i = 0; i < 64; ++i) {
    rec.word_idx.push_back(i);
    rec.word_val.push_back(i);
  }
  for (uint32_t i = 128; i < 192; ++i) {
    rec.word_idx.push_back(i);
    rec.word_val.push_back(i);
  }
  std::vector<uint8_t> buf;
  net::Writer w(buf);
  const size_t saved = encode_record(w, rec);
  const size_t flat = 5 + 128 * 8;
  const size_t runs = 5 + 2 * (9 + 64 * 4);
  EXPECT_EQ(buf.size(), 8 + std::min(flat, runs));
  EXPECT_EQ(saved, flat - runs);
  EXPECT_LT(buf.size(), (8 + flat) * 3 / 4);
}

TEST(DiffWire, RetiredDenseFormIsRejected) {
  // Form byte 1 (the old dense form: start, count, raw values) is no
  // longer a body form, for records and word diffs alike.
  std::vector<uint8_t> rec_buf;
  net::Writer rw(rec_buf);
  rw.u32(5);   // object
  rw.u32(9);   // epoch
  rw.u8(1);    // retired dense form
  rw.u32(10);  // start
  rw.u32(1);   // count
  rw.u32(42);  // value
  net::Reader rr(rec_buf);
  EXPECT_THROW(decode_record(rr), SystemError);

  std::vector<uint8_t> word_buf;
  net::Writer ww(word_buf);
  ww.u8(1);
  ww.u32(0);
  net::Reader wr(word_buf);
  std::vector<uint32_t> idx, val, ts;
  EXPECT_THROW(decode_word_diff(wr, idx, val, ts), SystemError);
}

TEST(DiffWire, WordDiffsMustCarryStamps) {
  // A record's unstamped flat body (form 0) names no per-word stamps, so
  // it cannot stand in for a word diff.
  std::vector<uint8_t> buf;
  net::Writer w(buf);
  w.u8(0);
  w.u32(1);
  w.u32(3);   // idx
  w.u32(42);  // val
  net::Reader r(buf);
  std::vector<uint32_t> idx, val, ts;
  EXPECT_THROW(decode_word_diff(r, idx, val, ts), SystemError);
}

TEST(DiffWire, FuzzEncodeDecodeApplyIdentical) {
  // Seeded sweep over random diffs: whatever the encoder emits, decoding
  // and applying must produce the same bytes and stamps as applying the
  // original, and the encoded size must be min(flat, runs).
  Rng rng(20260726);
  for (int iter = 0; iter < 300; ++iter) {
    const size_t words = 1 + rng.below(300);
    // Random subset of words, ascending, with clustered runs.
    std::vector<uint32_t> idx, val, ts;
    const double density = 0.05 + rng.unit() * 0.9;
    const bool uniform_ts = rng.below(3) == 0;
    const uint32_t base_epoch = 1 + static_cast<uint32_t>(rng.below(50));
    for (uint32_t wi = 0; wi < words; ++wi) {
      if (rng.unit() < density) {
        idx.push_back(wi);
        val.push_back(rng.next_u32());
        ts.push_back(uniform_ts ? base_epoch
                                : base_epoch + static_cast<uint32_t>(rng.below(4)));
      }
    }

    // --- word-diff codec: apply must match the un-encoded original ---
    std::vector<uint8_t> want_data(words * 4, 0);
    std::vector<uint32_t> want_ts(words, 0);
    // Pre-populate some words with newer stamps so the newer-than rule
    // is exercised through the codec too.
    for (size_t k = 0; k < words; k += 7) {
      want_ts[k] = base_epoch + 2;
      const uint32_t v = 0xD00D + static_cast<uint32_t>(k);
      std::memcpy(want_data.data() + k * 4, &v, 4);
    }
    std::vector<uint8_t> got_data = want_data;
    std::vector<uint32_t> got_ts = want_ts;
    apply_word_diff(idx, val, ts, want_data.data(), want_ts.data());
    {
      std::vector<uint8_t> buf;
      net::Writer w(buf);
      encode_word_diff(w, idx, val, ts);
      ASSERT_EQ(buf.size(), expected_body_bytes(idx, ts, /*stamped=*/true)) << "iter " << iter;
      net::Reader r(buf);
      std::vector<uint32_t> i2, v2, t2;
      decode_word_diff(r, i2, v2, t2);
      apply_word_diff(i2, v2, t2, got_data.data(), got_ts.data());
      ASSERT_EQ(got_data, want_data) << "iter " << iter;
      ASSERT_EQ(got_ts, want_ts) << "iter " << iter;
    }

    // --- record codec, with and without per-word stamps ---
    DiffRecord rec{static_cast<ObjectId>(1 + iter), base_epoch + 4, idx, val};
    if (!uniform_ts) rec.word_ts = ts;
    std::vector<uint8_t> buf;
    net::Writer w(buf);
    encode_record(w, rec);
    ASSERT_EQ(buf.size(), 8 + expected_body_bytes(idx, ts, !rec.word_ts.empty()))
        << "iter " << iter;
    net::Reader r(buf);
    const DiffRecord out = decode_record(r);
    std::vector<uint8_t> a(words * 4, 0), b(words * 4, 0);
    std::vector<uint32_t> ats(words, 0), bts(words, 0);
    apply_record(rec, a.data(), ats.data());
    apply_record(out, b.data(), bts.data());
    ASSERT_EQ(a, b) << "iter " << iter;
    ASSERT_EQ(ats, bts) << "iter " << iter;
  }
}

TEST(DiffWire, VectorizedTwinDiffMatchesScalarReference) {
  // mark_twin_diff works in 64-word groups: a clean group stops at its
  // memcmp, a changed one builds its mask, a fully rewritten group takes
  // the fill branch and a partial tail group is shorter. Its record,
  // bits and stamps must equal the definitional word-by-word scan for
  // every shape: sparse byte flips, fully rewritten groups, red-black
  // (alternating) words, everything changed, word counts that are not a
  // multiple of 64 and a 65,536-word (256 KB) object. Bits set before
  // the scan must survive it (the scan ORs into them), and a scan
  // without a record must leave the same bits and stamps.
  Rng rng(424242);
  size_t full_groups = 0, partial_groups = 0;
  enum Shape { kFlips, kWholeGroups, kRedBlack, kAll, kShapes };
  for (int iter = 0; iter < 240; ++iter) {
    const auto shape = static_cast<Shape>(iter % kShapes);
    size_t words = 1 + rng.below(300);
    if (iter % 40 == 0) words = 65536;
    if (iter % 40 == 1) words = 65536 - 27;
    if (iter % 40 == 2) words = 128;
    std::vector<uint8_t> twin(words * 4), data;
    for (auto& b : twin) b = static_cast<uint8_t>(rng.below(256));
    data = twin;
    auto change_word = [&](size_t wi) {
      data[wi * 4 + rng.below(4)] ^= static_cast<uint8_t>(1 + rng.below(255));
    };
    switch (shape) {
      case kFlips:
        for (size_t f = rng.below(words + 1); f > 0; --f) {
          data[rng.below(words * 4)] ^= static_cast<uint8_t>(1 + rng.below(255));
        }
        break;
      case kWholeGroups:
        for (size_t g = 0; g < words; g += 64) {
          if (rng.below(2) == 0) continue;
          for (size_t wi = g; wi < std::min(words, g + 64); ++wi) change_word(wi);
        }
        break;
      case kRedBlack: {
        const size_t color = rng.below(2);
        for (size_t wi = color; wi < words; wi += 2) change_word(wi);
        break;
      }
      default:
        for (size_t wi = 0; wi < words; ++wi) change_word(wi);
    }
    std::vector<uint64_t> preset((words + 63) / 64);
    if (iter % 3 == 0) {
      for (auto& b : preset) b = rng.next_u64() & rng.next_u64();
      if ((words % 64) != 0) preset.back() &= (uint64_t{1} << (words % 64)) - 1;
    }
    std::vector<uint32_t> want_idx, want_val;
    std::vector<uint64_t> changed_bits(preset.size());
    for (size_t wi = 0; wi < words; ++wi) {
      uint32_t dv, tv;
      std::memcpy(&dv, data.data() + wi * 4, 4);
      std::memcpy(&tv, twin.data() + wi * 4, 4);
      if (dv != tv) {
        want_idx.push_back(static_cast<uint32_t>(wi));
        want_val.push_back(dv);
        changed_bits[wi / 64] |= uint64_t{1} << (wi % 64);
      }
    }
    std::vector<uint64_t> want_bits = preset;
    for (size_t b = 0; b < want_bits.size(); ++b) {
      want_bits[b] |= changed_bits[b];
      if (changed_bits[b] != 0) ++(changed_bits[b] == ~uint64_t{0} ? full_groups : partial_groups);
    }
    for (const bool with_rec : {true, false}) {
      std::vector<uint64_t> bits = preset;
      std::vector<uint32_t> ts(words, 1);
      DiffRecord rec;
      const size_t changed = mark_twin_diff(data, twin, bits.data(), ts.data(), 5,
                                            with_rec ? &rec : nullptr);
      ASSERT_EQ(changed, want_idx.size()) << "iter " << iter << " words=" << words;
      if (with_rec) {
        ASSERT_EQ(rec.word_idx, want_idx) << "iter " << iter << " words=" << words;
        ASSERT_EQ(rec.word_val, want_val) << "iter " << iter;
      }
      ASSERT_EQ(bits, want_bits) << "iter " << iter << ": a preset bit was lost or a mark is wrong";
      size_t next = 0;
      for (size_t wi = 0; wi < words; ++wi) {
        const bool marked = next < want_idx.size() && want_idx[next] == wi;
        next += marked ? 1 : 0;
        ASSERT_EQ(ts[wi], marked ? 5u : 1u) << "iter " << iter << " word " << wi;
      }
    }
  }
  EXPECT_GT(full_groups, 100u) << "the fill branch went untested";
  EXPECT_GT(partial_groups, 100u);
}

TEST(DiffWire, DiffSinceBlockScanMatchesScalarReference) {
  Rng rng(777);
  for (int iter = 0; iter < 200; ++iter) {
    const size_t words = 1 + rng.below(200);
    std::vector<uint8_t> data(words * 4);
    std::vector<uint32_t> ts(words);
    for (auto& b : data) b = static_cast<uint8_t>(rng.below(256));
    for (auto& t : ts) t = static_cast<uint32_t>(rng.below(10));
    const uint32_t since = static_cast<uint32_t>(rng.below(10));
    std::vector<uint32_t> idx, val, ots;
    diff_since(data, ts.data(), since, idx, val, ots);
    std::vector<uint32_t> want_idx;
    for (size_t wi = 0; wi < words; ++wi) {
      if (ts[wi] > since) want_idx.push_back(static_cast<uint32_t>(wi));
    }
    ASSERT_EQ(idx, want_idx) << "iter " << iter;
    ASSERT_EQ(idx.size(), val.size());
    ASSERT_EQ(idx.size(), ots.size());
    for (size_t k = 0; k < idx.size(); ++k) {
      uint32_t dv;
      std::memcpy(&dv, data.data() + static_cast<size_t>(idx[k]) * 4, 4);
      ASSERT_EQ(val[k], dv);
      ASSERT_EQ(ots[k], ts[idx[k]]);
    }
  }
}

}  // namespace
}  // namespace lots::core
