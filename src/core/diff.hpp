// Word-granularity diff machinery (paper §3.3 twins, §3.5 diff
// accumulation fix).
//
// A twin (copy of the object taken at first access in an interval) is
// compared word-by-word against the live data at each synchronization
// point; changed words form a DiffRecord stamped with the flush epoch,
// and the control area's per-word timestamps are bumped to that epoch.
//
// Transmission has two modes (Config::diff_mode):
//  * kPerWordTimestamp — the paper's contribution: the sender merges all
//    records newer than the requester's epoch into one last-value-per-
//    word diff ("the actual diff is calculated on demand by comparing
//    the timestamp ... with that provided by the requester, hence
//    eliminating outdated data being sent").
//  * kAccumulatedRecords — the TreadMarks-style baseline: every record
//    newer than the requester's epoch is sent whole, so a word updated
//    in k intervals is transmitted k times (the *diff accumulation*
//    pathology, measured by bench/abl_diff_accum).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/object.hpp"
#include "net/message.hpp"

namespace lots::core {

/// The twin scan: compares `data` against `twin` and, for each changed
/// word i in ascending order, sets bit i of `bits` (one bit per word),
/// stamps word_ts[i] with `epoch` and, when `rec` is given, appends
/// (i, new value) to it. Returns how many words changed. Works one
/// 64-word group at a time: the group's changed mask (changed_mask,
/// diff.cpp) is ORed into `bits` whole, so bits already set stay set; a
/// clean group costs one memcmp, and a fully rewritten one stamps its 64
/// words with one fill. The output is identical to the word-by-word
/// scan.
size_t mark_twin_diff(std::span<const uint8_t> data, std::span<const uint8_t> twin,
                      uint64_t* bits, uint32_t* word_ts, uint32_t epoch,
                      DiffRecord* rec = nullptr);

/// Applies `rec` onto (data, word_ts): a word is written only when the
/// record's epoch is newer than the word's current stamp, so replayed or
/// out-of-date diffs are harmless. Returns the number of words applied.
size_t apply_record(const DiffRecord& rec, uint8_t* data, uint32_t* word_ts);

/// Folds one released record into a lock token's scope chain (paper
/// §3.5: an acquirer gets only the latest value of each field). The
/// chain holds one entry per object, ascending by object id, an
/// object's home-commit notice (DiffRecord::home_hint >= 0) just before
/// its data record: an acquirer's notice handling may clear the object's
/// pending queue, which must keep the data record the same grant parks
/// after it. Word indices ascend within a record.
///  * A data record merges into the object's data entry in one pass
///    over the two index lists: a word in both keeps the newer stamp,
///    and a tie goes to `rec`. The entry's epoch is the newer of the
///    two, and it carries per-word stamps only when they differ from it.
///  * A notice replaces an older notice of its object, and the data
///    entry keeps only the words stamped after the notice: the home copy
///    it advertises already holds the rest (epochs are Lamport-ordered
///    along the token chain). A fold that drops an entry's last words
///    erases the entry.
///  * A record without words (the write-invalidate mode's notice) folds
///    into its entry as a data record does, raising only the epoch.
/// Returns the word entries the fold dropped: superseded values the
/// accumulated mode would have re-sent (NodeStats::merge_redundant_words).
size_t fold_record(std::vector<DiffRecord>& chain, DiffRecord&& rec);

/// Merged diff straight from live data + control words: every word with
/// stamp > since_epoch, with per-word stamps preserved in `out_ts`.
/// This is the §3.5 on-demand diff a home computes for a fetch request.
void diff_since(std::span<const uint8_t> data, const uint32_t* word_ts, uint32_t since_epoch,
                std::vector<uint32_t>& out_idx, std::vector<uint32_t>& out_val,
                std::vector<uint32_t>& out_ts);

// --- wire encoding -------------------------------------------------------
//
// Records and word diffs share one body codec (format v2): after the
// form byte, a body is either FLAT (count, indices, values[, stamps]) or
// RUNS (contiguous index runs as start, count, one stamp mode and the
// packed values). Encoders emit whichever is smaller — runs only when
// strictly smaller — and report the bytes saved versus flat; decoders
// reject any other form byte with SystemError.

/// Encodes one record: object, epoch, then the body. A record without
/// per-word stamps lets its epoch stamp every word (flat 8 B/word);
/// with them, flat costs 12 B/word. Returns the bytes saved versus the
/// flat body (0 when the flat body was emitted).
size_t encode_record(net::Writer& w, const DiffRecord& rec);
DiffRecord decode_record(net::Reader& r);

/// Encodes a merged diff with per-word stamps (the §3.5 on-demand
/// fetch diff): the record body codec, always stamped. Returns the
/// bytes saved versus the flat body.
size_t encode_word_diff(net::Writer& w, std::span<const uint32_t> idx,
                        std::span<const uint32_t> val, std::span<const uint32_t> ts);
void decode_word_diff(net::Reader& r, std::vector<uint32_t>& idx, std::vector<uint32_t>& val,
                      std::vector<uint32_t>& ts);

/// Applies a per-word-stamped diff under the newer-than rule.
size_t apply_word_diff(std::span<const uint32_t> idx, std::span<const uint32_t> val,
                       std::span<const uint32_t> ts, uint8_t* data, uint32_t* word_ts);

}  // namespace lots::core
