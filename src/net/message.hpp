// Wire messages and the binary codec shared by every protocol in the
// repository (LOTS core coherence, JIAJIA baseline, transports).
//
// The paper (§3.6, §5) uses UDP sockets with a 64 KB datagram limit and a
// hand-rolled encoder/decoder; this module reproduces that layering:
// protocol code builds a Message with a typed payload via Writer, the
// transport fragments it if needed, and the receiver decodes via Reader.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace lots::net {

/// Every protocol message type in the system. One shared enum keeps the
/// service-thread dispatch a single switch and makes traces readable.
enum class MsgType : uint16_t {
  kInvalid = 0,

  // --- generic ---
  kShutdown,      ///< stop a node's service loop
  kPing,          ///< transport tests
  kReply,         ///< generic reply carrier (matched by req_seq): every
                  ///< ack, collective exit and lock grant; only the two
                  ///< data replies (kObjData, kPageData) keep a type

  // --- LOTS core coherence (paper §3.3-3.5) ---
  kObjFetch,      ///< request a clean copy of one object: (id, retained
                  ///< base epoch; 0 asks for a full copy)
  kObjData,       ///< reply, one section: whole object, per-word diff
                  ///< against the base, or home redirect (the requester
                  ///< never regresses a locally-newer word)
  kDiffBatch,     ///< coalesced diff delivery: ALL records a sync operation
                  ///< (release or barrier phase 2) owes one peer ride in a
                  ///< single message — O(peers), not O(objects), per sync
  kLockAcquire,   ///< acquirer -> static lock manager; the grant (token +
                  ///< scope update chain) is the kReply, sent by the
                  ///< token's holder
  kLockForward,   ///< manager -> token holder: grant the token to the
                  ///< acquirer (carries the acquire's seq to answer)
  kLockRelease,   ///< holder -> manager: token returned
  kBarrierEnter,  ///< node -> master: write summaries (object ids); the
                  ///< kReply carries the plan (new homes, new epoch)
  kBarrierDone,   ///< node -> master: phase 2 diffs delivered; the kReply
                  ///< releases the barrier
  kRunBarrierEnter,  ///< event-only barrier (paper §3.6), no memory effect
  kSwapPut,   ///< §5 remote swapping: park an object image on a peer disk
  kSwapGet,   ///< retrieve a remotely parked image
  kSwapDrop,  ///< release a remotely parked image
  kHomeMigrate,     ///< lock-driven adaptive migration: manager -> (chases the
                    ///< home chain) -> dominant writer, proposing it adopt an
                    ///< object's home; stamped with the sender's barrier
                    ///< generation so proposals never cross a barrier
  kHomeMigrateAck,  ///< adopting writer -> old home: home pointer flipped (or
                    ///< adoption declined), old home may clear its
                    ///< migration-in-progress mark
  kReplicaUpdate,   ///< fault tolerance: home -> backup rank at each barrier,
                    ///< carrying the barrier-cut images/diffs of the home's
                    ///< dirty objects so the backup always holds every homed
                    ///< object at the last completed barrier (acked request —
                    ///< barrier completion implies a consistent replica cut)
  kRecoverEnter,    ///< survivor -> master: recovery rendezvous after a peer
                    ///< death — all survivors finish re-homing/lock
                    ///< reclamation before anyone resumes computing; the
                    ///< kReply releases it

  // --- JIAJIA baseline (page-based, home-based) ---
  kPageFetch,     ///< fetch whole page from its fixed home
  kPageData,      ///< reply: the page
  kPageDiff,      ///< release/barrier: diff pushed to home; kReply acks it
  kJiaLockAcquire,   ///< acquirer -> manager; the kReply grant carries the
                     ///< lock's write notices for invalidation
  kJiaLockRelease,   ///< holder -> manager: the section's write notices
  kJiaBarrierEnter,  ///< carries write notices of the interval; the kReply
                     ///< exit carries the merged notices of all nodes
};

const char* to_string(MsgType t);

/// A protocol message. `seq` is assigned by the sending endpoint;
/// replies echo the request's seq in `req_seq` so the requester can be
/// woken. Payload layout is defined by the protocol that owns the type.
struct Message {
  MsgType type = MsgType::kInvalid;
  int32_t src = -1;
  int32_t dst = -1;
  uint64_t seq = 0;
  uint64_t req_seq = 0;  ///< nonzero in replies: seq of the request
  std::vector<uint8_t> payload{};
  /// Sender-local stripe-routing key; NOT encoded on the wire. The
  /// striped UDP transport maps flow % nstripes to a socket, so two
  /// one-way messages whose relative order matters (same lock token,
  /// same swapped image, same object) must share a flow — each stripe
  /// is an independent go-back-N FIFO. 0 (the default) is fine for
  /// traffic whose delivery is application-acked (kDiffBatch, barrier).
  uint64_t flow = 0;
  /// Zero-copy payload tail: bytes logically appended after `payload`,
  /// borrowed from memory the caller keeps alive until send() returns
  /// (e.g. an object image under its directory-shard lock). Transports
  /// gather it straight into wire buffers; in-process delivery and the
  /// loopback shortcut materialize() it. Receivers always see a plain
  /// contiguous payload — `borrowed` never survives decode.
  std::span<const uint8_t> borrowed{};

  [[nodiscard]] size_t wire_size() const {
    return kHeaderBytes + payload.size() + borrowed.size();
  }
  /// Folds `borrowed` into `payload` (for queue-based delivery that
  /// outlives the caller's buffer).
  void materialize() {
    if (borrowed.empty()) return;
    payload.insert(payload.end(), borrowed.begin(), borrowed.end());
    borrowed = {};
  }
  static constexpr size_t kHeaderBytes = 2 + 4 + 4 + 8 + 8 + 4;  // + payload len
};

/// Append-only binary writer (little-endian, as the paper's x86 testbed).
class Writer {
 public:
  explicit Writer(std::vector<uint8_t>& out) : out_(out) {}

  void u8(uint8_t v) { out_.push_back(v); }
  void u16(uint16_t v) { raw(&v, 2); }
  void u32(uint32_t v) { raw(&v, 4); }
  void u64(uint64_t v) { raw(&v, 8); }
  void i32(int32_t v) { raw(&v, 4); }
  void i64(int64_t v) { raw(&v, 8); }
  void f64(double v) { raw(&v, 8); }
  void bytes(std::span<const uint8_t> s) {
    u32(static_cast<uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  void str(const std::string& s) {
    u32(static_cast<uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  /// Raw append without a length prefix (caller knows the size).
  void raw(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    out_.insert(out_.end(), b, b + n);
  }

  /// Bytes written to the underlying buffer so far (includes anything
  /// the buffer held before this writer was attached) — lets callers
  /// meter the encoded size of a section without owning the buffer.
  [[nodiscard]] size_t size() const { return out_.size(); }

 private:
  std::vector<uint8_t>& out_;
};

/// Bounds-checked reader over a received payload. Throws SystemError on
/// truncated input: a DSM must never trust message lengths blindly.
class Reader {
 public:
  explicit Reader(std::span<const uint8_t> in) : in_(in) {}

  uint8_t u8() { return take(1)[0]; }
  uint16_t u16() { return get<uint16_t>(); }
  uint32_t u32() { return get<uint32_t>(); }
  uint64_t u64() { return get<uint64_t>(); }
  int32_t i32() { return get<int32_t>(); }
  int64_t i64() { return get<int64_t>(); }
  double f64() { return get<double>(); }
  std::vector<uint8_t> bytes() {
    const uint32_t n = u32();
    auto s = take(n);
    return {s.begin(), s.end()};
  }
  /// Zero-copy view of a length-prefixed byte run (valid while the
  /// message payload is alive).
  std::span<const uint8_t> bytes_view() {
    const uint32_t n = u32();
    return take(n);
  }
  std::string str() {
    const uint32_t n = u32();
    auto s = take(n);
    return {reinterpret_cast<const char*>(s.data()), s.size()};
  }
  void raw(void* p, size_t n) { std::memcpy(p, take(n).data(), n); }

  [[nodiscard]] size_t remaining() const { return in_.size() - pos_; }
  [[nodiscard]] bool done() const { return remaining() == 0; }

 private:
  template <typename T>
  T get() {
    T v;
    std::memcpy(&v, take(sizeof(T)).data(), sizeof(T));
    return v;
  }
  std::span<const uint8_t> take(size_t n) {
    if (pos_ + n > in_.size()) {
      throw SystemError("message decode overrun: want " + std::to_string(n) + " bytes, have " +
                        std::to_string(in_.size() - pos_));
    }
    auto s = in_.subspan(pos_, n);
    pos_ += n;
    return s;
  }
  std::span<const uint8_t> in_;
  size_t pos_ = 0;
};

/// Serialize a full message (header + payload + borrowed tail) for a
/// byte transport.
std::vector<uint8_t> encode_message(const Message& m);
/// Append just the fixed header (with the combined payload+borrowed
/// length) to `out` — the scatter-gather path encodes the header once
/// and copies payload/borrowed ranges straight into datagram buffers.
void encode_header(const Message& m, std::vector<uint8_t>& out);
/// Parse a full message; throws SystemError on malformed input.
Message decode_message(std::span<const uint8_t> wire);

}  // namespace lots::net
