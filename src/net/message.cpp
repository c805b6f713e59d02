#include "net/message.hpp"

namespace lots::net {

const char* to_string(MsgType t) {
  switch (t) {
    case MsgType::kInvalid: return "Invalid";
    case MsgType::kShutdown: return "Shutdown";
    case MsgType::kPing: return "Ping";
    case MsgType::kReply: return "Reply";
    case MsgType::kObjFetch: return "ObjFetch";
    case MsgType::kObjData: return "ObjData";
    case MsgType::kDiffBatch: return "DiffBatch";
    case MsgType::kLockAcquire: return "LockAcquire";
    case MsgType::kLockForward: return "LockForward";
    case MsgType::kLockRelease: return "LockRelease";
    case MsgType::kBarrierEnter: return "BarrierEnter";
    case MsgType::kBarrierDone: return "BarrierDone";
    case MsgType::kRunBarrierEnter: return "RunBarrierEnter";
    case MsgType::kSwapPut: return "SwapPut";
    case MsgType::kSwapGet: return "SwapGet";
    case MsgType::kSwapDrop: return "SwapDrop";
    case MsgType::kHomeMigrate: return "HomeMigrate";
    case MsgType::kHomeMigrateAck: return "HomeMigrateAck";
    case MsgType::kReplicaUpdate: return "ReplicaUpdate";
    case MsgType::kRecoverEnter: return "RecoverEnter";
    case MsgType::kPageFetch: return "PageFetch";
    case MsgType::kPageData: return "PageData";
    case MsgType::kPageDiff: return "PageDiff";
    case MsgType::kJiaLockAcquire: return "JiaLockAcquire";
    case MsgType::kJiaLockRelease: return "JiaLockRelease";
    case MsgType::kJiaBarrierEnter: return "JiaBarrierEnter";
  }
  return "Unknown";
}

void encode_header(const Message& m, std::vector<uint8_t>& out) {
  Writer w(out);
  w.u16(static_cast<uint16_t>(m.type));
  w.i32(m.src);
  w.i32(m.dst);
  w.u64(m.seq);
  w.u64(m.req_seq);
  w.u32(static_cast<uint32_t>(m.payload.size() + m.borrowed.size()));
}

std::vector<uint8_t> encode_message(const Message& m) {
  std::vector<uint8_t> out;
  out.reserve(Message::kHeaderBytes + m.payload.size() + m.borrowed.size());
  encode_header(m, out);
  Writer w(out);
  if (!m.payload.empty()) w.raw(m.payload.data(), m.payload.size());
  if (!m.borrowed.empty()) w.raw(m.borrowed.data(), m.borrowed.size());
  return out;
}

Message decode_message(std::span<const uint8_t> wire) {
  Reader r(wire);
  Message m;
  m.type = static_cast<MsgType>(r.u16());
  m.src = r.i32();
  m.dst = r.i32();
  m.seq = r.u64();
  m.req_seq = r.u64();
  const uint32_t n = r.u32();
  if (r.remaining() != n) {
    throw SystemError("message payload length mismatch: header says " + std::to_string(n) +
                      ", wire has " + std::to_string(r.remaining()));
  }
  m.payload.resize(n);
  if (n) r.raw(m.payload.data(), n);
  return m;
}

}  // namespace lots::net
