#include "net/udp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "common/clock.hpp"
#include "common/error.hpp"

namespace lots::net {
namespace {

constexpr uint8_t kData = 0;
constexpr uint8_t kAck = 1;
constexpr size_t kCtrlBytes = 1 + 8 + 8;  // kind + seq + cum_ack
/// Message bytes carried per datagram (ctrl + fragment header overhead).
constexpr size_t kChunk = kMaxDatagram - kCtrlBytes - FragHeader::kBytes;
/// Datagrams per recvmmsg vector (and per-stripe receive buffer count).
constexpr size_t kRecvBatch = 16;
/// mmsghdr array size for one sendmmsg call (larger batches chunk).
constexpr size_t kSendVec = 64;

sockaddr_in loopback_addr(uint16_t port) {
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_port = htons(port);
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return a;
}

/// Creates + binds a loopback datagram socket (port 0 = ephemeral);
/// fills `actual` with the bound port.
int bind_udp(uint16_t port, uint16_t& actual) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) throw SystemError("socket() failed");
  // Never on an ephemeral bind: Linux treats two SO_REUSEADDR sockets as
  // compatible, so port 0 could land on a port a live socket holds, and
  // the two owners would split its datagrams (a rank deaf to its peers).
  int one = 1;
  if (port != 0) ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  // Generous buffers: a whole window of max datagrams per peer.
  int buf = 4 << 20;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf, sizeof(buf));
  sockaddr_in me = loopback_addr(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&me), sizeof(me)) != 0) {
    ::close(fd);
    throw SystemError("bind() failed for UDP port " + std::to_string(port));
  }
  sockaddr_in bound{};
  socklen_t bl = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bl) != 0) {
    ::close(fd);
    throw SystemError("getsockname() failed");
  }
  actual = ntohs(bound.sin_port);
  return fd;
}

std::vector<std::vector<uint16_t>> fixed_port_table(uint16_t base_port, int nprocs,
                                                    size_t stripes) {
  std::vector<std::vector<uint16_t>> ports(stripes, std::vector<uint16_t>(static_cast<size_t>(nprocs)));
  for (size_t s = 0; s < stripes; ++s) {
    for (int r = 0; r < nprocs; ++r) {
      ports[s][static_cast<size_t>(r)] =
          static_cast<uint16_t>(base_port + s * static_cast<size_t>(nprocs) + static_cast<size_t>(r));
    }
  }
  return ports;
}

/// Copies [off, off+len) of the logical concatenation of `segs` into
/// `out` — the scatter-gather half of the zero-copy send path.
void gather(const std::span<const uint8_t> (&segs)[3], size_t off, size_t len,
            std::vector<uint8_t>& out) {
  for (const auto& seg : segs) {
    if (len == 0) break;
    if (off >= seg.size()) {
      off -= seg.size();
      continue;
    }
    const size_t take = std::min(len, seg.size() - off);
    out.insert(out.end(), seg.begin() + static_cast<ptrdiff_t>(off),
               seg.begin() + static_cast<ptrdiff_t>(off + take));
    off = 0;
    len -= take;
  }
}

}  // namespace

int UdpTransport::bind_ephemeral(uint16_t& port_out) { return bind_udp(0, port_out); }

UdpTransport::UdpTransport(int rank, int nprocs, uint16_t base_port, size_t window,
                           uint64_t rto_us, size_t stripes)
    : UdpTransport(rank, fixed_port_table(base_port, nprocs, stripes), {}, window, rto_us) {}

UdpTransport::UdpTransport(int rank, std::vector<std::vector<uint16_t>> stripe_ports,
                           std::vector<int> fds, size_t window, uint64_t rto_us)
    : rank_(rank),
      nprocs_(stripe_ports.empty() ? 0 : static_cast<int>(stripe_ports.front().size())),
      stripe_ports_(std::move(stripe_ports)),
      window_(window),
      rto_us_(rto_us) {
  LOTS_CHECK(!stripe_ports_.empty(), "UdpTransport: need at least one stripe");
  LOTS_CHECK(rank_ >= 0 && rank_ < nprocs_, "UdpTransport: rank outside the port table");
  LOTS_CHECK(nprocs_ <= 256, "UdpTransport: nprocs out of range");
  LOTS_CHECK(fds.empty() || fds.size() == stripe_ports_.size(),
             "UdpTransport: need one adopted socket per stripe");
  stripes_.reserve(stripe_ports_.size());
  for (size_t s = 0; s < stripe_ports_.size(); ++s) {
    LOTS_CHECK(stripe_ports_[s].size() == static_cast<size_t>(nprocs_),
               "UdpTransport: ragged stripe port table");
    auto st = std::make_unique<Stripe>();
    st->index = s;
    if (fds.empty()) {
      uint16_t actual = 0;
      st->fd = bind_udp(stripe_ports_[s][static_cast<size_t>(rank_)], actual);
    } else {
      st->fd = fds[s];
    }
    for (int r = 0; r < nprocs_; ++r) st->port_to_rank[stripe_ports_[s][static_cast<size_t>(r)]] = r;
    st->peers.reserve(static_cast<size_t>(nprocs_));
    for (int r = 0; r < nprocs_; ++r) st->peers.push_back(std::make_unique<Peer>(window_));
    st->fault_rng = Rng(0xF001 + s);
    st->rbufs.assign(kRecvBatch, std::vector<uint8_t>(kMaxDatagram + 64));
    stripes_.push_back(std::move(st));
  }
  for (size_t s = 0; s < stripes_.size(); ++s) {
    stripes_[s]->pump = std::thread([this, s] { pump_loop(s); });
  }
}

UdpTransport::~UdpTransport() {
  running_.store(false);
  for (auto& st : stripes_) {
    if (st->pump.joinable()) st->pump.join();
  }
  for (auto& st : stripes_) {
    if (st->fd >= 0) ::close(st->fd);
  }
}

void UdpTransport::set_fault(const FaultSpec& f) {
  for (size_t s = 0; s < stripes_.size(); ++s) {
    std::lock_guard lk(stripes_[s]->mu);
    stripes_[s]->fault = f;
    // Distinct deterministic streams per stripe: otherwise every stripe
    // would fault the same positions of its send sequence.
    stripes_[s]->fault_rng = Rng(f.seed * 0x9E3779B97F4A7C15ull + 0xF001 + s * 0x51ED270Bull);
  }
}

void UdpTransport::set_send_batch(size_t n) {
  send_batch_.store(n < 1 ? 1 : n, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Batched emission: every datagram leaves through here
// ---------------------------------------------------------------------------

/// Applies fault injection per datagram, appends a previously held
/// (reorder-injected) datagram BEHIND this batch, and emits the result
/// with sendmmsg. Caller holds st.mu; the batch's wire pointers stay
/// valid because nothing can pop a send window until mu is released.
void UdpTransport::flush_batch_locked(Stripe& st) {
  if (st.batch.empty() && st.held_dst < 0) return;
  std::vector<OutDgram> out;
  out.reserve(st.batch.size() + 2);
  const bool had_held = st.held_dst >= 0;
  for (const OutDgram& e : st.batch) {
    if (!e.allow_fault) {  // ACKs bypass injection, as before
      out.push_back(e);
      continue;
    }
    if (st.fault.drop_prob > 0 && st.fault_rng.unit() < st.fault.drop_prob) continue;
    if (st.fault.dup_prob > 0 && st.fault_rng.unit() < st.fault.dup_prob) out.push_back(e);
    if (st.fault.reorder_prob > 0 && st.held_dst < 0 &&
        st.fault_rng.unit() < st.fault.reorder_prob) {
      // Hold this datagram back; it departs behind the next flushed
      // batch (or alone at the next pump tick), arriving out of order.
      st.held_dst = e.dst;
      st.held.assign(e.data, e.data + e.len);
      continue;
    }
    out.push_back(e);
  }
  if (had_held) out.push_back(OutDgram{st.held_dst, st.held.data(), st.held.size(), false});
  st.batch.clear();
  if (!out.empty()) emit_batch_locked(st, out);
  if (had_held) {  // departed exactly once; free the slot
    st.held_dst = -1;
    st.held.clear();
  }
  st.batch_owned.clear();
}

void UdpTransport::emit_batch_locked(Stripe& st, const std::vector<OutDgram>& out) {
  TransportStats& ts = tstats();
  const std::vector<uint16_t>& ports = stripe_ports_[st.index];
  mmsghdr hdrs[kSendVec];
  iovec iovs[kSendVec];
  sockaddr_in addrs[kSendVec];
  size_t i = 0;
  while (i < out.size()) {
    const size_t n = std::min(kSendVec, out.size() - i);
    for (size_t j = 0; j < n; ++j) {
      const OutDgram& e = out[i + j];
      addrs[j] = loopback_addr(ports[static_cast<size_t>(e.dst)]);
      iovs[j].iov_base = const_cast<uint8_t*>(e.data);
      iovs[j].iov_len = e.len;
      std::memset(&hdrs[j], 0, sizeof(hdrs[j]));
      hdrs[j].msg_hdr.msg_name = &addrs[j];
      hdrs[j].msg_hdr.msg_namelen = sizeof(addrs[j]);
      hdrs[j].msg_hdr.msg_iov = &iovs[j];
      hdrs[j].msg_hdr.msg_iovlen = 1;
    }
    const int sent = ::sendmmsg(st.fd, hdrs, static_cast<unsigned>(n), 0);
    ts.send_syscalls.fetch_add(1, std::memory_order_relaxed);
    if (sent < 0) {
      // The whole vector failed (e.g. ENOBUFS): to the window this is
      // wire loss — count it and let the RTO recover.
      ts.send_errors.fetch_add(n, std::memory_order_relaxed);
      i += n;
      continue;
    }
    ts.datagrams_sent.fetch_add(static_cast<uint64_t>(sent), std::memory_order_relaxed);
    if (stats_) {
      stats_->fragments_sent.fetch_add(static_cast<uint64_t>(sent), std::memory_order_relaxed);
    }
    for (int j = 0; j < sent; ++j) {
      if (hdrs[j].msg_len != iovs[j].iov_len) {  // short write: half a datagram is loss
        ts.send_errors.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (static_cast<size_t>(sent) < n) {
      // Datagram `sent` errored; everything after it was not attempted.
      // All of them are retransmission-recoverable wire loss.
      ts.send_errors.fetch_add(n - static_cast<size_t>(sent), std::memory_order_relaxed);
    }
    i += n;
  }
}

// ---------------------------------------------------------------------------
// Send path
// ---------------------------------------------------------------------------

void UdpTransport::send(Message m) {
  m.src = rank_;
  const int dst = m.dst;
  LOTS_CHECK(dst >= 0 && dst < nprocs_, "UdpTransport::send dst out of range");

  if (stats_) {
    stats_->msgs_sent.fetch_add(1, std::memory_order_relaxed);
    stats_->bytes_sent.fetch_add(m.wire_size(), std::memory_order_relaxed);
  }

  if (dst == rank_) {  // loopback shortcut, no wire involved
    m.materialize();   // the borrowed buffer dies with the caller
    std::lock_guard lk(ready_mu_);
    ready_.push_back(std::move(m));
    ready_cv_.notify_one();
    return;
  }
  // Traffic to a dead peer is dropped silently: the Endpoint layer has
  // already failed (or will immediately fail) every caller waiting on
  // that rank, so the message can have no effect either way.
  if (peer_dead(dst)) return;

  Stripe& st = *stripes_[m.flow % stripes_.size()];

  // Scatter-gather encode: the logical stream {header ‖ payload ‖
  // borrowed} is copied exactly once, straight into the window-retained
  // datagram buffers. No intermediate encode_message vector.
  std::vector<uint8_t> header;
  header.reserve(Message::kHeaderBytes);
  encode_header(m, header);
  const std::span<const uint8_t> segs[3] = {header, m.payload, m.borrowed};
  const size_t total = header.size() + m.payload.size() + m.borrowed.size();
  const size_t count = (total + kChunk - 1) / kChunk;  // total >= kHeaderBytes > 0
  const uint64_t msg_id = next_msg_id_.fetch_add(1, std::memory_order_relaxed);

  std::unique_lock lk(st.mu);
  Peer& p = *st.peers[static_cast<size_t>(dst)];
  for (size_t i = 0; i < count; ++i) {
    if (!p.send_win.can_send()) {
      // The peer cannot ACK datagrams still sitting in the batch.
      flush_batch_locked(st);
      st.window_cv.wait(lk, [&] { return p.send_win.can_send() || peer_dead(dst); });
      if (peer_dead(dst)) return;  // released by the death mark; drop the rest
    }
    const size_t off = i * kChunk;
    const size_t len = std::min(kChunk, total - off);
    const uint64_t seq = p.send_win.alloc_seq();
    std::vector<uint8_t> dgram;
    dgram.reserve(kCtrlBytes + FragHeader::kBytes + len);
    Writer w(dgram);
    w.u8(kData);
    w.u64(seq);
    w.u64(p.recv_win.cum_ack());  // piggyback
    FragHeader{msg_id, static_cast<uint32_t>(i), static_cast<uint32_t>(count)}.encode(w);
    gather(segs, off, len, dgram);
    const std::vector<uint8_t>* wire = p.send_win.on_send(seq, std::move(dgram), now_us());
    st.batch.push_back(OutDgram{dst, wire->data(), wire->size(), /*allow_fault=*/true});
    if (st.batch.size() >= send_batch_.load(std::memory_order_relaxed)) flush_batch_locked(st);
  }
  flush_batch_locked(st);  // nothing of this message outlives send() unsent
}

// ---------------------------------------------------------------------------
// Per-stripe pump: receive batches, ACK coalescing, retransmission
// ---------------------------------------------------------------------------

int UdpTransport::retransmit_expired_locked(Stripe& st) {
  const uint64_t now = now_us();
  const size_t cap = max_retrans_.load(std::memory_order_relaxed);
  int newly_unreachable = -1;
  for (int r = 0; r < nprocs_; ++r) {
    if (r == rank_ || peer_dead(r)) continue;
    Peer& p = *st.peers[static_cast<size_t>(r)];
    // Exponential backoff: each silent round doubles the effective RTO,
    // capped at 32x the base, so a struggling-but-alive peer under heavy
    // loss is probed at a decreasing rate instead of being flooded.
    const uint64_t rto = rto_us_ << std::min<size_t>(p.rto_rounds, 5);
    auto expired = p.send_win.timed_out(now, rto);
    if (expired.empty()) continue;
    ++p.rto_rounds;
    if (cap > 0 && p.rto_rounds > cap) {
      newly_unreachable = r;  // verdict: the caller marks it dead, lock-free
      continue;               // do not bother retransmitting to it
    }
    for (auto& [seq, wire] : expired) {
      st.batch.push_back(OutDgram{r, wire->data(), wire->size(), /*allow_fault=*/true});
    }
  }
  return newly_unreachable;
}

void UdpTransport::pump_loop(size_t s) {
  Stripe& st = *stripes_[s];
  while (running_.load(std::memory_order_acquire)) {
    pump_socket_once(st, 2'000);
    int unreachable = -1;
    {
      std::lock_guard lk(st.mu);
      unreachable = retransmit_expired_locked(st);
      flush_batch_locked(st);  // also bounds the delay of a reorder-held datagram
    }
    if (unreachable >= 0 && !peer_dead(unreachable)) {
      mark_peer_dead(unreachable);
      std::function<void(int)> cb;
      {
        std::lock_guard clk(cb_mu_);
        cb = unreachable_cb_;
      }
      if (cb) cb(unreachable);
    }
  }
}

void UdpTransport::set_peer_unreachable_cb(std::function<void(int)> cb) {
  std::lock_guard lk(cb_mu_);
  unreachable_cb_ = std::move(cb);
}

void UdpTransport::mark_peer_dead(int r) {
  if (r < 0 || r >= nprocs_ || r == rank_) return;
  if (dead_[static_cast<size_t>(r)].exchange(1, std::memory_order_acq_rel)) return;
  for (auto& stp : stripes_) {
    Stripe& st = *stp;
    std::lock_guard lk(st.mu);
    // Batch entries to the dead rank point into its send window's
    // retained wire images — drop them BEFORE clearing the window.
    std::erase_if(st.batch, [r](const OutDgram& d) { return d.dst == r; });
    if (st.held_dst == r) {
      st.held_dst = -1;
      st.held.clear();
    }
    st.peers[static_cast<size_t>(r)]->send_win.clear();
    st.window_cv.notify_all();  // senders blocked on the dead peer's window
  }
}

void UdpTransport::pump_socket_once(Stripe& st, uint64_t timeout_us) {
  pollfd pfd{st.fd, POLLIN, 0};
  const int rc = ::poll(&pfd, 1, static_cast<int>(timeout_us / 1000));
  if (rc <= 0) return;

  // With batching degenerated to 1 (the net_micro baseline cell) the
  // receive path also takes one datagram per syscall, reproducing the
  // historical one-recvfrom-one-ACK shape.
  const size_t nvec =
      std::min(kRecvBatch, std::max<size_t>(1, send_batch_.load(std::memory_order_relaxed)));
  mmsghdr hdrs[kRecvBatch];
  iovec iovs[kRecvBatch];
  sockaddr_in froms[kRecvBatch];
  for (;;) {
    for (size_t i = 0; i < nvec; ++i) {
      iovs[i].iov_base = st.rbufs[i].data();
      iovs[i].iov_len = st.rbufs[i].size();
      std::memset(&hdrs[i], 0, sizeof(hdrs[i]));
      hdrs[i].msg_hdr.msg_name = &froms[i];
      hdrs[i].msg_hdr.msg_namelen = sizeof(froms[i]);
      hdrs[i].msg_hdr.msg_iov = &iovs[i];
      hdrs[i].msg_hdr.msg_iovlen = 1;
    }
    const int n = ::recvmmsg(st.fd, hdrs, static_cast<unsigned>(nvec), MSG_DONTWAIT, nullptr);
    if (n <= 0) return;

    TransportStats& ts = tstats();
    ts.recv_syscalls.fetch_add(1, std::memory_order_relaxed);
    ts.datagrams_recv.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);

    std::lock_guard lk(st.mu);
    uint8_t need_ack[256] = {0};  // per receive batch: 1 = cumulative ACK owed
    for (int i = 0; i < n; ++i) {
      const size_t len = hdrs[i].msg_len;
      if (len < kCtrlBytes) continue;  // runt: none of our peers sends these
      const auto src_it = st.port_to_rank.find(ntohs(froms[i].sin_port));
      if (src_it == st.port_to_rank.end()) continue;  // stray datagram: drop
      const int src = src_it->second;
      if (src == rank_) continue;
      if (peer_dead(src)) {  // zombie fence: a dead rank's late traffic
        ts.zombie_drops.fetch_add(1, std::memory_order_relaxed);
        continue;
      }

      Reader r(std::span<const uint8_t>(st.rbufs[i].data(), len));
      const uint8_t kind = r.u8();
      const uint64_t seq = r.u64();
      const uint64_t cum = r.u64();

      Peer& p = *st.peers[static_cast<size_t>(src)];
      p.rto_rounds = 0;  // any datagram from the peer proves it alive
      p.send_win.on_ack(cum);
      st.window_cv.notify_all();
      if (kind == kAck) continue;

      // One cumulative ACK per peer per batch replaces the historical
      // ACK-per-datagram (duplicates included, so a lost ACK can never
      // stall the sender).
      if (need_ack[src]) ts.acks_coalesced.fetch_add(1, std::memory_order_relaxed);
      need_ack[src] = 1;
      if (!p.recv_win.accept(seq)) continue;

      auto body = std::span<const uint8_t>(st.rbufs[i].data() + kCtrlBytes, len - kCtrlBytes);
      if (auto msg = st.reasm.feed(src, body)) {
        if (stats_) {
          stats_->msgs_recv.fetch_add(1, std::memory_order_relaxed);
          stats_->bytes_recv.fetch_add(msg->wire_size(), std::memory_order_relaxed);
        }
        std::lock_guard rlk(ready_mu_);  // leaf lock, by the locking order
        ready_.push_back(std::move(*msg));
        ready_cv_.notify_one();
      }
    }
    for (int r = 0; r < nprocs_; ++r) {
      if (!need_ack[r]) continue;
      std::vector<uint8_t> ack;
      ack.reserve(kCtrlBytes);
      Writer w(ack);
      w.u8(kAck);
      w.u64(0);
      w.u64(st.peers[static_cast<size_t>(r)]->recv_win.cum_ack());
      st.batch_owned.push_back(std::move(ack));
      st.batch.push_back(OutDgram{r, st.batch_owned.back().data(), st.batch_owned.back().size(),
                                  /*allow_fault=*/false});
    }
    flush_batch_locked(st);
    if (static_cast<size_t>(n) < nvec) return;  // socket drained
  }
}

std::optional<Message> UdpTransport::recv(uint64_t timeout_us) {
  std::unique_lock lk(ready_mu_);
  if (!ready_cv_.wait_for(lk, std::chrono::microseconds(timeout_us),
                          [&] { return !ready_.empty(); })) {
    return std::nullopt;
  }
  Message m = std::move(ready_.front());
  ready_.pop_front();
  return m;
}

uint64_t UdpTransport::retransmissions() const {
  uint64_t total = 0;
  for (const auto& st : stripes_) {
    std::lock_guard lk(st->mu);  // mu is mutable: no const_cast needed
    for (const auto& p : st->peers) total += p->send_win.retransmissions();
  }
  return total;
}

}  // namespace lots::net
