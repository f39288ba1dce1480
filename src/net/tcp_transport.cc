#include "net/tcp_transport.h"

#include <algorithm>

#include "net/dial.h"
#include "net/wire.h"
#include "util/clock.h"
#include "util/logging.h"

namespace tardis {

namespace {

/// Unsent bytes per peer past which new frames are dropped.
constexpr size_t kMaxBacklogBytes = 64u << 20;

}  // namespace

TcpTransport::TcpTransport(const TcpTransportOptions& options)
    : options_(options),
      num_sites_(options.peers.size() + 1),
      server_(ConnServer::Options{0, [this] { Tick(); }}) {
  ReplMessage hello;
  hello.type = ReplMessage::Type::kHello;
  hello.from_site = options_.site_id;
  EncodeFrame(hello, &hello_frame_);
  peers_.reserve(options_.peers.size());
  for (const TcpPeer& peer : options_.peers) {
    Peer p;
    p.peer = peer;
    p.backoff =
        Backoff(options_.reconnect_initial_ms, options_.reconnect_max_ms);
    peers_.push_back(std::move(p));
  }
}

bool TcpTransport::IsKnownPeer(uint32_t site) const {
  for (const TcpPeer& peer : options_.peers) {
    if (peer.site == site) return true;
  }
  return false;
}

TcpTransport::~TcpTransport() { Shutdown(); }

StatusOr<std::unique_ptr<TcpTransport>> TcpTransport::Open(
    const TcpTransportOptions& options) {
  std::unique_ptr<TcpTransport> t(new TcpTransport(options));
  TcpTransport* raw = t.get();
  auto port = raw->server_.Listen(
      options.listen_port, Splitter::Frame(),
      [raw](const ConnPtr& conn, std::string payload) {
        raw->OnInboundFrame(conn, std::move(payload));
      },
      options.listen_host);
  if (!port.ok()) return port.status();
  raw->listen_port_ = *port;
  raw->server_.ScheduleTick(0);  // the first tick dials every peer
  raw->server_.Start();
  return t;
}

void TcpTransport::Shutdown() {
  server_.Stop();
  std::lock_guard<std::mutex> guard(mu_);
  for (Peer& p : peers_) {
    p.conn = nullptr;
    p.handshaked = false;
  }
  stopped_ = true;  // ends a WaitReceive in progress
  inbox_cv_.notify_all();
}

bool TcpTransport::IsConnected(uint32_t site) const {
  std::lock_guard<std::mutex> guard(mu_);
  for (const Peer& p : peers_) {
    if (p.peer.site == site) return p.handshaked;
  }
  return false;
}

void TcpTransport::Send(uint32_t from, uint32_t to, ReplMessage msg) {
  if (from != options_.site_id || to == from) return;
  msg.from_site = from;
  std::string frame;
  EncodeFrame(msg, &frame);
  EnqueueEncoded(to, frame);
}

void TcpTransport::Broadcast(uint32_t from, ReplMessage msg) {
  if (from != options_.site_id) return;
  msg.from_site = from;
  // Serialize once; every peer gets the same bytes.
  std::string frame;
  EncodeFrame(msg, &frame);
  for (const TcpPeer& peer : options_.peers) EnqueueEncoded(peer.site, frame);
}

void TcpTransport::EnqueueEncoded(uint32_t to, const std::string& frame) {
  std::lock_guard<std::mutex> guard(mu_);
  for (Peer& p : peers_) {
    if (p.peer.site != to) continue;
    if (!p.handshaked || partitioned_.count(to) != 0 ||
        p.conn->unsent() + frame.size() > kMaxBacklogBytes) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // Write-through; the loop only flushes what the socket did not take.
    server_.Send(p.conn, frame);
    sent_.fetch_add(1, std::memory_order_relaxed);
    bytes_sent_.fetch_add(frame.size(), std::memory_order_relaxed);
    return;
  }
  // Unknown destination: ignored, like SimNetwork.
}

bool TcpTransport::Receive(uint32_t site, ReplMessage* msg) {
  if (site != options_.site_id) return false;
  std::lock_guard<std::mutex> guard(mu_);
  if (inbox_.empty()) return false;
  *msg = std::move(inbox_.front());
  inbox_.pop_front();
  delivered_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void TcpTransport::WaitReceive(uint32_t /*site*/,
                               std::chrono::microseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  inbox_cv_.wait_for(lock, timeout, [this] {
    return !inbox_.empty() || interrupted_ || stopped_;
  });
  interrupted_ = false;
}

void TcpTransport::Interrupt(uint32_t /*site*/) {
  std::lock_guard<std::mutex> guard(mu_);
  interrupted_ = true;
  inbox_cv_.notify_all();
}

bool TcpTransport::HasInflight() const {
  std::lock_guard<std::mutex> guard(mu_);
  if (!inbox_.empty()) return true;
  for (const Peer& p : peers_) {
    if (p.conn != nullptr && p.conn->unsent() > 0) return true;
  }
  return false;
}

void TcpTransport::Partition(uint32_t a, uint32_t b) {
  std::lock_guard<std::mutex> guard(mu_);
  if (a == options_.site_id) partitioned_.insert(b);
  if (b == options_.site_id) partitioned_.insert(a);
}

void TcpTransport::Heal(uint32_t a, uint32_t b) {
  std::lock_guard<std::mutex> guard(mu_);
  if (a == options_.site_id) partitioned_.erase(b);
  if (b == options_.site_id) partitioned_.erase(a);
}

void TcpTransport::HealAll() {
  std::lock_guard<std::mutex> guard(mu_);
  partitioned_.clear();
}

void TcpTransport::Tick() {
  std::lock_guard<std::mutex> guard(mu_);
  if (!inbox_.empty()) inbox_cv_.notify_one();
  const uint64_t now = NowMillis();
  uint64_t next_ms = UINT64_MAX;
  for (Peer& p : peers_) {
    if (p.conn != nullptr) {
      if (p.conn->open()) continue;
      // A refused connect, a reset or a bad handshake. The backoff is
      // not reset by a TCP connect: a port that accepts and then rejects
      // the handshake (wrong process, a proxy, a half-dead peer) would
      // otherwise be hammered at the initial delay forever. Only the
      // peer's kHelloAck resets it.
      p.conn = nullptr;
      p.handshaked = false;
      p.backoff.Fail(now);
    }
    if (p.backoff.Due(now)) {
      auto fd = StartConnect(p.peer.host, p.peer.port);
      if (fd.ok()) {
        p.conn = server_.Adopt(*fd, Splitter::Frame(),
                               [this](const ConnPtr& conn, std::string ack) {
                                 OnHelloAck(conn, std::move(ack));
                               });
        // The hello MUST be the first frame on the wire; nothing else is
        // sent before the peer's kHelloAck.
        server_.Send(p.conn, hello_frame_);
        continue;
      }
      p.backoff.Fail(now);
    }
    next_ms = std::min(next_ms, p.backoff.RemainingMs(now));
  }
  if (next_ms != UINT64_MAX) server_.ScheduleTick(next_ms);
}

void TcpTransport::OnHelloAck(const ConnPtr& conn, std::string payload) {
  bytes_received_.fetch_add(kWireHeaderBytes + payload.size(),
                            std::memory_order_relaxed);
  ReplMessage msg;
  const bool ack = DecodeReplMessage(Slice(payload), &msg).ok() &&
                   msg.type == ReplMessage::Type::kHelloAck;
  std::lock_guard<std::mutex> guard(mu_);
  for (Peer& p : peers_) {
    if (p.conn != conn) continue;
    if (!ack || msg.from_site != p.peer.site) break;
    if (!p.handshaked) {
      p.handshaked = true;
      // Counted now: a hello to a peer that never answers may never
      // have left.
      bytes_sent_.fetch_add(hello_frame_.size(), std::memory_order_relaxed);
      // This is "the first valid frame from the peer": only now does the
      // reconnect backoff reset.
      p.backoff.Reset();
      if (p.ever_handshaked) {
        reconnects_.fetch_add(1, std::memory_order_relaxed);
      }
      p.ever_handshaked = true;
    }
    server_.Reply(conn, "");
    return;
  }
  TARDIS_WARN("site %u: unexpected frame on a dialed connection",
              options_.site_id);
  server_.Reply(conn, "", /*close=*/true);
}

void TcpTransport::OnInboundFrame(const ConnPtr& conn, std::string payload) {
  bytes_received_.fetch_add(kWireHeaderBytes + payload.size(),
                            std::memory_order_relaxed);
  ReplMessage msg;
  Status s = DecodeReplMessage(Slice(payload), &msg);
  if (!s.ok()) {
    // Malformed bytes: this peer (or fuzzer) is speaking garbage.
    // Closing the connection is the whole defense — never crash.
    TARDIS_WARN("site %u: dropping inbound connection: %s", options_.site_id,
                s.ToString().c_str());
    server_.Reply(conn, "", /*close=*/true);
    return;
  }
  // The context holds the peer's site once its kHello passed the gate.
  const auto* peer_site = static_cast<const uint32_t*>(conn->context.get());
  if (peer_site == nullptr) {
    // Handshake gate: the first frame must be a kHello from a known
    // peer; anything else is a stranger and is disconnected before any
    // payload is accepted.
    if (msg.type != ReplMessage::Type::kHello ||
        msg.from_site == options_.site_id || !IsKnownPeer(msg.from_site)) {
      TARDIS_WARN("site %u: dropping inbound connection: no valid hello",
                  options_.site_id);
      server_.Reply(conn, "", /*close=*/true);
      return;
    }
    conn->context = std::make_shared<uint32_t>(msg.from_site);
    ReplMessage ack;
    ack.type = ReplMessage::Type::kHelloAck;
    ack.from_site = options_.site_id;
    std::string frame;
    EncodeFrame(ack, &frame);
    bytes_sent_.fetch_add(frame.size(), std::memory_order_relaxed);
    server_.Reply(conn, frame);
    return;
  }
  if (msg.type == ReplMessage::Type::kHello ||
      msg.type == ReplMessage::Type::kHelloAck ||
      msg.from_site != *peer_site) {
    TARDIS_WARN("site %u: protocol violation from site %u; disconnecting",
                options_.site_id, *peer_site);
    server_.Reply(conn, "", /*close=*/true);
    return;
  }
  server_.Reply(conn, "");  // ready for the next frame
  std::lock_guard<std::mutex> guard(mu_);
  if (partitioned_.count(msg.from_site) != 0) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // The tick after this batch of socket events wakes the pump once for
  // every frame the batch queued.
  if (inbox_.empty()) server_.ScheduleTick(0);
  inbox_.push_back(std::move(msg));
}

void TcpTransport::BindMetrics(obs::MetricsRegistry* registry,
                               uint32_t site_id) {
  Transport::BindMetrics(registry, site_id);
  const obs::LabelSet site{{"site", std::to_string(site_id)}};
  registry->RegisterCallbackCounter(
      "tardis_net_bytes_sent_total", "Frame bytes handed to peer sockets",
      [this] { return bytes_sent(); }, site, this);
  registry->RegisterCallbackCounter(
      "tardis_net_bytes_received_total", "Frame bytes read from peer sockets",
      [this] { return bytes_received(); }, site, this);
  registry->RegisterCallbackCounter(
      "tardis_net_reconnects_total",
      "Outbound connections re-established after a drop",
      [this] { return reconnects(); }, site, this);
}

}  // namespace tardis
