// TcpTransport: a real-socket Transport for one site of the mesh — the
// moral equivalent of the paper's Netty layer (§6.4), sized for the
// tardisd daemon.
//
// Topology: every site listens on one port and dials one outbound
// connection to each peer. A site *sends* application traffic only on the
// connections it dialed and *receives* it only on the connections it
// accepted. The first frame on a dialed connection is a kHello carrying
// the dialer's site id; the acceptor validates it (first frame, known
// peer) and answers with a kHelloAck on the same socket — the only bytes
// that ever flow "backwards". Outbound connections that fail or die
// reconnect with capped exponential backoff, and the backoff only resets
// once the peer's kHelloAck arrives (a TCP connect that is later rejected
// at the handshake keeps backing off). While a peer is down, messages
// addressed to it are counted as dropped (gossip tolerates loss —
// anti-entropy recovers it), never an error up the stack.
//
// One background thread multiplexes all sockets with poll(2): the listen
// socket, accepted inbound sockets (read side, frame reassembly +
// decode), and dialed outbound sockets (connect completion + buffered
// writes). Send/Broadcast write a frame through on the calling thread when
// a handshaked peer has no backlog; otherwise they queue it and wake the
// thread through a self-pipe. The inbox condvar ends WaitReceive. A
// malformed inbound frame (bad CRC, hostile length prefix, undecodable
// payload) closes that connection and is otherwise ignored — a fuzzing
// peer cannot crash the daemon.

#ifndef TARDIS_NET_TCP_TRANSPORT_H_
#define TARDIS_NET_TCP_TRANSPORT_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "net/transport.h"
#include "util/backoff.h"
#include "util/status.h"

namespace tardis {

struct TcpPeer {
  uint32_t site = 0;
  std::string host;
  uint16_t port = 0;
};

struct TcpTransportOptions {
  uint32_t site_id = 0;
  /// Port this site's replication endpoint listens on. 0 picks an
  /// ephemeral port (see listen_port() after Open).
  uint16_t listen_port = 0;
  std::string listen_host = "0.0.0.0";
  /// Every other site in the mesh.
  std::vector<TcpPeer> peers;
  /// Reconnect backoff: initial delay doubling up to the cap.
  uint64_t reconnect_initial_ms = 20;
  uint64_t reconnect_max_ms = 2000;
  /// Bytes buffered per not-yet-writable peer before new messages are
  /// dropped instead of queued.
  size_t max_sendbuf_bytes = 64u << 20;
};

class TcpTransport : public Transport {
 public:
  /// Binds the listen socket and starts the IO thread. Fails with
  /// IOError if the port cannot be bound.
  static StatusOr<std::unique_ptr<TcpTransport>> Open(
      const TcpTransportOptions& options);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Stops the IO thread and closes every socket. Idempotent.
  void Shutdown();

  /// Actual bound port (differs from options when listen_port was 0).
  uint16_t listen_port() const { return listen_port_; }

  /// True once the dialed connection to `site` completed the hello /
  /// hello-ack handshake (not merely the TCP connect).
  bool IsConnected(uint32_t site) const;

  uint64_t bytes_sent() const {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_received() const {
    return bytes_received_.load(std::memory_order_relaxed);
  }
  /// Outbound handshakes completed after the first (backoff redials).
  uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }

  /// Transport counters plus wire-level byte and reconnect counts.
  void BindMetrics(obs::MetricsRegistry* registry, uint32_t site_id) override;

  // ---- Transport ----------------------------------------------------------
  size_t num_sites() const override { return num_sites_; }
  void Send(uint32_t from, uint32_t to, ReplMessage msg) override;
  void Broadcast(uint32_t from, ReplMessage msg) override;
  bool Receive(uint32_t site, ReplMessage* msg) override;
  /// Waits on the inbox (this endpoint has one, so `site` is not checked).
  void WaitReceive(uint32_t site, std::chrono::microseconds timeout) override;
  void Interrupt(uint32_t site) override;
  bool HasInflight() const override;

  /// Endpoint-local partition: suppresses outbound traffic to and
  /// inbound traffic from the named peer (the other endpoint must do the
  /// same for a symmetric cut, mirroring a real bidirectional outage).
  void Partition(uint32_t a, uint32_t b) override;
  void Heal(uint32_t a, uint32_t b) override;
  void HealAll() override;

 private:
  struct PeerConn {
    TcpPeer peer;
    int fd = -1;
    bool connecting = false;   ///< non-blocking connect in flight
    bool connected = false;    ///< TCP established (hello may be in flight)
    bool handshaked = false;   ///< peer's kHelloAck received
    bool ever_handshaked = false;  ///< distinguishes reconnects from dial #1
    std::string sendbuf;       ///< encoded frames awaiting write
    size_t sendbuf_off = 0;    ///< bytes of sendbuf already written
    std::deque<size_t> frame_lens;  ///< frame boundaries, for drop stats
    bool hello_unsent = false;  ///< frame_lens.front() is our kHello
    std::string recvbuf;       ///< hello-ack reassembly
    Backoff backoff;
  };
  struct InboundConn {
    int fd = -1;
    bool identified = false;   ///< valid kHello received
    uint32_t peer_site = 0;    ///< meaningful once identified
    std::string recvbuf;
    std::string sendbuf;       ///< the kHelloAck awaiting write
    size_t sendbuf_off = 0;
  };

  explicit TcpTransport(const TcpTransportOptions& options);

  Status Listen();
  void IoLoop();
  void Wake();
  void StartConnect(PeerConn* pc, uint64_t now_ms);
  void CloseOutbound(PeerConn* pc, uint64_t now_ms);
  void FlushWrites(PeerConn* pc, uint64_t now_ms);
  /// Parses handshake replies on a dialed connection. Returns false on a
  /// protocol violation (caller closes the connection).
  bool DrainOutboundHandshake(PeerConn* pc);
  void DrainInbound(InboundConn* ic);
  void FlushInboundWrites(InboundConn* ic);
  bool IsKnownPeer(uint32_t site) const;
  void EnqueueEncoded(uint32_t to, const std::string& frame);

  TcpTransportOptions options_;
  size_t num_sites_;
  uint16_t listen_port_ = 0;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};

  mutable std::mutex mu_;
  std::vector<PeerConn> outbound_;          // one per peer
  std::vector<InboundConn> inbound_;        // accepted connections
  std::deque<ReplMessage> inbox_;           // decoded, awaiting Receive
  std::condition_variable inbox_cv_;        // inbox_ grew, interrupt, stop
  bool interrupted_ = false;                // guarded by mu_
  std::unordered_set<uint32_t> partitioned_;

  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> bytes_received_{0};
  std::atomic<uint64_t> reconnects_{0};

  std::thread io_;
  std::atomic<bool> stop_{true};
};

}  // namespace tardis

#endif  // TARDIS_NET_TCP_TRANSPORT_H_
