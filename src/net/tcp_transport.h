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
// at the handshake keeps backing off).
//
// Every socket is served by one ConnServer the transport owns
// (net/conn_server.h). The listen port cuts wire frames; its handler runs
// the kHello gate, answers kHelloAck and queues decoded frames in the
// inbox, whose condvar ends WaitReceive. Each dialed peer is an adopted
// connection whose only input is the kHelloAck. Send/Broadcast write a
// frame through on the calling thread; the loop flushes what the socket
// did not take. The loop's tick wakes the pump once per batch of inbound
// frames and redials peers whose backoff is due; it runs on no schedule
// while every peer is connected. A malformed inbound frame (bad CRC, hostile length prefix,
// undecodable payload) closes that connection and is otherwise ignored —
// a fuzzing peer cannot crash the daemon.
//
// A frame counts as dropped when the transport refuses it: the peer has
// not completed its handshake, the link is partitioned, or the peer's
// unsent backlog would pass 64 MiB. Gossip tolerates the loss
// (anti-entropy recovers it), so it is never an error up the stack. A
// frame already handed to a connection that then dies is lost without
// being counted, like bytes in a kernel socket buffer.

#ifndef TARDIS_NET_TCP_TRANSPORT_H_
#define TARDIS_NET_TCP_TRANSPORT_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "net/conn_server.h"
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
};

class TcpTransport : public Transport {
 public:
  /// Binds the listen socket and starts the connection server, which
  /// dials every peer. Fails with IOError if the port cannot be bound.
  static StatusOr<std::unique_ptr<TcpTransport>> Open(
      const TcpTransportOptions& options);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Stops the connection server and closes every socket. Idempotent.
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
  struct Peer {
    TcpPeer peer;
    ConnPtr conn;                  ///< dialed connection; null between dials
    bool handshaked = false;       ///< conn's kHelloAck received
    bool ever_handshaked = false;  ///< distinguishes reconnects from dial #1
    Backoff backoff;
  };

  explicit TcpTransport(const TcpTransportOptions& options);

  /// The loop's tick, run after a batch of socket events that queued
  /// frames, after a dialed connection closed, or when a backoff expires:
  /// wakes the pump for queued frames, retires closed dialed connections,
  /// dials peers whose backoff is due and schedules the next tick while
  /// one is down.
  void Tick();
  /// Handlers of the accepted (peer -> us) and dialed (us -> peer)
  /// connections, on the loop thread.
  void OnInboundFrame(const ConnPtr& conn, std::string payload);
  void OnHelloAck(const ConnPtr& conn, std::string payload);
  bool IsKnownPeer(uint32_t site) const;
  void EnqueueEncoded(uint32_t to, const std::string& frame);

  TcpTransportOptions options_;
  size_t num_sites_;
  uint16_t listen_port_ = 0;
  std::string hello_frame_;  ///< our kHello, the first frame of each dial

  mutable std::mutex mu_;
  std::vector<Peer> peers_;                 // one per peer
  std::deque<ReplMessage> inbox_;           // decoded, awaiting Receive
  std::condition_variable inbox_cv_;        // inbox_ grew, interrupt, stop
  bool interrupted_ = false;                // guarded by mu_
  bool stopped_ = false;                    // guarded by mu_
  std::unordered_set<uint32_t> partitioned_;

  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> bytes_received_{0};
  std::atomic<uint64_t> reconnects_{0};

  ConnServer server_;  ///< last member: its loop stops before the rest die
};

}  // namespace tardis

#endif  // TARDIS_NET_TCP_TRANSPORT_H_
