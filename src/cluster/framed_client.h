// FramedClient: a blocking request/response connection speaking the
// CRC32-framed ReplMessage codec (net/wire.h) — the client side of a
// daemon's coordination port.
//
// The replication mesh (TcpTransport) is fire-and-forget gossip; the
// router's traffic is strictly request/response: it sends one frame and
// waits for exactly one reply. A tiny blocking client with per-call
// deadlines fits that shape better than threading router connections
// through the transport's loop, and keeps the router stateless — a
// FramedClient carries no state besides the socket itself, so dropping
// and re-dialing it is always safe.
//
// Not thread-safe: one FramedClient per caller thread.

#ifndef TARDIS_CLUSTER_FRAMED_CLIENT_H_
#define TARDIS_CLUSTER_FRAMED_CLIENT_H_

#include <cstdint>
#include <string>

#include "replication/message.h"
#include "util/status.h"

namespace tardis {
namespace cluster {

/// Splits "host:port" (the last ':' wins, so bare IPv6 is not supported —
/// matches the daemon's flag syntax). Returns InvalidArgument on
/// missing/unparsable port.
Status ParseEndpoint(const std::string& endpoint, std::string* host,
                     uint16_t* port);

/// Parses a decimal TCP port in 1..65535 (0 too if `allow_zero`, for
/// flags where 0 means "disabled"); false on anything else: empty, signs,
/// trailing characters, out of range.
bool ParsePort(const std::string& text, uint16_t* port,
               bool allow_zero = false);

class FramedClient {
 public:
  FramedClient() = default;
  ~FramedClient();

  FramedClient(const FramedClient&) = delete;
  FramedClient& operator=(const FramedClient&) = delete;

  /// Dials `endpoint` ("host:port") with a connect deadline. Any existing
  /// connection is closed first.
  Status Connect(const std::string& endpoint, uint64_t timeout_ms);

  bool connected() const { return fd_ >= 0; }
  const std::string& endpoint() const { return endpoint_; }

  /// Closes the socket (idempotent).
  void Close();

  /// Sends `req` as one frame and blocks for one reply frame, all within
  /// `timeout_ms`. On any error (IO, deadline, corrupt frame) the
  /// connection is closed — the caller re-Connects to retry.
  Status Call(const ReplMessage& req, ReplMessage* resp, uint64_t timeout_ms);

  /// One-shot convenience: dial, call, close.
  static Status CallOnce(const std::string& endpoint, const ReplMessage& req,
                         ReplMessage* resp, uint64_t timeout_ms);

 private:
  int fd_ = -1;
  std::string endpoint_;
  std::string recvbuf_;  ///< partial-frame reassembly across reads
};

}  // namespace cluster
}  // namespace tardis

#endif  // TARDIS_CLUSTER_FRAMED_CLIENT_H_
