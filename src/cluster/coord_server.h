// CoordServer: a partition daemon's coordination endpoint — the server
// side of the router's FramedClient connections (DESIGN.md §10).
//
// Listens on its own port (tardisd --coord-port), speaks the CRC32-framed
// ReplMessage codec, and serves four request types:
//
//   kRoute      fast-path execution: a line-protocol command (text) run
//               through the daemon's command handler, or a write set
//               (commit.writes) applied as one local transaction
//   kPrepare,
//   kDecide,      forwarded to the TwoPhaseParticipant
//   kTxnStatus
//
// The socket work is a ConnServer instance of its own (net/conn_server.h)
// with a frame splitter, so 2PC work never delays the client port's
// reads. Requests are dispatched inline on its loop thread (coordination
// traffic is low-rate control plane, not the gossip data path). A
// corrupt, oversized or undecodable frame closes the offending
// connection, never the daemon. The loop's tick doubles as the
// participant's resolver: every resolve_interval_ms it runs one
// cooperative-termination pass so in-doubt transactions converge even if
// no router ever returns.

#ifndef TARDIS_CLUSTER_COORD_SERVER_H_
#define TARDIS_CLUSTER_COORD_SERVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "cluster/twopc.h"
#include "core/tardis_store.h"
#include "net/conn_server.h"
#include "util/status.h"

namespace tardis {
namespace cluster {

struct CoordServerOptions {
  uint16_t port = 0;  ///< 0 picks an ephemeral port (see listen_port())
  /// Executes a kRoute line-protocol command, returning the reply text.
  /// Runs on the server's loop thread; must be thread-safe against the
  /// daemon's own workers.
  std::function<std::string(const std::string& line)> execute;
  /// How often the loop thread runs TwoPhaseParticipant::ResolveInDoubt.
  /// 0 disables the resolver (tests drive it by hand).
  uint64_t resolve_interval_ms = 1000;
};

class CoordServer {
 public:
  /// Binds the port and starts the loop thread. `store` and
  /// `participant` must outlive the server; destroying it closes every
  /// socket.
  static StatusOr<std::unique_ptr<CoordServer>> Start(
      TardisStore* store, TwoPhaseParticipant* participant,
      CoordServerOptions options);

  CoordServer(const CoordServer&) = delete;
  CoordServer& operator=(const CoordServer&) = delete;

  uint16_t listen_port() const { return listen_port_; }

 private:
  CoordServer(TardisStore* store, TwoPhaseParticipant* participant,
              CoordServerOptions options);

  /// Dispatches one decoded request, filling *reply. Errors become a
  /// kRouteReply with an "ERR ..." body so the router always gets a
  /// frame back.
  void Dispatch(const ReplMessage& req, ReplMessage* reply);
  /// kRoute with commit.writes: apply atomically via one local txn.
  std::string ApplyWriteSet(const ReplMessage& req);

  TardisStore* const store_;
  TwoPhaseParticipant* const participant_;
  const CoordServerOptions options_;

  uint16_t listen_port_ = 0;
  ConnServer server_;  ///< last member: its loop stops before the rest die
};

}  // namespace cluster
}  // namespace tardis

#endif  // TARDIS_CLUSTER_COORD_SERVER_H_
