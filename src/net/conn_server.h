// ConnServer: the one connection server behind every socket of tardisd
// and tardis-router (DESIGN.md §6.3) — the client line port, the
// coordination frame port, both metrics HTTP ports and the replication
// mesh of TcpTransport.
//
// One instance owns one epoll thread (the loop) and serves any number of
// listeners and dialed connections. Sockets are non-blocking,
// close-on-exec and TCP_NODELAY. Each connection cuts its byte stream
// into messages with a Splitter: a newline-terminated line, a CRC-checked
// wire frame, or an HTTP header block. The splitter's size cap also
// bounds the connection's input buffer and its unsent output, so neither
// a hostile peer nor one that stops reading makes the server buffer
// without limit.
//
// A connection has at most one message in flight: the loop hands a
// message to its handler and dispatches the next one only after Reply()
// and only while the connection's unsent output is below the cap. The
// handler runs on the loop thread; it may answer inline (the router, the
// coordination port, metrics, the replication mesh) or pass the
// connection to another thread that answers later (tardisd's workers).
// Reply and Send write through on the calling thread and wake the loop
// only for bytes the socket did not take, a pipelined message, or a
// close. Replies therefore leave in request order.
//
// Each instance also runs an optional tick on the loop thread, periodic
// or scheduled by its owner, and a drain state: BeginDrain() closes the
// listeners, and WaitDrained() returns once no connection has a message
// in flight or unsent reply bytes. An idle connection never holds up a
// drain.

#ifndef TARDIS_NET_CONN_SERVER_H_
#define TARDIS_NET_CONN_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

namespace tardis {

/// How a listener cuts its input into messages.
struct Splitter {
  enum class Kind {
    kLine,   ///< '\n'-terminated; '\r' stripped, empty lines skipped
    kFrame,  ///< wire frame (net/wire.h); the message is the payload
    kHttp,   ///< request line + headers up to the blank line
  };
  Kind kind = Kind::kLine;
  /// Largest message, terminator or frame header included; also the
  /// bound on a connection's buffered input. A longer line is answered
  /// "ERR line too long" and closes the connection; an oversized or
  /// corrupt frame, or an oversized header block, just closes it.
  size_t max_bytes = 1u << 20;

  static Splitter Line(size_t max_bytes = 1u << 20) {
    return {Kind::kLine, max_bytes};
  }
  static Splitter Frame();
  static Splitter Http() { return {Kind::kHttp, 16u << 10}; }
};

class ConnServer;
struct ServerListener;  // conn_server.cc

/// One accepted or dialed connection. Only `context` is the handler's;
/// every other field belongs to the server.
class ServerConn {
 public:
  /// Per-connection state of the handler (e.g. a client session). The
  /// server never reads it; set it from the handler on the loop thread.
  std::shared_ptr<void> context;

  /// Bytes handed to Reply/Send that the socket has not taken yet.
  size_t unsent();
  /// False once the connection is closed or closing.
  bool open();

 private:
  friend class ConnServer;

  uint64_t id = 0;
  std::shared_ptr<ServerListener> listener;
  bool dialed = false;  ///< Adopt()ed: closes at once, closing runs the tick
  // Loop thread only.
  std::string in;
  bool write_shut = false;  ///< lingering close: FIN sent, input dropped

  std::mutex mu;  ///< guards the fields below
  int fd = -1;    ///< -1 once closed
  uint32_t events = 0;  ///< epoll interest
  std::string out;
  size_t out_off = 0;
  bool in_flight = false;
  bool input_waiting = false;  ///< unsplit input while a message was out
  bool peer_eof = false;
  bool close_after_flush = false;
};

using ConnPtr = std::shared_ptr<ServerConn>;

class ConnServer {
 public:
  /// Runs on the loop thread with one complete message. Must lead to
  /// exactly one Reply() for `conn`, from any thread, now or later.
  using Handler = std::function<void(const ConnPtr& conn, std::string msg)>;

  struct Options {
    /// Period of `on_tick`, run on the loop thread (0 = only when
    /// ScheduleTick or a dialed connection's close asks for it).
    uint64_t tick_ms = 0;
    std::function<void()> on_tick;
  };

  ConnServer();
  explicit ConnServer(Options options);
  ~ConnServer();  ///< Stop()

  ConnServer(const ConnServer&) = delete;
  ConnServer& operator=(const ConnServer&) = delete;

  /// Binds `port` (0 picks an ephemeral port) on `host`, an IPv4 address;
  /// anything else binds every interface. Returns the bound port. Call
  /// before Start().
  StatusOr<uint16_t> Listen(uint16_t port, Splitter splitter, Handler handler,
                            const std::string& host = "0.0.0.0");

  /// Serves `fd`, a socket whose non-blocking connect may still be in
  /// progress (see StartConnect); a failed connect closes it. Its input
  /// goes through `splitter` to `handler` like an accepted connection's.
  /// A dialed connection closes without lingering, and its close makes
  /// the tick due at once. Loop thread, or before Start().
  ConnPtr Adopt(int fd, Splitter splitter, Handler handler);

  /// Makes the tick due within `delay_ms` (an earlier due time stands).
  /// Loop thread, or before Start().
  void ScheduleTick(uint64_t delay_ms);

  /// Starts the loop thread.
  void Start() { thread_ = std::thread([this] { Run(); }); }

  /// Answers the message in flight on `conn` with `bytes` (sent as is),
  /// then closes the connection once they are out if `close`. Safe from
  /// any thread; a no-op if the connection is already gone.
  void Reply(const ConnPtr& conn, std::string_view bytes, bool close = false);

  /// Appends `bytes` to the connection's output and writes through, like
  /// Reply but with no message in flight to answer. Safe from any
  /// thread; dropped if the connection is gone.
  void Send(const ConnPtr& conn, std::string_view bytes);

  /// Stops accepting: closes every listener. Open connections keep
  /// being served. Idempotent; safe from any thread.
  void BeginDrain();
  /// After BeginDrain: waits until no connection has a message in flight
  /// or unsent reply bytes. False if `timeout_ms` passed first.
  bool WaitDrained(uint64_t timeout_ms);

  /// Stops the loop and closes every socket; a later Reply is dropped.
  /// Idempotent.
  void Stop();

 private:
  enum class Split { kNeedMore, kMessage, kOverflow };

  void Run();
  void Accept(const std::shared_ptr<ServerListener>& listener);
  /// Reply/Send after the lock: appends, writes through, and asks the
  /// loop for what is left to do. c->mu held.
  void WriteLocked(ServerConn* c, std::string_view bytes, bool close);
  void ReadInput(ServerConn* c);
  /// Flushes, dispatches buffered messages one at a time, closes a
  /// finished connection and sets its epoll interest. Loop thread.
  void Service(const ConnPtr& c);
  static Split SplitMessage(const Splitter& splitter, std::string* in,
                            std::string* msg);
  /// Writes as much of c->out as the socket takes; false (and c->out
  /// dropped) if the connection broke.
  static bool FlushLocked(ServerConn* c);
  void CloseLocked(ServerConn* c);
  void SetInterest(ServerConn* c, uint32_t events);  ///< c->mu held
  void Poke();  ///< wakes the loop through the eventfd
  /// While draining: closes the listeners and signals WaitDrained when
  /// nothing is in flight. Loop thread.
  void CheckDrained();

  const Options options_;
  int epfd_ = -1;
  int wake_fd_ = -1;  ///< eventfd
  std::vector<std::shared_ptr<ServerListener>> listeners_;
  std::unordered_map<uint64_t, ConnPtr> conns_;  ///< loop thread only
  uint64_t next_conn_id_ = 0;
  uint64_t next_tick_ms_ = 0;  ///< 0 = none due; loop thread only

  std::atomic<bool> stop_{false};
  std::atomic<bool> draining_{false};
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  bool drained_ = false;

  std::thread thread_;
};

/// Serves `registry` as Prometheus text over plain HTTP on `port`: each
/// request gets one 200 with the current rendering, then the connection
/// closes. Enough for `curl` and a Prometheus scrape config. Returns the
/// bound port; call before server->Start().
StatusOr<uint16_t> ServeMetricsHttp(ConnServer* server, uint16_t port,
                                    const obs::MetricsRegistry* registry);

}  // namespace tardis

#endif  // TARDIS_NET_CONN_SERVER_H_
