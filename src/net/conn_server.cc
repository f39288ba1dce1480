#include "net/conn_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>

#include "fault/fault_points.h"
#include "fault/fault_registry.h"
#include "net/wire.h"
#include "obs/exposition.h"
#include "util/clock.h"
#include "util/coding.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace tardis {

struct ServerListener {
  int fd = -1;
  Splitter splitter;
  ConnServer::Handler handler;
};

namespace {

// epoll data.u64: the wakeup eventfd, then listeners by index + 1, then
// connections by id. Connection ids are never reused, so an event that
// was queued for a connection closed earlier in the same batch finds no
// entry instead of a newer connection on the recycled fd.
constexpr uint64_t kWakeId = 0;
constexpr uint64_t kFirstConnId = uint64_t{1} << 32;

/// The server whose loop runs on this thread: a Reply from its own
/// handler needs no wakeup, the loop services the connection next.
thread_local const ConnServer* t_loop = nullptr;

/// Past this, a drained output buffer gives its memory back.
constexpr size_t kKeepOutCapacity = 1u << 20;

void EpollCtl(int epfd, int op, int fd, uint64_t id, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = id;
  epoll_ctl(epfd, op, fd, &ev);
}

}  // namespace

Splitter Splitter::Frame() {
  return {Kind::kFrame, kWireHeaderBytes + kMaxWirePayload};
}

ConnServer::ConnServer() : ConnServer(Options{}) {}

ConnServer::ConnServer(Options options) : options_(std::move(options)) {
  if (options_.tick_ms > 0) next_tick_ms_ = NowMillis() + options_.tick_ms;
  epfd_ = epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  EpollCtl(epfd_, EPOLL_CTL_ADD, wake_fd_, kWakeId, EPOLLIN);
}

ConnServer::~ConnServer() {
  Stop();
  ::close(wake_fd_);
  ::close(epfd_);
}

StatusOr<uint16_t> ConnServer::Listen(uint16_t port, Splitter splitter,
                                      Handler handler,
                                      const std::string& host) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0 || epfd_ < 0 || wake_fd_ < 0) {
    if (fd >= 0) ::close(fd);
    return Status::IOError("socket/epoll: " + std::string(strerror(errno)));
  }
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    addr.sin_addr.s_addr = INADDR_ANY;
  }
  addr.sin_port = htons(port);
  socklen_t len = sizeof(addr);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(fd, 128) != 0 ||
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    Status s = Status::IOError("port " + std::to_string(port) + ": " +
                               strerror(errno));
    ::close(fd);
    return s;
  }
  auto listener = std::make_shared<ServerListener>();
  listener->fd = fd;
  listener->splitter = splitter;
  listener->handler = std::move(handler);
  listeners_.push_back(std::move(listener));
  EpollCtl(epfd_, EPOLL_CTL_ADD, fd, listeners_.size(), EPOLLIN);
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

ConnPtr ConnServer::Adopt(int fd, Splitter splitter, Handler handler) {
  auto c = std::make_shared<ServerConn>();
  c->id = kFirstConnId + next_conn_id_++;
  c->listener = std::make_shared<ServerListener>();
  c->listener->splitter = splitter;
  c->listener->handler = std::move(handler);
  c->dialed = true;
  c->fd = fd;
  // Writable once the connect completes; Service then flushes what was
  // sent meanwhile and settles the interest.
  c->events = EPOLLIN | EPOLLOUT;
  EpollCtl(epfd_, EPOLL_CTL_ADD, fd, c->id, c->events);
  conns_.emplace(c->id, c);
  return c;
}

void ConnServer::ScheduleTick(uint64_t delay_ms) {
  const uint64_t at = NowMillis() + delay_ms;
  if (next_tick_ms_ == 0 || at < next_tick_ms_) next_tick_ms_ = at;
}

size_t ServerConn::unsent() {
  std::lock_guard<std::mutex> guard(mu);
  return out.size() - out_off;
}

bool ServerConn::open() {
  std::lock_guard<std::mutex> guard(mu);
  return fd >= 0 && !close_after_flush;
}

void ConnServer::Stop() {
  if (stop_.exchange(true)) return;
  Poke();
  if (thread_.joinable()) thread_.join();
  for (auto& [id, c] : conns_) {
    std::lock_guard<std::mutex> guard(c->mu);
    ::close(c->fd);
    c->fd = -1;
  }
  conns_.clear();
  for (auto& l : listeners_) {
    if (l->fd >= 0) ::close(l->fd);
    l->fd = -1;
  }
}

void ConnServer::BeginDrain() {
  if (!draining_.exchange(true)) Poke();
}

bool ConnServer::WaitDrained(uint64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(drain_mu_);
  return drain_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                            [this] { return drained_; });
}

void ConnServer::Reply(const ConnPtr& conn, std::string_view bytes,
                       bool close) {
  ServerConn* c = conn.get();
  std::lock_guard<std::mutex> guard(c->mu);
  c->in_flight = false;
  if (c->fd < 0) return;
  WriteLocked(c, bytes, close);
  if (t_loop == this) return;
  // The loop also has work if a pipelined message waits, the peer has
  // closed, or a drain is on.
  if (c->peer_eof || c->input_waiting || draining_.load()) {
    SetInterest(c, c->events | EPOLLOUT);
  }
}

void ConnServer::Send(const ConnPtr& conn, std::string_view bytes) {
  ServerConn* c = conn.get();
  std::lock_guard<std::mutex> guard(c->mu);
  if (c->fd >= 0) WriteLocked(c, bytes, false);
}

void ConnServer::WriteLocked(ServerConn* c, std::string_view bytes,
                             bool close) {
  c->out.append(bytes);
  if (!FlushLocked(c) || close) c->close_after_flush = true;
  // Unsent bytes or a close leave the loop work. Asking epoll for
  // writability wakes it for this connection (at once if the socket has
  // room) without a queue.
  if (c->out_off < c->out.size() || c->close_after_flush) {
    SetInterest(c, c->events | EPOLLOUT);
  }
}

void ConnServer::Poke() {
  const uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof(one));
}

bool ConnServer::FlushLocked(ServerConn* c) {
  while (c->out_off < c->out.size()) {
    size_t want = c->out.size() - c->out_off;
    if (fault::FaultsArmed()) {
      // A "net.tcp.send" kLimitWrite spec caps the bytes one send() may
      // move, forcing the partial-write resume path.
      want = fault::FaultRegistry::Global().WriteCap("net.tcp.send", want);
    }
    const ssize_t n =
        ::send(c->fd, c->out.data() + c->out_off, want, MSG_NOSIGNAL);
    if (n > 0) {
      c->out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    c->out.clear();  // broken: nothing more can be delivered
    c->out_off = 0;
    return false;
  }
  c->out_off = 0;
  if (c->out.capacity() > kKeepOutCapacity) {
    std::string().swap(c->out);
  } else {
    c->out.clear();
  }
  return true;
}

void ConnServer::CloseLocked(ServerConn* c) {
  ::close(c->fd);  // also drops it from the epoll set
  c->fd = -1;
  c->out.clear();
  conns_.erase(c->id);
  if (c->dialed) ScheduleTick(0);
}

void ConnServer::SetInterest(ServerConn* c, uint32_t events) {
  if (c->events == events) return;
  EpollCtl(epfd_, EPOLL_CTL_MOD, c->fd, c->id, events);
  c->events = events;
}

void ConnServer::Run() {
  t_loop = this;
  epoll_event events[64];
  while (!stop_.load()) {
    int timeout = -1;
    if (next_tick_ms_ != 0) {
      const uint64_t now = NowMillis();
      timeout =
          next_tick_ms_ > now ? static_cast<int>(next_tick_ms_ - now) : 0;
    }
    const int n = epoll_wait(epfd_, events, 64, timeout);
    if (n < 0 && errno != EINTR) {
      TARDIS_WARN("conn server: epoll_wait: %s", strerror(errno));
    }
    for (int i = 0; i < n; i++) {
      const uint64_t id = events[i].data.u64;
      if (id == kWakeId) {
        uint64_t count;
        (void)!::read(wake_fd_, &count, sizeof(count));
      } else if (id <= listeners_.size()) {
        Accept(listeners_[id - 1]);
      } else {
        auto it = conns_.find(id);
        if (it == conns_.end()) continue;
        const ConnPtr c = it->second;
        if (events[i].events & (EPOLLERR | EPOLLHUP)) {
          // Reset or fully shut down: nothing more can be delivered. A
          // reply still being computed is dropped when it arrives.
          std::lock_guard<std::mutex> guard(c->mu);
          CloseLocked(c.get());
          continue;
        }
        if (events[i].events & EPOLLIN) ReadInput(c.get());
        Service(c);
      }
    }
    if (draining_.load()) CheckDrained();
    if (next_tick_ms_ != 0 && NowMillis() >= next_tick_ms_) {
      next_tick_ms_ =
          options_.tick_ms > 0 ? NowMillis() + options_.tick_ms : 0;
      if (options_.on_tick) options_.on_tick();
    }
  }
  t_loop = nullptr;
}

void ConnServer::Accept(const std::shared_ptr<ServerListener>& listener) {
  while (listener->fd >= 0) {
    const int fd = accept4(listener->fd, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto c = std::make_shared<ServerConn>();
    c->id = kFirstConnId + next_conn_id_++;
    c->listener = listener;
    c->fd = fd;
    c->events = EPOLLIN;
    EpollCtl(epfd_, EPOLL_CTL_ADD, fd, c->id, EPOLLIN);
    conns_.emplace(c->id, std::move(c));
  }
}

void ConnServer::ReadInput(ServerConn* c) {
  // Only the loop closes a connection's fd, so it is stable here.
  const size_t cap = c->listener->splitter.max_bytes;
  char buf[64 << 10];
  while (c->in.size() < cap) {
    const size_t want = std::min(sizeof(buf), cap - c->in.size());
    const ssize_t n = ::read(c->fd, buf, want);
    if (n > 0) {
      if (!c->write_shut) c->in.append(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < want) return;  // socket drained
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else {  // EOF or error: nothing more will arrive
      std::lock_guard<std::mutex> guard(c->mu);
      c->peer_eof = true;
      return;
    }
  }
}

ConnServer::Split ConnServer::SplitMessage(const Splitter& splitter,
                                           std::string* in,
                                           std::string* msg) {
  switch (splitter.kind) {
    case Splitter::Kind::kLine:
      while (true) {
        const size_t nl = in->find('\n');
        if (nl == std::string::npos) {
          return in->size() >= splitter.max_bytes ? Split::kOverflow
                                                  : Split::kNeedMore;
        }
        if (nl >= splitter.max_bytes) return Split::kOverflow;
        size_t len = nl;
        if (len > 0 && (*in)[len - 1] == '\r') len--;
        msg->assign(*in, 0, len);
        in->erase(0, nl + 1);
        if (!msg->empty()) return Split::kMessage;
      }
    case Splitter::Kind::kFrame: {
      if (in->size() < kWireHeaderBytes) return Split::kNeedMore;
      const uint32_t len = DecodeFixed32(in->data());
      if (len > splitter.max_bytes - kWireHeaderBytes) return Split::kOverflow;
      if (in->size() < kWireHeaderBytes + len) return Split::kNeedMore;
      const char* payload = in->data() + kWireHeaderBytes;
      if (Crc32c(payload, len) != UnmaskCrc(DecodeFixed32(in->data() + 4))) {
        return Split::kOverflow;  // corrupt: close like an oversized frame
      }
      msg->assign(payload, len);
      in->erase(0, kWireHeaderBytes + len);
      return Split::kMessage;
    }
    case Splitter::Kind::kHttp: {
      const size_t end = in->find("\r\n\r\n");
      if (end == std::string::npos) {
        return in->size() >= splitter.max_bytes ? Split::kOverflow
                                                : Split::kNeedMore;
      }
      msg->assign(*in, 0, end + 4);
      in->erase(0, end + 4);
      return Split::kMessage;
    }
  }
  return Split::kOverflow;
}

void ConnServer::Service(const ConnPtr& conn) {
  ServerConn* c = conn.get();
  const Splitter& splitter = c->listener->splitter;
  while (true) {
    std::string msg;
    {
      std::lock_guard<std::mutex> guard(c->mu);
      if (c->fd < 0) return;
      if (!FlushLocked(c)) {
        CloseLocked(c);
        return;
      }
      bool dispatch = false;
      // Backpressure: a peer that does not read its replies stops getting
      // new messages dispatched until they flush below the cap.
      if (!c->in_flight && !c->close_after_flush &&
          c->out.size() - c->out_off < splitter.max_bytes) {
        switch (SplitMessage(splitter, &c->in, &msg)) {
          case Split::kMessage:
            dispatch = true;
            c->in_flight = true;
            break;
          case Split::kOverflow:
            if (splitter.kind == Splitter::Kind::kLine) {
              c->out += "ERR line too long\n";
              FlushLocked(c);
            }
            c->close_after_flush = true;
            break;
          case Split::kNeedMore:
            if (c->peer_eof) c->close_after_flush = true;
            break;
        }
      }
      if (!dispatch) {
        const bool out_pending = c->out_off < c->out.size();
        if (!c->in_flight && c->close_after_flush && !out_pending) {
          if (c->peer_eof || c->dialed) {
            CloseLocked(c);
            return;
          }
          // Lingering close: send FIN after the last reply, then read and
          // drop input until the peer closes. Closing with unread input
          // would send a reset that can destroy the reply in flight.
          if (!c->write_shut) ::shutdown(c->fd, SHUT_WR);
          c->write_shut = true;
          c->in.clear();
          SetInterest(c, EPOLLIN);
          return;
        }
        c->input_waiting = !c->in.empty();
        uint32_t want = out_pending ? uint32_t{EPOLLOUT} : 0;
        if (!c->peer_eof && !c->close_after_flush &&
            c->in.size() < splitter.max_bytes) {
          want |= EPOLLIN;
        }
        SetInterest(c, want);
        return;
      }
    }
    c->listener->handler(conn, std::move(msg));
  }
}

void ConnServer::CheckDrained() {
  for (auto& l : listeners_) {
    if (l->fd >= 0) ::close(l->fd);
    l->fd = -1;
  }
  for (auto& [id, c] : conns_) {
    std::lock_guard<std::mutex> guard(c->mu);
    if (c->in_flight || c->out_off < c->out.size()) return;
  }
  {
    std::lock_guard<std::mutex> guard(drain_mu_);
    drained_ = true;
  }
  drain_cv_.notify_all();
}

StatusOr<uint16_t> ServeMetricsHttp(ConnServer* server, uint16_t port,
                                    const obs::MetricsRegistry* registry) {
  return server->Listen(
      port, Splitter::Http(),
      [server, registry](const ConnPtr& conn, std::string /*request*/) {
        const std::string body = obs::RenderPrometheus(registry->Collect());
        server->Reply(conn,
                      "HTTP/1.0 200 OK\r\n"
                      "Content-Type: text/plain; version=0.0.4; "
                      "charset=utf-8\r\n"
                      "Content-Length: " +
                          std::to_string(body.size()) + "\r\n\r\n" + body,
                      /*close=*/true);
      });
}

}  // namespace tardis
