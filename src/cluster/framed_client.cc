#include "cluster/framed_client.h"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cstdlib>

#include "net/dial.h"
#include "net/wire.h"
#include "util/clock.h"

namespace tardis {
namespace cluster {

namespace {

int64_t RemainingMs(uint64_t deadline_ms) {
  const uint64_t now = NowMillis();
  return now >= deadline_ms ? 0 : static_cast<int64_t>(deadline_ms - now);
}

/// Polls fd for `events` until the deadline. OK when ready; Unavailable
/// on deadline; IOError on poll failure or socket error/hangup.
Status WaitReady(int fd, short events, uint64_t deadline_ms) {
  for (;;) {
    const int64_t remain = RemainingMs(deadline_ms);
    if (remain <= 0) return Status::Unavailable("deadline");
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    const int n = poll(&pfd, 1, static_cast<int>(remain));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("poll: " + std::string(strerror(errno)));
    }
    if (n == 0) continue;  // loop re-checks the deadline
    if (pfd.revents & (POLLERR | POLLNVAL)) {
      return Status::IOError("socket error");
    }
    // POLLHUP with POLLIN still allows draining buffered bytes.
    if ((pfd.revents & POLLHUP) && !(pfd.revents & POLLIN)) {
      return Status::IOError("connection closed");
    }
    return Status::OK();
  }
}

}  // namespace

Status ParseEndpoint(const std::string& endpoint, std::string* host,
                     uint16_t* port) {
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == endpoint.size()) {
    return Status::InvalidArgument("endpoint must be host:port, got \"" +
                                   endpoint + "\"");
  }
  if (!ParsePort(endpoint.substr(colon + 1), port)) {
    return Status::InvalidArgument("bad port in endpoint \"" + endpoint +
                                   "\"");
  }
  *host = endpoint.substr(0, colon);
  return Status::OK();
}

bool ParsePort(const std::string& text, uint16_t* port, bool allow_zero) {
  char* end = nullptr;
  const unsigned long p = strtoul(text.c_str(), &end, 10);
  if (text.empty() || !isdigit(static_cast<unsigned char>(text[0])) ||
      *end != '\0' || (p == 0 && !allow_zero) || p > 65535) {
    return false;
  }
  *port = static_cast<uint16_t>(p);
  return true;
}

FramedClient::~FramedClient() { Close(); }

void FramedClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  recvbuf_.clear();
}

Status FramedClient::Connect(const std::string& endpoint,
                             uint64_t timeout_ms) {
  Close();
  std::string host;
  uint16_t port = 0;
  Status s = ParseEndpoint(endpoint, &host, &port);
  if (!s.ok()) return s;

  auto fd = StartConnect(host, port);
  if (!fd.ok()) return fd.status();
  s = AwaitConnect(*fd, timeout_ms);
  if (!s.ok()) {
    ::close(*fd);
    return s;
  }
  fd_ = *fd;
  endpoint_ = endpoint;
  return Status::OK();
}

Status FramedClient::Call(const ReplMessage& req, ReplMessage* resp,
                          uint64_t timeout_ms) {
  if (fd_ < 0) return Status::IOError("not connected");
  const uint64_t deadline_ms = NowMillis() + timeout_ms;

  std::string frame;
  EncodeFrame(req, &frame);
  // Send first; wait for POLLOUT only once the socket buffer is full.
  size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n =
        send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n >= 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    const Status s =
        errno == EAGAIN || errno == EWOULDBLOCK
            ? WaitReady(fd_, POLLOUT, deadline_ms)
            : Status::IOError("send: " + std::string(strerror(errno)));
    if (!s.ok()) {
      Close();
      return s;
    }
  }

  for (;;) {
    size_t consumed = 0;
    Status s = DecodeFrame(Slice(recvbuf_), resp, &consumed);
    if (!s.ok()) {
      Close();
      return s;
    }
    if (consumed > 0) {
      recvbuf_.erase(0, consumed);
      return Status::OK();
    }
    s = WaitReady(fd_, POLLIN, deadline_ms);
    if (!s.ok()) {
      Close();
      return s;
    }
    char buf[4096];
    const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      Close();
      return Status::IOError("recv: " + std::string(strerror(errno)));
    }
    if (n == 0) {
      Close();
      return Status::IOError("connection closed by peer");
    }
    recvbuf_.append(buf, static_cast<size_t>(n));
  }
}

Status FramedClient::CallOnce(const std::string& endpoint,
                              const ReplMessage& req, ReplMessage* resp,
                              uint64_t timeout_ms) {
  FramedClient client;
  const uint64_t start = NowMillis();
  Status s = client.Connect(endpoint, timeout_ms);
  if (!s.ok()) return s;
  const uint64_t elapsed = NowMillis() - start;
  const uint64_t remain = elapsed >= timeout_ms ? 1 : timeout_ms - elapsed;
  return client.Call(req, resp, remain);
}

}  // namespace cluster
}  // namespace tardis
