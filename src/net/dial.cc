#include "net/dial.h"

#include <errno.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/clock.h"

namespace tardis {

StatusOr<int> StartConnect(const std::string& host, uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(port);
  if (getaddrinfo(host.c_str(), port_str.c_str(), &hints, &res) != 0 ||
      res == nullptr) {
    return Status::IOError("cannot resolve " + host);
  }
  const int fd = socket(res->ai_family,
                        SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    freeaddrinfo(res);
    return Status::IOError("socket: " + std::string(strerror(errno)));
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int rc = connect(fd, res->ai_addr, res->ai_addrlen);
  freeaddrinfo(res);
  if (rc != 0 && errno != EINPROGRESS) {
    Status s = Status::IOError("connect " + host + ":" + port_str + ": " +
                               strerror(errno));
    ::close(fd);
    return s;
  }
  return fd;
}

Status AwaitConnect(int fd, uint64_t timeout_ms) {
  const uint64_t deadline = NowMillis() + timeout_ms;
  pollfd pfd{fd, POLLOUT, 0};
  int rc;
  do {
    const uint64_t now = NowMillis();
    rc = poll(&pfd, 1, now >= deadline ? 0 : static_cast<int>(deadline - now));
  } while (rc < 0 && errno == EINTR);
  int err = 0;
  socklen_t len = sizeof(err);
  if (rc <= 0) return Status::IOError("connect: timeout");
  if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) err = errno;
  if (err != 0) return Status::IOError("connect: " + std::string(strerror(err)));
  return Status::OK();
}

}  // namespace tardis
