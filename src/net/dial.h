// Dial: the one outbound TCP connect of the process. TcpTransport's peer
// dials, FramedClient (router -> coordination port) and TardisClient
// (client -> tardisd) all start their connections here.

#ifndef TARDIS_NET_DIAL_H_
#define TARDIS_NET_DIAL_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace tardis {

/// Resolves `host` (IPv4), creates a close-on-exec, non-blocking,
/// TCP_NODELAY socket and starts connecting it to `port`. Returns the
/// socket; the connect may still be in progress (it becomes writable when
/// done, see AwaitConnect). IOError if the name does not resolve or the
/// connect fails at once.
StatusOr<int> StartConnect(const std::string& host, uint16_t port);

/// Waits up to `timeout_ms` for a connect begun by StartConnect to finish.
/// IOError on timeout or a failed connect; the caller closes `fd`.
Status AwaitConnect(int fd, uint64_t timeout_ms);

}  // namespace tardis

#endif  // TARDIS_NET_DIAL_H_
