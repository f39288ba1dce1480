// tardis-router: the stateless front-end of a partitioned TARDiS cluster
// (src/cluster/, DESIGN.md §10). Clients connect with the same line
// protocol tardisd speaks; the router hashes each key through the
// cluster's PartitionMap and forwards commands to the owning partition's
// coordination port — single-partition work on the fast path, multi-
// partition writes through fork-on-conflict 2PC.
//
// Usage:
//   tardis-router --port=P --partitions=host:port,host:port,...
//                 [--splits=S1,S2,...] [--metrics-port=P]
//                 [--call-timeout-ms=MS] [--txn-deadline-ms=MS]
//                 [--trace-sample=N] [--help]
//
// --partitions lists one coordination endpoint per partition, indexed by
// partition id (each endpoint is a tardisd started with --coord-port).
// Without --splits the hash ring is divided uniformly; with it, the
// N-1 comma-separated split points define the N ranges explicitly.
//
// The router keeps no durable state: kill it at any moment and restart
// it (or a replacement) on the same flags — in-flight 2PC transactions
// are finished by the participants' cooperative termination, and no
// acknowledged write is lost (asserted by the grid e2e).

#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/router.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tardis {
namespace {

struct RouterConfig {
  uint16_t port = 0;
  uint16_t metrics_port = 0;
  std::vector<std::string> partitions;  // coord endpoints by partition id
  std::vector<uint64_t> splits;
  uint64_t call_timeout_ms = 2000;
  uint64_t txn_deadline_ms = 4000;
  /// Head-based sampling: every Nth client request without its own trace
  /// header starts a new sampled trace (0 = off).
  uint64_t trace_sample = 0;
  bool help = false;
};

bool ParseFlags(int argc, char** argv, RouterConfig* config) {
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const size_t n = strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--port=")) {
      config->port = static_cast<uint16_t>(atoi(v));
    } else if (const char* v = value("--metrics-port=")) {
      config->metrics_port = static_cast<uint16_t>(atoi(v));
    } else if (const char* v = value("--partitions=")) {
      std::stringstream ss(v);
      std::string entry;
      while (std::getline(ss, entry, ',')) config->partitions.push_back(entry);
    } else if (const char* v = value("--splits=")) {
      std::stringstream ss(v);
      std::string entry;
      while (std::getline(ss, entry, ',')) {
        config->splits.push_back(strtoull(entry.c_str(), nullptr, 10));
      }
    } else if (const char* v = value("--call-timeout-ms=")) {
      config->call_timeout_ms = static_cast<uint64_t>(atoll(v));
    } else if (const char* v = value("--txn-deadline-ms=")) {
      config->txn_deadline_ms = static_cast<uint64_t>(atoll(v));
    } else if (const char* v = value("--trace-sample=")) {
      config->trace_sample = static_cast<uint64_t>(atoll(v));
    } else if (arg == "--help" || arg == "-h") {
      config->help = true;
      return false;
    } else {
      fprintf(stderr, "tardis-router: unknown flag %s\n", arg.c_str());
      return false;
    }
  }
  return config->port != 0 && !config->partitions.empty();
}

int RunRouter(const RouterConfig& config) {
  // Label this process's rows in a stitched cross-process Chrome trace.
  obs::Tracer::Get().SetProcessLabel("tardis-router");
  obs::MetricsRegistry registry;

  cluster::PartitionMap map = cluster::PartitionMap::Uniform(
      static_cast<uint32_t>(config.partitions.size()));
  if (!config.splits.empty()) {
    auto custom = cluster::PartitionMap::FromSplitPoints(config.splits);
    if (!custom.ok()) {
      fprintf(stderr, "tardis-router: --splits: %s\n",
              custom.status().ToString().c_str());
      return 1;
    }
    if (custom->partition_count() != config.partitions.size()) {
      fprintf(stderr,
              "tardis-router: %zu split points define %u partitions but "
              "--partitions names %zu endpoints\n",
              config.splits.size(), custom->partition_count(),
              config.partitions.size());
      return 1;
    }
    map = std::move(*custom);
  }

  cluster::RouterOptions router_options;
  router_options.coord_endpoints = config.partitions;
  router_options.call_timeout_ms = config.call_timeout_ms;
  router_options.txn_deadline_ms = config.txn_deadline_ms;
  router_options.trace_sample = config.trace_sample;
  cluster::Router router(std::move(map), std::move(router_options),
                         &registry);

  std::unique_ptr<obs::MetricsHttpExporter> metrics_http;
  if (config.metrics_port != 0) {
    metrics_http = std::make_unique<obs::MetricsHttpExporter>(
        config.metrics_port, &registry, "tardis-router");
    if (!metrics_http->serving()) return 1;
  }

  const int server_fd = socket(AF_INET, SOCK_STREAM, 0);
  int one = 1;
  setsockopt(server_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = INADDR_ANY;
  addr.sin_port = htons(config.port);
  if (bind(server_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(server_fd, 64) != 0) {
    fprintf(stderr, "tardis-router: port %u: %s\n", config.port,
            strerror(errno));
    return 1;
  }
  signal(SIGPIPE, SIG_IGN);

  printf("tardis-router: serving %zu partition(s) on port %u%s\n",
         config.partitions.size(), config.port,
         config.metrics_port != 0 ? ", metrics via http" : "");
  fflush(stdout);

  // One thread per client connection; Router::Handle is not thread-safe
  // (it owns the per-partition connections), so a mutex serializes the
  // command handling. Coordination traffic is control-plane volume — the
  // data path is the partitions' own gossip.
  std::mutex handle_mu;
  while (true) {
    const int fd = accept(server_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;
    }
    std::thread([fd, &router, &handle_mu] {
      std::string inbuf;
      char chunk[65536];
      while (true) {
        size_t nl;
        while ((nl = inbuf.find('\n')) == std::string::npos) {
          const ssize_t n = read(fd, chunk, sizeof(chunk));
          if (n <= 0) {
            close(fd);
            return;
          }
          inbuf.append(chunk, static_cast<size_t>(n));
        }
        std::string line = inbuf.substr(0, nl);
        inbuf.erase(0, nl + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line.empty()) continue;
        bool close_conn = false;
        std::string reply;
        {
          std::lock_guard<std::mutex> lock(handle_mu);
          reply = router.Handle(line, &close_conn);
        }
        reply.push_back('\n');
        size_t off = 0;
        while (off < reply.size()) {
          const ssize_t n = write(fd, reply.data() + off, reply.size() - off);
          if (n <= 0) {
            close(fd);
            return;
          }
          off += static_cast<size_t>(n);
        }
        if (close_conn) {
          close(fd);
          return;
        }
      }
    }).detach();
  }
  close(server_fd);
  return 0;
}

}  // namespace
}  // namespace tardis

int main(int argc, char** argv) {
  tardis::RouterConfig config;
  if (!tardis::ParseFlags(argc, argv, &config)) {
    FILE* out = config.help ? stdout : stderr;
    fprintf(out,
            "usage: tardis-router --port=P --partitions=host:port,...\n"
            "                     [--splits=S1,S2,...] [--metrics-port=P]\n"
            "                     [--call-timeout-ms=MS]\n"
            "                     [--txn-deadline-ms=MS] [--trace-sample=N]\n"
            "                     [--help]\n"
            "--partitions names each partition's tardisd coordination\n"
            "endpoint (--coord-port), indexed by partition id; --splits\n"
            "optionally sets explicit hash-ring split points (N-1 values\n"
            "for N partitions; default uniform). --txn-deadline-ms must\n"
            "stay below every participant's --twopc-resolve-ms.\n"
            "--trace-sample samples every Nth request into the tracer once\n"
            "`trace start` has enabled it (0 = off).\n");
    return config.help ? 0 : 2;
  }
  return tardis::RunRouter(config);
}
