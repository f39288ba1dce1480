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

#include <signal.h>
#include <string.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/framed_client.h"
#include "cluster/router.h"
#include "net/conn_server.h"
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

bool BadPort(const std::string& arg) {
  fprintf(stderr, "tardis-router: %s: want a port in 1..65535\n", arg.c_str());
  return false;
}

bool ParseFlags(int argc, char** argv, RouterConfig* config) {
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const size_t n = strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--port=")) {
      if (!cluster::ParsePort(v, &config->port)) return BadPort(arg);
    } else if (const char* v = value("--metrics-port=")) {
      if (!cluster::ParsePort(v, &config->metrics_port, /*allow_zero=*/true)) {
        return BadPort(arg);
      }
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
  // SIGTERM/SIGINT are taken by sigwait below; blocked before any thread
  // starts so that every thread inherits the mask.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGTERM);
  sigaddset(&stop_signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);
  signal(SIGPIPE, SIG_IGN);

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

  // Router::Handle is not thread-safe (it owns the per-partition
  // connections), so it runs inline on the server's one loop thread, one
  // request at a time. Coordination traffic is control-plane volume — the
  // data path is the partitions' own gossip.
  ConnServer server;
  auto port = server.Listen(
      config.port, Splitter::Line(),
      [&](const ConnPtr& conn, std::string line) {
        bool close_conn = false;
        std::string reply = router.Handle(line, &close_conn);
        reply.push_back('\n');
        server.Reply(conn, reply, close_conn);
      });
  Status listening = port.status();
  if (listening.ok() && config.metrics_port != 0) {
    listening =
        ServeMetricsHttp(&server, config.metrics_port, &registry).status();
  }
  if (!listening.ok()) {
    fprintf(stderr, "tardis-router: %s\n", listening.ToString().c_str());
    return 1;
  }
  server.Start();

  printf("tardis-router: serving %zu partition(s) on port %u%s\n",
         config.partitions.size(), config.port,
         config.metrics_port != 0 ? ", metrics via http" : "");
  fflush(stdout);

  int sig = 0;
  sigwait(&stop_signals, &sig);
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
