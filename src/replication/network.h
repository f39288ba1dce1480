// SimNetwork: the in-process Transport implementation — a message fabric
// between sites with per-link FIFO channels, configurable one-way
// latency/jitter, and fault injection (partitions, drops). Substitutes
// for the paper's WAN (Google Cloud, three zones) in tests and
// benchmarks: replication semantics — asynchronous, ordered per link —
// are preserved; latencies are injected rather than measured. The same
// Replicator runs unchanged over TcpTransport (net/tcp_transport.h) for
// real multi-process deployments.

#ifndef TARDIS_REPLICATION_NETWORK_H_
#define TARDIS_REPLICATION_NETWORK_H_

#include <condition_variable>
#include <deque>
#include <mutex>
#include <vector>

#include "net/transport.h"
#include "replication/message.h"
#include "util/clock.h"
#include "util/random.h"

namespace tardis {

struct NetworkOptions {
  uint64_t latency_us = 0;  ///< one-way link latency
  uint64_t jitter_us = 0;   ///< uniform extra delay in [0, jitter_us]
  uint64_t seed = 7;
};

class SimNetwork : public Transport {
 public:
  SimNetwork(size_t num_sites, NetworkOptions options = {});

  size_t num_sites() const override { return num_sites_; }

  /// Enqueues `msg` on the from->to link; delivery is delayed by the link
  /// latency. Messages to partitioned or identical sites are dropped.
  void Send(uint32_t from, uint32_t to, ReplMessage msg) override;

  /// Broadcast to every other site; the final link receives the message
  /// by move, the rest get copies (each link queue owns its message).
  void Broadcast(uint32_t from, ReplMessage msg) override;

  /// Pops the next due message addressed to `site` (FIFO per link).
  /// Returns false if nothing is due yet.
  bool Receive(uint32_t site, ReplMessage* msg) override;

  /// Sleeps until a message for `site` is due; a Send re-arms the wait.
  void WaitReceive(uint32_t site, std::chrono::microseconds timeout) override;
  void Interrupt(uint32_t site) override;

  /// True if any message (due or in flight) is queued anywhere.
  bool HasInflight() const override;

  // ---- fault injection ----------------------------------------------------
  void Partition(uint32_t a, uint32_t b) override;
  void Heal(uint32_t a, uint32_t b) override;
  void HealAll() override;

 private:
  struct InFlight {
    uint64_t deliver_at_us;
    ReplMessage msg;
  };
  struct Link {
    std::deque<InFlight> queue;
  };

  size_t LinkIndex(uint32_t from, uint32_t to) const {
    return from * num_sites_ + to;
  }

  const size_t num_sites_;
  NetworkOptions options_;
  mutable std::mutex mu_;
  std::vector<Link> links_;
  std::vector<bool> partitioned_;  // per link
  std::vector<std::condition_variable> arrivals_;  // per destination site
  std::vector<bool> interrupted_;                  // per destination site
  Random rng_;
};

}  // namespace tardis

#endif  // TARDIS_REPLICATION_NETWORK_H_
