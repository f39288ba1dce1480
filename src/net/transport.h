// Transport: the message boundary between replicated sites.
//
// The Replicator (§6.4) is written against this interface only, so the
// same replication logic runs over the in-process SimNetwork fabric
// (tests, benchmarks, deterministic fault injection) and over real TCP
// sockets (the tardisd site daemon). Messages are passed by value and
// moved through the fabric — a broadcast of a large commit record never
// deep-copies the write set once per peer.
//
// Addressing follows the paper's deployment: sites are a fixed, fully
// meshed set identified by dense ids [0, num_sites). A transport either
// spans every site (SimNetwork) or represents one site's endpoint into
// the mesh (TcpTransport); in both cases Send/Receive take explicit site
// ids so the Replicator code is identical.

#ifndef TARDIS_NET_TRANSPORT_H_
#define TARDIS_NET_TRANSPORT_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "replication/message.h"

namespace tardis {

class Transport {
 public:
  virtual ~Transport() { UnbindMetrics(); }

  /// Number of sites in the mesh (including this one, for endpoint
  /// transports). The pessimistic-GC consent round sizes its quorum
  /// (num_sites - 1 acks) from this.
  virtual size_t num_sites() const = 0;

  /// Ships `msg` from site `from` to site `to`. Never fails from the
  /// caller's point of view: undeliverable messages (partitioned link,
  /// dead peer, unknown destination, self-send) are counted as dropped.
  virtual void Send(uint32_t from, uint32_t to, ReplMessage msg) = 0;

  /// Ships `msg` to every other site. Implementations avoid per-peer
  /// deep copies (SimNetwork moves into the final link; TcpTransport
  /// serializes once and fans out the bytes).
  virtual void Broadcast(uint32_t from, ReplMessage msg) = 0;

  /// Pops the next inbound message addressed to `site`. Returns false if
  /// nothing is ready. Non-blocking.
  virtual bool Receive(uint32_t site, ReplMessage* msg) = 0;

  /// Blocks until Receive(site) may succeed, Interrupt(site), shutdown,
  /// or `timeout`; may return early, never late. The Replicator pump
  /// sleeps here between messages and ticks.
  virtual void WaitReceive(uint32_t site,
                           std::chrono::microseconds timeout) = 0;
  /// Ends the current (or the next) WaitReceive(site) at once.
  virtual void Interrupt(uint32_t site) = 0;

  /// True if any message is queued anywhere (in flight, undelivered, or
  /// buffered for write). Used by quiescence checks in tests.
  virtual bool HasInflight() const = 0;

  // ---- fault injection ----------------------------------------------------
  // Cuts/restores the (bidirectional) link between sites a and b.
  // SimNetwork drops at the link; TcpTransport suppresses traffic to and
  // from the named peer at this endpoint. Default: no faults supported.
  virtual void Partition(uint32_t a, uint32_t b) {}
  virtual void Heal(uint32_t a, uint32_t b) {}
  virtual void HealAll() {}

  // ---- stats --------------------------------------------------------------
  uint64_t messages_sent() const {
    return sent_.load(std::memory_order_relaxed);
  }
  uint64_t messages_delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }
  uint64_t messages_dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Exports the transport's counters into `registry` as callback-backed
  /// metrics labeled with `site_id`. The registry must outlive the
  /// transport (the destructor unregisters). Derived transports extend
  /// this with their own counters.
  virtual void BindMetrics(obs::MetricsRegistry* registry, uint32_t site_id) {
    UnbindMetrics();
    bound_registry_ = registry;
    const obs::LabelSet site{{"site", std::to_string(site_id)}};
    registry->RegisterCallbackCounter(
        "tardis_net_sent_total", "Messages handed to the transport",
        [this] { return messages_sent(); }, site, this);
    registry->RegisterCallbackCounter(
        "tardis_net_delivered_total", "Messages delivered to a receiver",
        [this] { return messages_delivered(); }, site, this);
    registry->RegisterCallbackCounter(
        "tardis_net_dropped_total",
        "Messages the transport refused (peer not connected, link "
        "partitioned, backlog full); messages lost with a connection that "
        "dies are not counted",
        [this] { return messages_dropped(); }, site, this);
  }

 protected:
  void UnbindMetrics() {
    if (bound_registry_ != nullptr) {
      bound_registry_->DropCallbacks(this);
      bound_registry_ = nullptr;
    }
  }

  std::atomic<uint64_t> sent_{0};
  std::atomic<uint64_t> delivered_{0};
  std::atomic<uint64_t> dropped_{0};
  obs::MetricsRegistry* bound_registry_ = nullptr;
};

}  // namespace tardis

#endif  // TARDIS_NET_TRANSPORT_H_
