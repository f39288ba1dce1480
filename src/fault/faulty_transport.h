// FaultyTransport: a Transport decorator that injects seeded network
// faults — drop, duplicate, reorder (hold-back), delay — plus partition
// schedules, over any base transport (SimNetwork or TcpTransport).
//
// Determinism: every decision comes from a private xorshift PRNG seeded
// at construction, and "time" is not wall-clock but Receive polls — a
// held message carries a countdown decremented once per Receive(site)
// call and is released into the ready queue when it reaches zero. Under
// the single-threaded chaos driver (which pumps replicators one poll at
// a time) the same seed therefore yields the identical delivery
// schedule, byte for byte.
//
// SetLossless(true) turns the decorator into a passthrough (no drops,
// no dups, no new holds) while still draining already-held messages —
// the chaos driver flips this on for the healing phase so convergence
// is checked over a reliable network, as the paper's anti-entropy
// assumes fair-lossy links (every message retransmitted infinitely
// often eventually arrives).

#ifndef TARDIS_FAULT_FAULTY_TRANSPORT_H_
#define TARDIS_FAULT_FAULTY_TRANSPORT_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "net/transport.h"
#include "util/random.h"

namespace tardis {
namespace fault {

struct FaultyTransportOptions {
  uint64_t seed = 1;
  /// Chance a frame is silently dropped.
  double drop_prob = 0.0;
  /// Chance a delivered frame is sent twice.
  double duplicate_prob = 0.0;
  /// Chance a frame is held back (reordered past later sends).
  double reorder_prob = 0.0;
  /// Held frames release after Uniform[1, max_hold_polls] Receive polls
  /// on the destination site.
  uint32_t max_hold_polls = 8;
};

class FaultyTransport : public Transport {
 public:
  /// Does not own `base`; caller keeps it alive.
  FaultyTransport(Transport* base, FaultyTransportOptions options);
  ~FaultyTransport() override;

  size_t num_sites() const override { return base_->num_sites(); }
  void Send(uint32_t from, uint32_t to, ReplMessage msg) override;
  void Broadcast(uint32_t from, ReplMessage msg) override;
  bool Receive(uint32_t site, ReplMessage* msg) override;
  /// Forwards to the base, but returns at once while frames are held for
  /// `site`: they age per Receive poll, so the receiver must keep polling.
  void WaitReceive(uint32_t site, std::chrono::microseconds timeout) override;
  void Interrupt(uint32_t site) override { base_->Interrupt(site); }
  bool HasInflight() const override;

  void Partition(uint32_t a, uint32_t b) override { base_->Partition(a, b); }
  void Heal(uint32_t a, uint32_t b) override { base_->Heal(a, b); }
  void HealAll() override { base_->HealAll(); }

  /// Passthrough mode: no new faults, held messages still drain.
  void SetLossless(bool lossless);

 private:
  struct Held {
    ReplMessage msg;
    uint32_t from;
    uint32_t polls_left;
  };

  Transport* const base_;
  const FaultyTransportOptions options_;
  mutable std::mutex mu_;
  Random rng_;
  bool lossless_ = false;
  /// held_[site]: frames delayed for reordering, keyed by destination.
  std::vector<std::deque<Held>> held_;
};

}  // namespace fault
}  // namespace tardis

#endif  // TARDIS_FAULT_FAULTY_TRANSPORT_H_
