#include "replication/network.h"

#include <algorithm>

namespace tardis {

SimNetwork::SimNetwork(size_t num_sites, NetworkOptions options)
    : num_sites_(num_sites),
      options_(options),
      links_(num_sites * num_sites),
      partitioned_(num_sites * num_sites, false),
      arrivals_(num_sites),
      interrupted_(num_sites, false),
      rng_(options.seed) {}

void SimNetwork::Send(uint32_t from, uint32_t to, ReplMessage msg) {
  if (from == to || from >= num_sites_ || to >= num_sites_) return;
  std::lock_guard<std::mutex> guard(mu_);
  if (partitioned_[LinkIndex(from, to)]) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  uint64_t delay = options_.latency_us;
  if (options_.jitter_us > 0) delay += rng_.Uniform(options_.jitter_us + 1);
  msg.from_site = from;
  links_[LinkIndex(from, to)].queue.push_back(
      {NowMicros() + delay, std::move(msg)});
  sent_.fetch_add(1, std::memory_order_relaxed);
  arrivals_[to].notify_one();
}

void SimNetwork::Broadcast(uint32_t from, ReplMessage msg) {
  // Each link queue owns its message, so fan-out needs num_sites-2 copies;
  // the last link takes the caller's message by move.
  uint32_t last = UINT32_MAX;
  for (uint32_t to = 0; to < num_sites_; to++) {
    if (to != from) last = to;
  }
  for (uint32_t to = 0; to < num_sites_; to++) {
    if (to == from) continue;
    if (to == last) {
      Send(from, to, std::move(msg));
    } else {
      Send(from, to, msg);
    }
  }
}

bool SimNetwork::Receive(uint32_t site, ReplMessage* msg) {
  const uint64_t now = NowMicros();
  std::lock_guard<std::mutex> guard(mu_);
  // Scan inbound links round-robin-ish (lowest due timestamp wins so
  // cross-link ordering roughly follows wall clock).
  size_t best_link = SIZE_MAX;
  uint64_t best_ts = ~0ull;
  for (uint32_t from = 0; from < num_sites_; from++) {
    if (from == site) continue;
    const size_t idx = LinkIndex(from, site);
    const Link& link = links_[idx];
    if (link.queue.empty()) continue;
    const InFlight& head = link.queue.front();
    if (head.deliver_at_us <= now && head.deliver_at_us < best_ts) {
      best_ts = head.deliver_at_us;
      best_link = idx;
    }
  }
  if (best_link == SIZE_MAX) return false;
  *msg = std::move(links_[best_link].queue.front().msg);
  links_[best_link].queue.pop_front();
  delivered_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void SimNetwork::WaitReceive(uint32_t site, std::chrono::microseconds timeout) {
  using Clock = std::chrono::steady_clock;  // NowMicros() reads this clock
  const Clock::time_point end = Clock::now() + timeout;
  std::unique_lock<std::mutex> lock(mu_);
  while (!interrupted_[site]) {
    Clock::time_point until = end;  // or the earliest head message's due time
    for (uint32_t from = 0; from < num_sites_; from++) {
      const std::deque<InFlight>& queue = links_[LinkIndex(from, site)].queue;
      if (queue.empty()) continue;
      until = std::min(until, Clock::time_point(std::chrono::microseconds(
                                  queue.front().deliver_at_us)));
    }
    if (Clock::now() >= until) break;
    arrivals_[site].wait_until(lock, until);
  }
  interrupted_[site] = false;
}

void SimNetwork::Interrupt(uint32_t site) {
  std::lock_guard<std::mutex> guard(mu_);
  interrupted_[site] = true;
  arrivals_[site].notify_all();
}

bool SimNetwork::HasInflight() const {
  std::lock_guard<std::mutex> guard(mu_);
  for (const Link& link : links_) {
    if (!link.queue.empty()) return true;
  }
  return false;
}

void SimNetwork::Partition(uint32_t a, uint32_t b) {
  std::lock_guard<std::mutex> guard(mu_);
  partitioned_[LinkIndex(a, b)] = true;
  partitioned_[LinkIndex(b, a)] = true;
}

void SimNetwork::Heal(uint32_t a, uint32_t b) {
  std::lock_guard<std::mutex> guard(mu_);
  partitioned_[LinkIndex(a, b)] = false;
  partitioned_[LinkIndex(b, a)] = false;
}

void SimNetwork::HealAll() {
  std::lock_guard<std::mutex> guard(mu_);
  std::fill(partitioned_.begin(), partitioned_.end(), false);
}

}  // namespace tardis
