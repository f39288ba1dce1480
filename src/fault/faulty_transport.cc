#include "fault/faulty_transport.h"

#include <utility>

#include "fault/fault_registry.h"

namespace tardis {
namespace fault {

FaultyTransport::FaultyTransport(Transport* base,
                                 FaultyTransportOptions options)
    : base_(base), options_(options), rng_(options.seed) {
  held_.resize(base_->num_sites());
}

FaultyTransport::~FaultyTransport() { UnbindMetrics(); }

void FaultyTransport::Send(uint32_t from, uint32_t to, ReplMessage msg) {
  sent_.fetch_add(1, std::memory_order_relaxed);
  if (to >= held_.size() || to == from) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  bool drop = false, duplicate = false;
  uint32_t hold_polls = 0;
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (!lossless_) {
      if (options_.drop_prob > 0.0 && rng_.Bernoulli(options_.drop_prob)) {
        drop = true;
      } else {
        if (options_.duplicate_prob > 0.0 &&
            rng_.Bernoulli(options_.duplicate_prob)) {
          duplicate = true;
        }
        if (options_.reorder_prob > 0.0 &&
            rng_.Bernoulli(options_.reorder_prob)) {
          hold_polls = static_cast<uint32_t>(
              rng_.Range(1, options_.max_hold_polls > 0
                                ? options_.max_hold_polls
                                : 1));
        }
      }
    }
    if (drop) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      FaultRegistry::Global().frames_dropped.fetch_add(1);
      return;
    }
    if (hold_polls > 0) {
      FaultRegistry::Global().frames_reordered.fetch_add(1);
      if (duplicate) {
        FaultRegistry::Global().frames_duplicated.fetch_add(1);
        held_[to].push_back(Held{msg, from, hold_polls});
      }
      held_[to].push_back(Held{std::move(msg), from, hold_polls});
      return;
    }
  }

  if (duplicate) {
    FaultRegistry::Global().frames_duplicated.fetch_add(1);
    base_->Send(from, to, msg);
  }
  base_->Send(from, to, std::move(msg));
}

void FaultyTransport::Broadcast(uint32_t from, ReplMessage msg) {
  // Decompose into per-peer sends so each link makes its own fault
  // decision — a broadcast may reach some peers and not others.
  const size_t n = held_.size();
  for (uint32_t to = 0; to < n; ++to) {
    if (to == from) continue;
    Send(from, to, msg);
  }
}

bool FaultyTransport::Receive(uint32_t site, ReplMessage* msg) {
  if (site < held_.size()) {
    std::lock_guard<std::mutex> guard(mu_);
    auto& q = held_[site];
    // One poll tick: age every held frame, releasing those that are due
    // into the base fabric (they re-enter behind anything already
    // queued, which is the reordering).
    for (size_t i = 0; i < q.size();) {
      if (q[i].polls_left <= 1 || lossless_) {
        Held h = std::move(q[i]);
        q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));
        base_->Send(h.from, site, std::move(h.msg));
      } else {
        --q[i].polls_left;
        ++i;
      }
    }
  }
  if (!base_->Receive(site, msg)) return false;
  delivered_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void FaultyTransport::WaitReceive(uint32_t site,
                                  std::chrono::microseconds timeout) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (site < held_.size() && !held_[site].empty()) return;
  }
  base_->WaitReceive(site, timeout);
}

bool FaultyTransport::HasInflight() const {
  {
    std::lock_guard<std::mutex> guard(mu_);
    for (const auto& q : held_) {
      if (!q.empty()) return true;
    }
  }
  return base_->HasInflight();
}

void FaultyTransport::SetLossless(bool lossless) {
  std::lock_guard<std::mutex> guard(mu_);
  lossless_ = lossless;
}

}  // namespace fault
}  // namespace tardis
