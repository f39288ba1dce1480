// Replicator: the per-site replication service (§4, §6.4).
//
// Local commits are broadcast to every other site (gossip over the full
// mesh). Incoming transactions apply when their parent states are present
// — the StateID constraint reduces dependency checking to a constant-time
// lookup; otherwise they are cached (bounded, oldest evicted) and retried
// once a parent arrives.
//
// Cluster resilience (§6.4–§6.5 made self-healing):
//  * Failure detection — when heartbeats are enabled, every site beacons
//    its applied-seq digest each heartbeat interval and tracks per-peer
//    liveness (alive / suspect / dead). The dead threshold doubles each
//    time a peer flaps (returns after being declared dead), up to a cap —
//    an exponential suspicion timeout that stops flappy links from
//    oscillating the failure detector.
//  * Automatic anti-entropy — a heartbeat carries the sender's per-origin
//    contiguous floors; the receiver replays archived commits the sender
//    is missing (bounded per round). A sender that has fallen behind the
//    bounded gossip archive's horizon gets a full snapshot instead: every
//    commit reconstructable from the DAG, parents before children, plus
//    the floors to adopt once applied. A blank site joining the mesh
//    converges with no manual RequestSync.
//  * Liveness-aware GC — pessimistic ceiling consent rounds carry a
//    per-round deadline (in ticks) and bounded retries, exclude peers the
//    failure detector declared dead, and re-deliver the ceiling commit
//    when an excluded peer returns. Consent that cannot complete is
//    parked on a deferred list and re-run later — GC never wedges on a
//    crashed site.
//
// Time is modeled as ticks: Start() drives Tick() from the pump thread on
// a wall-clock cadence (tick_interval_ms); StartManual() leaves Tick() to
// the caller, so seeded fault schedules replay deterministically.

#ifndef TARDIS_REPLICATION_REPLICATOR_H_
#define TARDIS_REPLICATION_REPLICATOR_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/tardis_store.h"
#include "net/transport.h"

namespace tardis {

enum class GcCoordination {
  kOptimistic,   ///< ceilings apply locally immediately
  kPessimistic,  ///< ceilings apply after unanimous replicator consent
};

/// Per-peer liveness as seen by the local failure detector.
enum class PeerLiveness {
  kAlive = 0,
  kSuspect = 1,
  kDead = 2,
};

struct ReplicatorOptions {
  GcCoordination gc_mode = GcCoordination::kOptimistic;

  /// Wall-clock milliseconds between automatic Tick() calls when Start()
  /// runs the pump thread. Ignored under StartManual().
  uint64_t tick_interval_ms = 50;

  /// Send a heartbeat every N ticks; 0 disables heartbeats AND the
  /// failure detector (peers stay kAlive forever — the pre-resilience
  /// behavior, which quiescence-based tests rely on).
  uint32_t heartbeat_every_ticks = 0;

  /// Silence thresholds, in ticks since the last message from a peer.
  uint32_t suspect_after_ticks = 4;
  uint32_t dead_after_ticks = 10;       ///< initial dead threshold
  uint32_t dead_after_ticks_max = 80;   ///< cap for the exponential timeout

  /// Per-origin bound on the in-memory gossip archive. Older entries are
  /// trimmed; peers that fall behind the trimmed horizon bootstrap from a
  /// snapshot instead of a replay.
  size_t archive_horizon = 4096;

  /// Bound on the pending-parent (orphan) cache; the oldest entry is
  /// evicted when a new orphan arrives at the cap.
  size_t max_pending = 4096;

  /// Max archived commits replayed per anti-entropy round (per peer).
  size_t repair_batch = 128;

  /// Minimum ticks between snapshots shipped to the same peer.
  uint32_t snapshot_min_interval_ticks = 8;

  /// Pessimistic ceiling consent: per-round deadline and retry budget.
  uint32_t ceiling_deadline_ticks = 8;
  uint32_t ceiling_max_retries = 4;

  /// Cadence for re-running consent rounds that timed out entirely.
  uint32_t deferred_retry_every_ticks = 8;

  ReplicatorOptions() = default;
  // Implicit: existing call sites pass a bare GcCoordination.
  ReplicatorOptions(GcCoordination mode) : gc_mode(mode) {}  // NOLINT
};

class Replicator {
 public:
  /// `net` may be any Transport: the in-process SimNetwork fabric or a
  /// per-site TcpTransport endpoint — the replication logic is identical.
  Replicator(TardisStore* store, Transport* net, uint32_t site_id,
             ReplicatorOptions options = {});
  ~Replicator();

  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  /// Subscribes to the store's commit feed and starts the pump thread; it
  /// sleeps in Transport::WaitReceive between messages and Tick()s.
  void Start();
  /// Subscribes to the commit feed WITHOUT spawning the pump thread; the
  /// caller drives delivery with PumpOnce() and time with Tick(). This
  /// keeps message handling fully deterministic for seeded fault-schedule
  /// exploration.
  void StartManual();
  void Stop();

  /// Drains due messages on the calling thread (useful in deterministic
  /// tests without the pump thread). Returns the number applied.
  size_t PumpOnce();

  /// Advances replication time one tick: sends a heartbeat when due,
  /// updates peer liveness, enforces ceiling-consent deadlines, and
  /// retries deferred consent rounds.
  void Tick();

  /// Places a ceiling at the session's last commit, under the configured
  /// coordination mode.
  void PlaceCeiling(ClientSession* session);

  /// Broadcasts a recovery sync request for everything this site missed.
  /// Retained for operator use; heartbeat-driven anti-entropy makes it
  /// unnecessary in steady state.
  void RequestSync();

  /// Rebuilds the gossip archive from the store's recovered DAG (§6.5).
  /// A replicator constructed over a store that was just crash-recovered
  /// starts with an empty in-memory archive, but the recovered DAG may
  /// hold commits that exist nowhere else (they were durable locally yet
  /// never reached a peer). Re-archiving them makes the site able to serve
  /// peers' sync requests for its pre-crash history. Values are reloaded
  /// from the record store; a state whose values cannot be read back is
  /// skipped with a warning.
  void ReArchiveFromStore();

  // ---- health / introspection --------------------------------------------

  struct PeerHealth {
    uint32_t site = 0;
    PeerLiveness state = PeerLiveness::kAlive;
    uint64_t last_heard_tick = 0;
    uint32_t dead_after_ticks = 0;  ///< current (possibly doubled) threshold
    uint32_t flaps = 0;             ///< dead->alive transitions observed
  };

  /// Snapshot of the failure detector, one entry per peer, site order.
  std::vector<PeerHealth> PeerStates() const;
  /// Per-origin highest contiguous applied sequence.
  std::map<uint32_t, uint64_t> AppliedFloors() const;
  uint64_t tick_count() const;
  size_t deferred_consent_count() const;

  size_t pending_count() const;
  uint64_t applied_count() const { return applied_total_->Value(); }

 private:
  struct PeerInfo {
    uint32_t site = 0;
    PeerLiveness state = PeerLiveness::kAlive;
    uint64_t last_heard_tick = 0;
    uint32_t dead_after_ticks = 0;
    uint32_t flaps = 0;
    uint64_t last_snapshot_tick = 0;
    bool snapshot_ever_sent = false;
  };
  /// Outstanding pessimistic ceiling consent round.
  struct PendingCeiling {
    GlobalStateId guid;
    std::set<uint32_t> awaiting;  ///< live peers that have not acked
    uint64_t deadline_tick = 0;
    uint32_t retries_left = 0;
    bool excluded_dead = false;  ///< completed without a dead peer's consent
  };

  void OnLocalCommit(const CommitRecord& record);
  void HandleMessage(const ReplMessage& msg);
  void TryApply(const CommitRecord& record);
  void RetryPending();
  void Archive(const CommitRecord& record);
  /// Records `seq` as applied for `origin` and advances the contiguous
  /// floor. Takes mu_.
  void NoteSeen(uint32_t origin, uint64_t seq);
  /// Failure-detector input: a message arrived from `site`. Takes mu_.
  void NoteHeard(uint32_t site);

  /// Builds the per-origin floor digest (index = site id). Takes mu_.
  std::vector<uint64_t> FloorDigest();
  /// Anti-entropy: replays what `peer` is missing according to its floor
  /// digest, or ships a snapshot when the peer is behind the archive
  /// horizon. `force_snapshot_ok` bypasses the per-peer snapshot rate
  /// limit (explicit sync requests).
  void RepairPeer(uint32_t peer, const std::vector<uint64_t>& their_floors,
                  bool explicit_sync);
  /// Reconstructs every commit in the DAG, parents before children
  /// (local id order). Shared by ReArchiveFromStore and snapshots.
  std::vector<CommitRecord> BuildRecordsFromStore();
  void SendSnapshot(uint32_t peer);
  void ApplySnapshot(const ReplMessage& msg);

  /// Starts (or restarts) a pessimistic consent round for `guid`.
  void StartConsentRound(const GlobalStateId& guid);
  /// Completes a consent round: places the ceiling and broadcasts commit.
  void CompleteCeiling(const GlobalStateId& guid, bool excluded_dead);
  void RetryDeferredConsent();

  TardisStore* const store_;
  Transport* const net_;
  const uint32_t site_id_;
  const ReplicatorOptions options_;

  mutable std::mutex mu_;
  uint64_t tick_ = 0;
  /// Commits waiting for a missing parent state (bounded by max_pending).
  std::deque<CommitRecord> pending_;
  /// Everything seen (local or remote), per origin site, for sync replies.
  /// Keyed by sequence so out-of-order arrival (the network may reorder)
  /// still produces a complete, sorted replay log. Bounded per origin by
  /// archive_horizon; archive_floor_ records what was trimmed.
  std::map<uint32_t, std::map<uint64_t, CommitRecord>> archive_;
  /// Highest sequence trimmed from archive_ per origin (0 = nothing
  /// trimmed). A peer whose floor is below this cannot be repaired from
  /// the archive and gets a snapshot.
  std::map<uint32_t, uint64_t> archive_floor_;
  /// Highest *contiguous* sequence applied per origin site. Origins
  /// allocate seqs 1,2,3,…, so the floor is exact; seqs applied ahead of a
  /// gap wait in seen_ahead_ until the gap fills. Digests advertise the
  /// floor, which guarantees a commit dropped by the network below an
  /// applied one is still re-sent by peers (a plain high-water mark would
  /// mask the hole forever).
  std::map<uint32_t, uint64_t> seen_floor_;
  std::map<uint32_t, std::set<uint64_t>> seen_ahead_;
  /// Failure detector, one entry per peer.
  std::map<uint32_t, PeerInfo> peers_;
  /// Outstanding pessimistic ceilings: epoch -> round.
  std::map<uint64_t, PendingCeiling> ceilings_;
  uint64_t ceiling_epoch_ = 0;
  /// Consent rounds that exhausted their retries; re-run periodically and
  /// when a dead peer returns.
  std::deque<GlobalStateId> deferred_consent_;
  /// Ceilings committed while a dead peer was excluded; re-delivered to
  /// the peer when it returns (bounded, oldest dropped).
  std::deque<GlobalStateId> committed_with_exclusions_;
  /// Ceiling commits received before the named state arrived; retried as
  /// the DAG catches up.
  std::deque<GlobalStateId> pending_ceiling_commits_;

  /// Registry counters (live in store_->metrics(); labeled with the site).
  obs::Counter* applied_total_ = nullptr;
  obs::Counter* sent_total_ = nullptr;
  obs::Counter* deferred_total_ = nullptr;
  obs::Counter* heartbeats_sent_total_ = nullptr;
  obs::Counter* repairs_sent_total_ = nullptr;
  obs::Counter* snapshots_sent_total_ = nullptr;
  obs::Counter* snapshots_applied_total_ = nullptr;
  obs::Counter* orphans_evicted_total_ = nullptr;
  obs::Counter* ceiling_timeouts_total_ = nullptr;
  obs::Counter* peer_deaths_total_ = nullptr;
  obs::Counter* pump_wakeups_total_ = nullptr;
  obs::HistogramMetric* stage_repl_send_us_ = nullptr;

  std::thread pump_;
  std::atomic<bool> stop_{true};
};

}  // namespace tardis

#endif  // TARDIS_REPLICATION_REPLICATOR_H_
