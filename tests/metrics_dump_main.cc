// CI check for the metric catalog: drives one in-memory store through a
// fork + merge + GC cycle, then diffs the set of metric names the registry
// exposes, and the stage labels of tardis_stage_micros, against the
// documented catalog (DESIGN.md §7). The daemon-only stages are checked
// on a live tardisd (TARDISD_BIN) scraped with `metrics prom`. Exits
// nonzero and prints the difference in both directions when the catalog
// drifts, so a renamed or dropped series fails the build instead of
// silently breaking dashboards.

#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "client/tardis_client.h"
#include "cluster/partition_map.h"
#include "cluster/router.h"
#include "cluster/twopc.h"
#include "core/tardis_store.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "replication/network.h"
#include "replication/replicator.h"

namespace {

const char* kExpectedNames[] = {
    "tardis_txn_commits_total",
    "tardis_txn_aborts_total",
    "tardis_txn_read_only_commits_total",
    "tardis_txn_remote_applied_total",
    "tardis_txn_forks_total",
    "tardis_txn_merges_total",
    "tardis_commit_latency_us",
    "tardis_merge_latency_us",
    "tardis_dag_states",
    "tardis_dag_leaves",
    "tardis_dag_promotions",
    "tardis_gc_runs_total",
    "tardis_gc_states_marked_total",
    "tardis_gc_states_deleted_total",
    "tardis_gc_versions_promoted_total",
    "tardis_gc_versions_pruned_total",
    "tardis_gc_pass_duration_us",
    "tardis_fault_points_hit_total",
    "tardis_fault_errors_injected_total",
    "tardis_fault_delays_injected_total",
    "tardis_fault_crashes_simulated_total",
    "tardis_fault_short_writes_total",
    "tardis_fault_net_frames_dropped_total",
    "tardis_fault_net_frames_duplicated_total",
    "tardis_fault_net_frames_reordered_total",
    // Partitioning / 2PC (src/cluster/, DESIGN.md §10). The participant
    // registers on the store's registry; the router series are checked
    // here too because both sides share the tardis_2pc_* names
    // (distinguished by the role label).
    "tardis_router_requests",
    "tardis_2pc_prepares",
    "tardis_2pc_forked_commits",
    "tardis_2pc_in_doubt",
    // Per-request latency breakdown (src/obs/stage.h, DESIGN.md §7): one
    // family labeled only by stage so `metrics cluster` can sum it across
    // sites. Store, 2PC, router, and replicator each register their
    // stages into it.
    "tardis_stage_micros",
    // Fork-native storage (src/storage/cowtrie/, DESIGN.md §12). The
    // backend info metric exists on every store; the trie family appears
    // because this check runs on the trie backend.
    // Client sessions & exactly-once retries (src/core/session.h,
    // src/client/, DESIGN.md §13). The dedup table registers on the
    // store's registry; the client series appear because this check
    // constructs a TardisClient sharing the same registry.
    "tardis_session_dedup_hits",
    "tardis_session_dedup_evictions",
    "tardis_session_dedup_duplicates",
    "tardis_session_dedup_entries",
    "tardis_session_dedup_sessions",
    "tardis_session_header_rejected",
    "tardis_client_requests",
    "tardis_client_retries",
    "tardis_client_failovers",
    "tardis_client_stale_reads",
    "tardis_store_backend",
    "tardis_trie_nodes",
    "tardis_trie_shared_nodes",
    "tardis_trie_merge_diff_keys",
    "tardis_trie_merge_conflicts",
    "tardis_trie_fork_us",
    "tardis_trie_merge_us",
    // Replication (src/replication/, DESIGN.md §6, §9): a replicator
    // registers on its store's registry. The pump wakeup count shows an
    // idle site's wakeup rate (about one per tick).
    "tardis_repl_applied_total",
    "tardis_repl_sent_total",
    "tardis_repl_deferred_total",
    "tardis_repl_heartbeats_sent_total",
    "tardis_repl_repairs_sent_total",
    "tardis_repl_snapshots_sent_total",
    "tardis_repl_snapshots_applied_total",
    "tardis_repl_orphans_evicted_total",
    "tardis_repl_ceiling_timeouts_total",
    "tardis_repl_peer_deaths_total",
    "tardis_repl_pump_wakeups_total",
    "tardis_repl_pending",
    "tardis_repl_peer_state",
};

// Stage labels of tardis_stage_micros registered in this process: store,
// 2PC participant, router and replicator.
const char* kExpectedStages[] = {
    "commit_select", "wal_fsync", "prepare_rtt", "decide_apply", "repl_send",
};

// Stages only tardisd's serving path registers: the wait for a worker and
// the write of the reply to the client socket.
const char* kDaemonStages[] = {"queue_wait", "reply_write"};

/// Diffs `actual` against `expected` in both directions; returns 1 on
/// drift.
int DiffSets(const char* what, const std::set<std::string>& expected,
             const std::set<std::string>& actual) {
  int rc = 0;
  for (const std::string& name : expected) {
    if (actual.count(name) == 0) {
      fprintf(stderr, "MISSING %s (in catalog, not exposed): %s\n", what,
              name.c_str());
      rc = 1;
    }
  }
  for (const std::string& name : actual) {
    if (expected.count(name) == 0) {
      fprintf(stderr,
              "UNDOCUMENTED %s (exposed, not in catalog): %s\n"
              "  -> add it to the catalog here and to DESIGN.md §7\n",
              what, name.c_str());
      rc = 1;
    }
  }
  return rc;
}

uint16_t FreePort() {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  socklen_t len = sizeof(addr);
  getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  close(fd);
  return ntohs(addr.sin_port);
}

/// Starts a standalone tardisd, scrapes `metrics prom`, and checks its
/// stage labels against the catalog and that the pump wakeup counter is
/// exposed. A missing or broken daemon binary fails the check.
int CheckDaemon() {
  const char* bin = getenv("TARDISD_BIN");
  if (bin == nullptr || bin[0] == '\0') {
    fprintf(stderr, "FAIL: TARDISD_BIN is not set\n");
    return 1;
  }
  const std::string client_port = std::to_string(FreePort());
  // The peer list needs two sites; the second is never started.
  const std::string peers = "--peers=127.0.0.1:" + std::to_string(FreePort()) +
                            ",127.0.0.1:" + std::to_string(FreePort());
  const pid_t pid = fork();
  if (pid == 0) {
    freopen("/dev/null", "w", stdout);
    const std::string port_flag = "--client-port=" + client_port;
    execl(bin, "tardisd", "--site=0", peers.c_str(), port_flag.c_str(),
          static_cast<char*>(nullptr));
    _exit(127);
  }
  tardis::client::TardisClientOptions copt;
  copt.endpoints = {"127.0.0.1:" + client_port};
  copt.request_deadline_ms = 10'000;
  copt.seed = 1;
  std::string body;
  const tardis::Status s = [&] {
    tardis::client::TardisClient client(copt);
    return client.CallMulti("metrics prom", &body);
  }();
  kill(pid, SIGKILL);
  waitpid(pid, nullptr, 0);
  if (!s.ok()) {
    fprintf(stderr, "FAIL: scraping %s: %s\n", bin, s.ToString().c_str());
    return 1;
  }

  std::set<std::string> stages;
  const std::string key = "tardis_stage_micros";
  const std::string label = "stage=\"";
  for (size_t pos = body.find(key); pos != std::string::npos;
       pos = body.find(key, pos + 1)) {
    const size_t at = body.find(label, pos);
    const size_t eol = body.find('\n', pos);
    if (at == std::string::npos || at > eol) continue;
    const size_t start = at + label.size();
    stages.insert(body.substr(start, body.find('"', start) - start));
  }
  // A standalone daemon runs no router or 2PC participant.
  std::set<std::string> expected(std::begin(kDaemonStages),
                                 std::end(kDaemonStages));
  expected.insert({"commit_select", "wal_fsync", "repl_send"});
  int rc = DiffSets("tardisd stage", expected, stages);
  if (body.find("tardis_repl_pump_wakeups_total") == std::string::npos) {
    fprintf(stderr, "MISSING in tardisd: tardis_repl_pump_wakeups_total\n");
    rc = 1;
  }
  return rc;
}

#define CHECK_OK(expr)                                                  \
  do {                                                                  \
    auto _s = (expr);                                                   \
    if (!_s.ok()) {                                                     \
      fprintf(stderr, "FAIL %s:%d: %s -> %s\n", __FILE__, __LINE__,     \
              #expr, _s.ToString().c_str());                            \
      return 1;                                                         \
    }                                                                   \
  } while (0)

}  // namespace

int main() {
  using namespace tardis;

  TardisOptions options;  // in-memory
  // The trie backend exposes every series the other backends do, plus the
  // tardis_trie_* family — running the drift check on it covers the
  // superset.
  options.backend = RecordBackend::kTrie;
  auto store_or = TardisStore::Open(options);
  if (!store_or.ok()) {
    fprintf(stderr, "FAIL: Open: %s\n", store_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<TardisStore> store = std::move(*store_or);

  // Seed a key, then fork: two sessions read it and write conflicting
  // values under branch-on-conflict.
  auto seeder = store->CreateSession();
  {
    auto t = store->Begin(seeder.get());
    if (!t.ok()) return 1;
    CHECK_OK((*t)->Put("k", "0"));
    CHECK_OK((*t)->Commit());
  }
  auto s1 = store->CreateSession();
  auto s2 = store->CreateSession();
  auto t1 = store->Begin(s1.get());
  auto t2 = store->Begin(s2.get());
  if (!t1.ok() || !t2.ok()) return 1;
  std::string v;
  CHECK_OK((*t1)->Get("k", &v));
  CHECK_OK((*t2)->Get("k", &v));
  CHECK_OK((*t1)->Put("k", "1"));
  CHECK_OK((*t2)->Put("k", "2"));
  CHECK_OK((*t1)->Commit());
  CHECK_OK((*t2)->Commit());

  // Merge the two branches back together.
  auto merger = store->CreateSession();
  auto m = store->BeginMerge(merger.get());
  if (!m.ok()) return 1;
  auto forks = (*m)->FindForkPoints((*m)->parents());
  if (!forks.ok()) return 1;
  auto conflicts = (*m)->FindConflictWrites((*m)->parents());
  if (!conflicts.ok()) return 1;
  CHECK_OK((*m)->Put("k", "3"));
  CHECK_OK((*m)->Commit());

  // One GC pass so the gc_* counters exist with real traffic behind them.
  store->PlaceCeiling(merger.get());
  store->RunGarbageCollection();

  // The partitioning subsystem's series (DESIGN.md §10): a 2PC
  // participant on this store, and a router sharing the registry so the
  // catalog covers both roles of the shared tardis_2pc_* names. Neither
  // dials anything — construction alone must register every series.
  cluster::TwoPhaseOptions popt;
  popt.self_endpoint = "self";
  cluster::TwoPhaseParticipant participant(store.get(), std::move(popt));
  CHECK_OK(participant.Recover());
  cluster::RouterOptions ropt;
  ropt.coord_endpoints = {"127.0.0.1:1", "127.0.0.1:2"};
  cluster::Router router(cluster::PartitionMap::Uniform(2), std::move(ropt),
                         store->metrics());

  // The client library's series (DESIGN.md §13): a TardisClient sharing
  // the store's registry. Construction alone registers the family — it
  // never dials the (unreachable) endpoint.
  client::TardisClientOptions copt;
  copt.endpoints = {"127.0.0.1:1"};
  copt.registry = store->metrics();
  client::TardisClient client(copt);

  // The replication series: a replicator over an in-process fabric.
  // Construction registers them; the pump never starts.
  SimNetwork net(2);
  Replicator replicator(store.get(), &net, 0);

  // Diff the exposed name and stage sets against the catalog.
  std::set<std::string> expected(std::begin(kExpectedNames),
                                 std::end(kExpectedNames));
  std::set<std::string> actual;
  std::set<std::string> stages;
  const std::vector<obs::Sample> samples = store->metrics()->Collect();
  for (const obs::Sample& s : samples) {
    actual.insert(s.name);
    if (s.name != "tardis_stage_micros") continue;
    for (const auto& [key, value] : s.labels) {
      if (key == "stage") stages.insert(value);
    }
  }
  int rc = DiffSets("metric", expected, actual);
  rc |= DiffSets("stage", std::set<std::string>(std::begin(kExpectedStages),
                                                std::end(kExpectedStages)),
                 stages);
  rc |= CheckDaemon();

  // The lifecycle counters must have seen the fork and the merge.
  const StoreStats stats = store->stats();
  if (stats.branches_created != 1) {
    fprintf(stderr, "FAIL: expected 1 fork, got %llu\n",
            static_cast<unsigned long long>(stats.branches_created));
    rc = 1;
  }
  if (stats.merges_committed != 1) {
    fprintf(stderr, "FAIL: expected 1 merge, got %llu\n",
            static_cast<unsigned long long>(stats.merges_committed));
    rc = 1;
  }

  if (rc == 0) {
    printf("metrics dump OK: %zu series, catalog of %zu names matches\n",
           samples.size(), expected.size());
  } else {
    fprintf(stderr, "--- full exposition ---\n%s",
            obs::RenderPrometheus(samples).c_str());
  }
  return rc;
}
