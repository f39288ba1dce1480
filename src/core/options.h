// TardisOptions: construction-time configuration of a TARDiS site.

#ifndef TARDIS_CORE_OPTIONS_H_
#define TARDIS_CORE_OPTIONS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "fault/env.h"
#include "obs/metrics.h"
#include "storage/wal.h"

namespace tardis {

/// Record storage backend of a site (DESIGN.md §12).
enum class RecordBackend {
  kDefault,  ///< btree when a dir is set, mem otherwise
  kMem,      ///< std::map in memory (the TARDiS-MDB analogue)
  kBTree,    ///< disk-backed B+Tree (the TARDiS-BDB analogue); needs a dir
  kTrie,     ///< copy-on-write trie (fork-native, in-memory)
};

/// "mem" / "btree" / "trie" (kDefault resolves before naming).
inline const char* RecordBackendName(RecordBackend backend) {
  switch (backend) {
    case RecordBackend::kMem:
      return "mem";
    case RecordBackend::kBTree:
      return "btree";
    case RecordBackend::kTrie:
      return "trie";
    case RecordBackend::kDefault:
      break;
  }
  return "default";
}

/// Parses a backend name; kDefault on unknown input.
inline RecordBackend ParseRecordBackend(const std::string& name) {
  if (name == "mem") return RecordBackend::kMem;
  if (name == "btree") return RecordBackend::kBTree;
  if (name == "trie") return RecordBackend::kTrie;
  return RecordBackend::kDefault;
}

struct TardisOptions {
  /// Directory for the record store and commit log. Empty means fully
  /// in-memory and non-durable (handy for tests and benchmarks).
  std::string dir;

  /// Record backend selection. kDefault selects the disk-backed B+Tree
  /// (the TARDiS-BDB configuration) when dir is set and the in-memory
  /// store (the TARDiS-MDB configuration) otherwise; kTrie selects the
  /// copy-on-write trie, which additionally serves O(1) branch forks and
  /// O(diff) 3-way merges to the core when the store is fully in-memory
  /// (dir empty). kBTree without a dir degrades to kMem.
  RecordBackend backend = RecordBackend::kDefault;

  /// Write the commit log (required for recovery). Needs a non-empty dir.
  bool enable_commit_log = true;

  /// kAsync trades durability for throughput (§6.5 "Asynchronous Flush");
  /// kSync fsyncs the commit log on every commit.
  Wal::FlushMode flush_mode = Wal::FlushMode::kAsync;

  /// Buffer pool capacity for the B+Tree backend, in 4 KiB pages
  /// (per shard when record_shards > 1).
  size_t cache_pages = 8192;

  /// Number of record-store partitions (§6.4's data-partitioning sketch:
  /// the State DAG stays collocated with the transaction manager; record
  /// payloads hash-shard across independent B+Trees, each with its own
  /// file and lock domain). 1 = unsharded. Requires the btree backend
  /// (kDefault or kBTree) and a dir.
  size_t record_shards = 1;

  /// Replication identity of this site.
  uint32_t site_id = 0;

  /// Run recovery from the commit log on open (when a log exists).
  bool recover_on_open = true;

  /// When > 0, a checkpoint is taken automatically once the commit log
  /// exceeds this many bytes (§6.5 "periodically takes non-blocking
  /// checkpoints"), truncating the log. The checkpoint runs on the
  /// committing thread; with FlushMode::kAsync it costs one DAG snapshot
  /// plus a sequential file write.
  uint64_t checkpoint_log_bytes = 0;

  /// File-operations environment for the record store, commit log and
  /// checkpoint files. Null selects the passthrough POSIX environment;
  /// tests install a fault::FaultEnv to inject disk errors, short writes
  /// and crash-restart cycles. Must outlive the store.
  fault::Env* env = nullptr;

  /// Metrics registry this site registers its counters/gauges/histograms
  /// in, labeled with site_id. Null means the store creates a private
  /// registry (reachable via TardisStore::metrics()). Share one registry
  /// across the store, replicator and transport of a process (tardisd
  /// does) to expose everything through a single endpoint.
  std::shared_ptr<obs::MetricsRegistry> metrics_registry;
};

}  // namespace tardis

#endif  // TARDIS_CORE_OPTIONS_H_
