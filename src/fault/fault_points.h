// Fault-point macros. A fault point is a named site where the fault
// registry may inject an error, a delay or a simulated crash:
//
//   Status Wal::Append(const Slice& payload) {
//     TARDIS_FAULT_POINT("wal.append.before_write");  // may early-return
//     ...
//   }
//
// When nothing is armed anywhere in the process, a point costs one
// relaxed atomic load and a predicted-untaken branch — cheap enough to
// leave compiled into release builds (the bench acceptance bound is a
// < 2% regression with injection compiled in but disabled). Define
// TARDIS_DISABLE_FAULT_POINTS to compile every point to nothing.
//
// Catalog of points currently declared (keep DESIGN.md §8 in sync):
//   wal.append.before_write   injected before the record frame is written
//   wal.append.after_write    after the write, before any fsync
//   wal.sync                  Wal::Sync and the kSync per-append fsync
//   wal.read                  Wal::ReadAll
//   wal.truncate              Wal::Truncate
//   pager.read_page           Pager::ReadPage
//   pager.write_page          Pager::WritePage
//   pager.extend              Pager::AllocatePage file extension
//   pager.sync                Pager::Sync
//   store.checkpoint.rename   before the checkpoint rename-into-place
//   env.append                FaultEnv short-write cap (kLimitWrite)
//   net.tcp.send              ConnServer socket send() byte cap, every
//                             connection incl. TcpTransport's (kLimitWrite)
//   twopc.prepare.persist     before a prepare record is logged (an
//                             injected error turns the vote into abort)
//   twopc.decide.apply        before a decide-commit is applied locally
//   twopc.router.before_decide router, between collecting all prepare
//                             acks and sending the first decide

#ifndef TARDIS_FAULT_FAULT_POINTS_H_
#define TARDIS_FAULT_FAULT_POINTS_H_

#include <atomic>

#include "util/status.h"

namespace tardis {
namespace fault {

/// True while at least one fault spec is armed in the process. Defined
/// in fault_registry.cc; read with relaxed ordering on hot paths.
extern std::atomic<bool> g_faults_armed;

inline bool FaultsArmed() {
  return g_faults_armed.load(std::memory_order_relaxed);
}

/// Cold-path forwarder to FaultRegistry::Global().OnPoint(point).
Status EvaluatePoint(const char* point);

}  // namespace fault
}  // namespace tardis

#if defined(TARDIS_DISABLE_FAULT_POINTS)

#define TARDIS_FAULT_POINT(point) \
  do {                            \
  } while (0)
#define TARDIS_FAULT_HIT(point) \
  do {                          \
  } while (0)

#else

/// In a function returning Status: an armed error/crash injects an early
/// error return; delays sleep and fall through.
#define TARDIS_FAULT_POINT(point)                                           \
  do {                                                                      \
    if (__builtin_expect(::tardis::fault::FaultsArmed(), 0)) {              \
      ::tardis::Status _tardis_fault_s =                                    \
          ::tardis::fault::EvaluatePoint(point);                            \
      if (!_tardis_fault_s.ok()) return _tardis_fault_s;                    \
    }                                                                       \
  } while (0)

/// In non-Status contexts: evaluates side effects (delay, crash request,
/// counters) and discards the injected error.
#define TARDIS_FAULT_HIT(point)                                 \
  do {                                                          \
    if (__builtin_expect(::tardis::fault::FaultsArmed(), 0)) {  \
      (void)::tardis::fault::EvaluatePoint(point);              \
    }                                                           \
  } while (0)

#endif  // TARDIS_DISABLE_FAULT_POINTS

#endif  // TARDIS_FAULT_FAULT_POINTS_H_
