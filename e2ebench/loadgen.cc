// loadgen: the end-to-end benchmark driver (see README.md beside it).
//
// One process with at most four threads and four connections. It spawns
// real tardisd / tardis_router processes on loopback, preloads them,
// sends a seeded open-loop schedule through TardisClient, times every
// request from its *scheduled* send time, scrapes the servers' own
// metrics registries around the timed window, reads their CPU and RSS
// from /proc, checks that the outputs are correct, and prints every
// metric followed by one JSON result line.
//
//   loadgen --workload pair-rw|grid-mix|pair-merge --seed N --seconds S
//           --trace 0|1 --bin-dir DIR [--emit name:unit,...] [--smoke]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs an untraced and
// a traced window plus an in-process replay of the same ops through the
// public TardisStore API, and prints the per-layer metrics. Each workload
// prints the metrics it measures; --emit names the ones the result line
// holds (a missing one is an error). --smoke runs a topology briefly with
// a small preload.

#include <dirent.h>
#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_lib.h"
#include "client/tardis_client.h"
#include "cluster/framed_client.h"
#include "cluster/partition_map.h"
#include "core/tardis_store.h"
#include "core/transaction.h"
#include "obs/trace.h"
#include "replication/message.h"
#include "util/random.h"

namespace e2ebench {
namespace {

using tardis::Status;
using tardis::client::TardisClient;
using tardis::client::TardisClientOptions;

// ---- time -------------------------------------------------------------------

int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void SleepUntilNs(int64_t t) {
  timespec ts;
  ts.tv_sec = t / 1'000'000'000;
  ts.tv_nsec = t % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

void SleepMs(int64_t ms) { SleepUntilNs(NowNs() + ms * 1'000'000); }

// ---- process hygiene --------------------------------------------------------

// Every child pid, so the watchdog can kill exactly those (never by name).
constexpr int kMaxChildren = 16;
std::atomic<pid_t> g_children[kMaxChildren];

void RegisterChild(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t empty = 0;
    if (slot.compare_exchange_strong(empty, pid)) return;
  }
}

void ForgetChild(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t p = pid;
    if (slot.compare_exchange_strong(p, 0)) return;
  }
}

void KillAllChildren() {
  for (auto& slot : g_children) {
    const pid_t p = slot.load();
    if (p > 0) kill(p, SIGKILL);
  }
  for (auto& slot : g_children) {
    const pid_t p = slot.exchange(0);
    if (p > 0) waitpid(p, nullptr, 0);
  }
}

void OnWatchdog(int) {
  static const char kMsg[] = "loadgen: watchdog or signal; killing servers\n";
  ssize_t ignored = write(2, kMsg, sizeof(kMsg) - 1);
  (void)ignored;
  for (auto& slot : g_children) {
    const pid_t p = slot.load();
    if (p > 0) kill(p, SIGKILL);
  }
  for (auto& slot : g_children) {
    const pid_t p = slot.load();
    if (p > 0) waitpid(p, nullptr, 0);
  }
  _exit(3);
}

void RemoveTree(const std::string& path);
std::string g_run_root;  ///< removed when the run dies

// CPU placement: the servers share every allowed CPU but the last, and the
// driver (all of its threads) runs on the last one, so load generation
// and serving never compete for a core and no thread migrates between
// them from run to run (README.md, "Host noise"). Nothing is pinned with
// fewer than two CPUs.
cpu_set_t g_server_cpus;
bool g_pinned = false;
std::string g_placement = "not pinned";

void PinDriver() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; c++) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.size() < 2) return;
  CPU_ZERO(&g_server_cpus);
  g_placement = "servers on CPUs";
  for (size_t i = 0; i + 1 < cpus.size(); i++) {
    CPU_SET(cpus[i], &g_server_cpus);
    g_placement += (i ? "," : " ") + std::to_string(cpus[i]);
  }
  cpu_set_t driver;
  CPU_ZERO(&driver);
  CPU_SET(cpus.back(), &driver);
  if (sched_setaffinity(0, sizeof(driver), &driver) != 0) return;
  g_pinned = true;
  g_placement += ", driver on CPU " + std::to_string(cpus.back());
}

[[noreturn]] void Die(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  fprintf(stderr, "loadgen: error: ");
  vfprintf(stderr, fmt, ap);
  fprintf(stderr, "\n");
  va_end(ap);
  KillAllChildren();
  if (!g_run_root.empty()) RemoveTree(g_run_root);
  exit(2);
}

/// A spawned server. Owns the pid: the destructor kills and reaps it.
class Proc {
 public:
  Proc(std::vector<std::string> argv, std::string log)
      : argv_(std::move(argv)), log_(std::move(log)) {}
  ~Proc() { Kill(); }
  Proc(const Proc&) = delete;
  Proc& operator=(const Proc&) = delete;

  void Spawn() {
    Kill();
    const pid_t pid = fork();
    if (pid < 0) Die("fork: %s", strerror(errno));
    if (pid == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (g_pinned) sched_setaffinity(0, sizeof(g_server_cpus), &g_server_cpus);
      const int fd = open(log_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        dup2(fd, 1);
        dup2(fd, 2);
        close(fd);
      }
      std::vector<char*> args;
      for (std::string& a : argv_) args.push_back(a.data());
      args.push_back(nullptr);
      execv(args[0], args.data());
      _exit(127);
    }
    pid_ = pid;
    RegisterChild(pid);
  }

  /// SIGTERM, then wait up to timeout_ms for a clean exit. True when the
  /// process exited with status 0.
  bool Terminate(int timeout_ms) {
    if (pid_ <= 0) return true;
    kill(pid_, SIGTERM);
    const int64_t deadline = NowNs() + int64_t{timeout_ms} * 1'000'000;
    while (NowNs() < deadline) {
      int status = 0;
      const pid_t r = waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        ForgetChild(pid_);
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      SleepMs(5);
    }
    Kill();
    return false;
  }

  void Kill() {
    if (pid_ <= 0) return;
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    ForgetChild(pid_);
    pid_ = -1;
  }

  pid_t pid() const { return pid_; }
  const std::string& log() const { return log_; }

 private:
  std::vector<std::string> argv_;
  std::string log_;
  pid_t pid_ = -1;
};

/// CPU seconds (user + system) of a live process.
double ProcCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  const size_t close = all.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream ss(all.substr(close + 2));
  std::vector<std::string> f;
  std::string tok;
  while (ss >> tok) f.push_back(tok);
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  if (f.size() < 13) return 0;
  const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  return (atof(f[11].c_str()) + atof(f[12].c_str())) / ticks;
}

/// Host CPU ticks (all, steal) from /proc/stat: steal is time this VM's
/// CPUs were runnable but ran something else, a host-noise indicator.
std::pair<double, double> HostTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0, steal = 0, v = 0;
  for (int i = 0; i < 8 && (in >> v); i++) {
    total += v;
    if (i == 7) steal = v;
  }
  return {total, steal};
}

/// Peak resident set (VmHWM) in MiB.
double ProcPeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      return atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0;
}

/// Distinct free loopback ports: all sockets stay bound until every port
/// is chosen, so one call never returns a port twice.
std::vector<uint16_t> FreePorts(int n) {
  std::vector<int> fds;
  std::vector<uint16_t> ports;
  for (int i = 0; i < n; i++) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    a.sin_port = 0;
    socklen_t len = sizeof(a);
    if (fd < 0 || bind(fd, reinterpret_cast<sockaddr*>(&a), sizeof(a)) != 0 ||
        getsockname(fd, reinterpret_cast<sockaddr*>(&a), &len) != 0) {
      Die("cannot reserve a free port: %s", strerror(errno));
    }
    fds.push_back(fd);
    ports.push_back(ntohs(a.sin_port));
  }
  for (int fd : fds) close(fd);
  return ports;
}

void MakeDirs(const std::string& path) {
  std::string cur;
  std::stringstream ss(path);
  std::string part;
  if (!path.empty() && path[0] == '/') cur = "/";
  while (std::getline(ss, part, '/')) {
    if (part.empty()) continue;
    cur += part + "/";
    mkdir(cur.c_str(), 0755);
  }
}

void RemoveTree(const std::string& path) {
  DIR* d = opendir(path.c_str());
  if (d == nullptr) {
    unlink(path.c_str());
    return;
  }
  while (dirent* e = readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    const std::string child = path + "/" + name;
    struct stat st;
    if (lstat(child.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
      RemoveTree(child);
    } else {
      unlink(child.c_str());
    }
  }
  closedir(d);
  rmdir(path.c_str());
}

uint64_t TreeBytes(const std::string& path) {
  DIR* d = opendir(path.c_str());
  if (d == nullptr) return 0;
  uint64_t total = 0;
  while (dirent* e = readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    const std::string child = path + "/" + name;
    struct stat st;
    if (lstat(child.c_str(), &st) != 0) continue;
    total += S_ISDIR(st.st_mode) ? TreeBytes(child)
                                 : static_cast<uint64_t>(st.st_size);
  }
  closedir(d);
  return total;
}

// ---- workloads --------------------------------------------------------------

struct Workload {
  std::string name;
  bool grid = false;        ///< 2 partitions x 1 site behind a router
  bool durable = false;     ///< daemons get --dir (btree + commit log)
  MixSpec mix;
  int load_conns = 0;       ///< open-loop connections
  bool conn_per_site = false;  ///< load connection c talks to site c
  double rate = 0;          ///< frozen offered rate, ops/s, all load conns
  int ladder_steps = 0;     ///< capacity ladder steps; 0 = none
  double ladder_step_s = 3;
  double limit_ms = 0;      ///< capacity p99 limit
  uint32_t preload = 0;
  size_t value_bytes = 0;
  bool counters = false;    ///< integer values merged with `merge counter`
  int resolvers = 0;        ///< closed-loop `merge counter` connections
  int merge_pause_ms = 0;
  bool poller = false;      ///< replica-visibility poller on site 1
};

/// Capacity ladder: offered rates rate * kLadderFactor^i.
constexpr double kLadderFactor = 1.07;

/// Latency medians use the calmest 1/kCalmShare of the timed window's 1-s
/// sub-windows, ranked by host CPU steal (README.md, "Medians").
constexpr int kCalmShare = 3;

// Offered rates were calibrated on a 4-core host and are frozen here; see
// README.md ("Frozen rates") before changing any of them.
std::vector<Workload> Workloads() {
  std::vector<Workload> w(3);
  w[0].name = "pair-rw";
  w[0].durable = true;
  w[0].mix.keys = 100'000;
  w[0].mix.theta = 0.99;
  w[0].mix.get_share = 0.5;
  w[0].mix.marker_rate = 500;
  w[0].mix.sample_every_s = 0.25;
  w[0].load_conns = 3;
  w[0].rate = 1500;
  w[0].ladder_steps = 36;
  w[0].limit_ms = 2;
  w[0].preload = 100'000;
  w[0].value_bytes = 256;
  w[0].poller = true;

  w[1].name = "grid-mix";
  w[1].grid = true;
  w[1].mix.keys = 100'000;
  w[1].mix.get_share = 0.45;
  w[1].mix.mput_share = 0.15;
  w[1].mix.sample_every_s = 0.25;
  w[1].load_conns = 4;
  w[1].rate = 2000;
  w[1].ladder_steps = 36;
  w[1].limit_ms = 5;
  w[1].preload = 100'000;
  w[1].value_bytes = 64;

  w[2].name = "pair-merge";
  w[2].mix.keys = 1000;
  w[2].mix.theta = 0.99;
  w[2].mix.get_share = 0.2;
  w[2].mix.sample_every_s = 0.25;
  w[2].load_conns = 2;
  w[2].conn_per_site = true;
  w[2].rate = 1500;
  w[2].preload = 1000;
  w[2].counters = true;
  w[2].resolvers = 2;
  w[2].merge_pause_ms = 250;
  return w;
}

std::string KeyName(uint32_t k) {
  std::string key = "k";
  key += std::to_string(k);
  return key;
}

std::string ValueFor(const Workload& w, uint64_t value_id) {
  if (w.counters) return std::to_string(value_id % 1000 + 1);
  return MakeValue(value_id, w.value_bytes);
}

constexpr uint64_t kPreloadStream = 0xFFFF;

uint64_t PreloadValueId(uint32_t key) { return (kPreloadStream << 40) | key; }

// ---- clients ----------------------------------------------------------------

std::unique_ptr<TardisClient> MakeClient(const std::string& endpoint,
                                         uint64_t seed, uint64_t deadline_ms) {
  TardisClientOptions o;
  o.endpoints = {endpoint};
  o.request_deadline_ms = deadline_ms;
  o.connect_timeout_ms = std::min<uint64_t>(deadline_ms, 1000);
  o.seed = seed | 1;
  o.session_id = MixSeed(seed, 0x5e55) | 1;
  return std::make_unique<TardisClient>(std::move(o));
}

/// One request on a throwaway connection (set-up and restarts, when no
/// other connection is open).
bool Ask(const std::string& endpoint, const std::string& line,
         std::string* reply, uint64_t deadline_ms) {
  auto c = MakeClient(endpoint, MixSeed(NowNs(), 7), deadline_ms);
  return c->Call(line, reply).ok();
}

/// Polls `line` on `endpoint` until the reply starts with `want`.
bool WaitFor(const std::string& endpoint, const std::string& line,
             const std::string& want, int timeout_ms) {
  const int64_t deadline = NowNs() + int64_t{timeout_ms} * 1'000'000;
  while (NowNs() < deadline) {
    std::string reply;
    if (Ask(endpoint, line, &reply, 300) &&
        reply.compare(0, want.size(), want) == 0) {
      return true;
    }
    SleepMs(10);
  }
  return false;
}

// ---- topology ---------------------------------------------------------------

struct Daemon {
  std::unique_ptr<Proc> proc;
  std::string client_ep;
  std::string coord_ep;
  std::string dir;
};

/// The server processes of one set-up, in a fresh directory with fresh
/// ports. Destroying it kills whatever is still running.
class Topology {
 public:
  Topology(const Workload& w, const std::string& bin, const std::string& root)
      : w_(w), root_(root) {
    MakeDirs(root_);
    const std::vector<uint16_t> ports = FreePorts(2 * 3 + 2 + 1);
    const std::string host = "127.0.0.1:";
    for (int i = 0; i < 2; i++) {
      Daemon d;
      const uint16_t repl = ports[3 * i], client = ports[3 * i + 1],
                     coord = ports[3 * i + 2];
      d.client_ep = host + std::to_string(client);
      d.coord_ep = host + std::to_string(coord);
      std::vector<std::string> argv = {bin + "/tardisd"};
      if (w_.grid) {
        // One live site per partition; tardisd wants a two-entry peer
        // list, so the second entry is a port nobody listens on.
        argv.push_back("--site=0");
        argv.push_back("--peers=" + host + std::to_string(repl) + "," + host +
                       std::to_string(ports[6 + i]));
        argv.push_back("--partition=" + std::to_string(i));
      } else {
        argv.push_back("--site=" + std::to_string(i));
        argv.push_back("--peers=" + host + std::to_string(ports[0]) + "," +
                       host + std::to_string(ports[3]));
      }
      argv.push_back("--client-port=" + std::to_string(client));
      argv.push_back("--coord-port=" + std::to_string(coord));
      if (w_.durable) {
        d.dir = root_ + "/site" + std::to_string(i);
        MakeDirs(d.dir);
        argv.push_back("--dir=" + d.dir);
      }
      d.proc = std::make_unique<Proc>(
          argv, root_ + "/tardisd" + std::to_string(i) + ".log");
      daemons_.push_back(std::move(d));
    }
    if (w_.grid) {
      router_ep_ = host + std::to_string(ports[8]);
      router_ = std::make_unique<Proc>(
          std::vector<std::string>{
              bin + "/tardis_router", "--port=" + std::to_string(ports[8]),
              "--partitions=" + daemons_[0].coord_ep + "," +
                  daemons_[1].coord_ep},
          root_ + "/router.log");
    }
  }

  ~Topology() { Kill(); }
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  /// Spawns every server and waits until each answers and the pair's
  /// peers are connected (hard timeouts).
  void Start() {
    for (Daemon& d : daemons_) d.proc->Spawn();
    if (router_) router_->Spawn();
    for (Daemon& d : daemons_) {
      if (!WaitFor(d.client_ep, "ping", "PONG", 20'000)) {
        Die("daemon %s never answered PONG (log %s)", d.client_ep.c_str(),
            d.proc->log().c_str());
      }
    }
    if (!w_.grid) {
      for (Daemon& d : daemons_) {
        if (!WaitFor(d.client_ep, "peers", "PEERS 1", 20'000)) {
          Die("site %s never connected to its peer", d.client_ep.c_str());
        }
      }
    }
    if (router_ && !WaitFor(router_ep_, "ping", "PONG", 20'000)) {
      Die("router never answered PONG (log %s)", router_->log().c_str());
    }
  }

  /// Restarts site `i` on the same flags and directory.
  void Respawn(size_t i) { daemons_[i].proc->Spawn(); }

  void Kill() {
    if (router_) router_->Kill();
    for (Daemon& d : daemons_) d.proc->Kill();
  }

  /// Graceful stop; false if any server failed to drain cleanly.
  bool Terminate() {
    bool ok = true;
    // The router has no SIGTERM handler; only the daemons drain.
    if (router_) router_->Terminate(10'000);
    for (Daemon& d : daemons_) ok = d.proc->Terminate(15'000) && ok;
    return ok;
  }

  std::vector<Daemon>& daemons() { return daemons_; }
  Proc* router() { return router_.get(); }
  const std::string& root() const { return root_; }

  /// Where load connection c sends its requests.
  std::string LoadEndpoint(int c) const {
    if (w_.grid) return router_ep_;
    return daemons_[w_.conn_per_site ? c % 2 : 0].client_ep;
  }

 private:
  const Workload& w_;
  std::string root_;
  std::vector<Daemon> daemons_;
  std::unique_ptr<Proc> router_;
  std::string router_ep_;
};

/// Writes the preload in 1000-key transactions over the daemons'
/// coordination ports (grid keys go to their own partition).
void Preload(const Workload& w, Topology& topo) {
  const uint32_t kBatch = 1000;
  tardis::cluster::PartitionMap map = tardis::cluster::PartitionMap::Uniform(2);
  std::vector<std::vector<uint32_t>> by_daemon(2);
  for (uint32_t k = 0; k < w.preload; k++) {
    by_daemon[w.grid ? map.PartitionForKey(KeyName(k)) : 0].push_back(k);
  }
  for (size_t d = 0; d < 2; d++) {
    if (by_daemon[d].empty()) continue;
    tardis::cluster::FramedClient fc;
    Status s = fc.Connect(topo.daemons()[d].coord_ep, 5000);
    if (!s.ok()) Die("preload connect: %s", s.ToString().c_str());
    for (size_t i = 0; i < by_daemon[d].size(); i += kBatch) {
      tardis::ReplMessage req;
      req.type = tardis::ReplMessage::Type::kRoute;
      for (size_t j = i; j < std::min<size_t>(i + kBatch, by_daemon[d].size());
           j++) {
        const uint32_t k = by_daemon[d][j];
        req.commit.writes.emplace_back(
            KeyName(k), std::make_shared<const std::string>(
                            ValueFor(w, PreloadValueId(k))));
      }
      tardis::ReplMessage resp;
      s = fc.Call(req, &resp, 30'000);
      if (!s.ok() || resp.text.compare(0, 2, "OK") != 0) {
        Die("preload batch failed: %s %s", s.ToString().c_str(),
            resp.text.c_str());
      }
    }
  }
}

/// Waits until both sites of a pair report the same State DAG size twice
/// in a row (every commit applied on both sides).
bool WaitStatesEqual(TardisClient* site0, TardisClient* site1,
                     int timeout_ms) {
  const int64_t deadline = NowNs() + int64_t{timeout_ms} * 1'000'000;
  std::string last;
  while (NowNs() < deadline) {
    std::string a, b;
    if (site0->Call("states", &a).ok() && site1->Call("states", &b).ok() &&
        a == b && a.compare(0, 7, "STATES ") == 0) {
      if (a == last) return true;
      last = a;
    } else {
      last.clear();
    }
    SleepMs(20);
  }
  return false;
}

// ---- load phases ------------------------------------------------------------

struct Rec {
  int64_t send = 0;
  int64_t done = 0;
  bool ran = false;
  bool ok = false;
};

struct SpanRec {
  int conn = 0;
  const char* name = "";
  int64_t start = 0, dur = 0;
  uint64_t trace_id = 0, span_id = 0;
};

struct ConnOut {
  std::vector<Rec> recs;  ///< parallel to the connection's schedule
  uint64_t malformed = 0;
  std::string malformed_example;
  uint64_t missing = 0;   ///< NOTFOUND for a preloaded key
  double queue_max = 0, pending_max = 0, in_doubt_max = 0, leaves_max = 0;
  std::vector<SpanRec> spans;  ///< traced phases only
  std::vector<HostSample> host;  ///< connection 0: /proc/stat at each sample
};

struct MergeRec {
  int site = 0;
  int64_t send = 0, done = 0;
  bool ok = false;
  bool merged = false;
};

struct PhaseOut {
  std::vector<std::vector<Op>> sched;
  std::vector<ConnOut> conns;
  std::vector<MergeRec> merges;
  std::vector<TimedSample> visible_ms;  ///< by marker ack time
  uint64_t markers_lost = 0;
  int64_t start = 0;
  double seconds = 0;
  uint64_t malformed() const {
    uint64_t n = 0;
    for (const ConnOut& c : conns) n += c.malformed;
    return n;
  }
};

struct PhaseOptions {
  uint64_t stream = 0;
  double rate = 0;
  double seconds = 0;
  bool markers = false;
  bool samples = false;
  bool resolvers = false;
  bool traced = false;
  int64_t overrun_ms = 5000;  ///< stop sending this long past the end
};

/// Everything a run shares across phases: the topology and the open
/// connections (load connections first, then poller / resolvers).
struct RunCtx {
  const Workload* w = nullptr;
  uint64_t seed = 0;
  Topology* topo = nullptr;
  std::vector<std::unique_ptr<TardisClient>> load;
  std::unique_ptr<TardisClient> poller;
  std::vector<std::unique_ptr<TardisClient>> resolvers;

  void OpenLoad(int c) {
    load[static_cast<size_t>(c)] = MakeClient(
        topo->LoadEndpoint(c), MixSeed(seed, 100 + static_cast<uint64_t>(c)),
        5000);
  }
  /// An open connection to site `s` of a pair (checks reuse these instead
  /// of opening a fifth connection).
  TardisClient* Site(int s) const {
    if (!resolvers.empty()) return resolvers[static_cast<size_t>(s)].get();
    return s == 0 ? load[0].get() : poller.get();
  }
};

void ParseHealth(const std::string& body, ConnOut* out) {
  std::istringstream ss(body);
  std::string tok;
  while (ss >> tok) {
    auto field = [&](const char* name, double* max) {
      const size_t n = strlen(name);
      if (tok.compare(0, n, name) == 0) {
        *max = std::max(*max, atof(tok.c_str() + n));
      }
    };
    field("queue=", &out->queue_max);
    field("pending=", &out->pending_max);
    field("twopc_in_doubt=", &out->in_doubt_max);
  }
}

std::string MarkerKey(uint64_t stream, uint32_t m) {
  return "mk" + std::to_string(stream) + "_" + std::to_string(m);
}

/// The line a load request goes out as. A traced request carries its
/// span's sampled `*T` trace context, so the servers record their spans
/// under the same id. TardisClient session floors are keyed by site id,
/// and both grid partitions are site 0, so a floor learned from one
/// partition makes the other answer ERR BEHIND (see README.md,
/// "Findings"); untraced grid-mix requests therefore carry an unsampled
/// `*T` token. TardisClient sends any `*T` line without a session header:
/// no floors, no dedup, no retry after send.
std::string WireLine(const Workload& w, const std::string& cmd,
                     uint64_t trace_id, uint64_t span_id, bool sampled) {
  if (!w.grid && !sampled) return cmd;
  tardis::obs::TraceContext ctx;
  ctx.trace_id = trace_id | 1;
  ctx.span_id = span_id | 1;
  ctx.sampled = sampled;
  return tardis::obs::FormatTraceHeader(ctx) + " " + cmd;
}

struct MarkerQueue {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<uint32_t, int64_t>> acked;  ///< marker, ack time
  int producers_left = 0;
};

void RunLoadConn(const RunCtx& ctx, const PhaseOptions& po, int c,
                 PhaseOut* out, MarkerQueue* markers) {
  const Workload& w = *ctx.w;
  TardisClient* cl = ctx.load[static_cast<size_t>(c)].get();
  const std::vector<Op>& ops = out->sched[static_cast<size_t>(c)];
  ConnOut& co = out->conns[static_cast<size_t>(c)];
  co.recs.resize(ops.size());
  const int64_t stop_at = out->start +
                          static_cast<int64_t>(po.seconds * 1e9) +
                          po.overrun_ms * 1'000'000;
  auto check = [&](const char* verb, const Status& s, const std::string& r,
                   bool preloaded_get) {
    if (!s.ok()) return false;
    switch (ClassifyReply(verb, r)) {
      case ReplyKind::kOk:
        if (preloaded_get && r == "NOTFOUND") {
          co.missing++;
          return false;
        }
        return true;
      case ReplyKind::kError:
        return false;
      case ReplyKind::kMalformed:
        if (co.malformed++ == 0) co.malformed_example = r;
        return false;
    }
    return false;
  };
  for (size_t i = 0; i < ops.size(); i++) {
    const Op& op = ops[i];
    if (NowNs() > stop_at) break;  // the rest count as failed (never sent)
    SleepUntilNs(out->start + op.at_ns);
    Rec& rec = co.recs[i];
    const uint64_t trace_id =
        MixSeed(ctx.seed, po.stream, (uint64_t{1} << 32) * c + i);
    auto wire = [&](const std::string& cmd) {
      return WireLine(w, cmd, trace_id, i + 1, po.traced);
    };
    rec.send = NowNs();
    rec.ran = true;
    std::string reply;
    switch (op.verb) {
      case Verb::kGet: {
        Status s = cl->Call(wire("get " + KeyName(op.keys[0])), &reply);
        rec.ok = check("get", s, reply, op.keys[0] < w.preload);
        break;
      }
      case Verb::kPut: {
        Status s = cl->Call(
            wire("put " + KeyName(op.keys[0]) + " " + ValueFor(w, op.value_id)),
            &reply);
        rec.ok = check("put", s, reply, false);
        break;
      }
      case Verb::kMput: {
        std::string line = "mput";
        for (uint32_t k : op.keys) {
          line += " " + KeyName(k) + " " + ValueFor(w, op.value_id);
        }
        Status s = cl->Call(wire(line), &reply);
        rec.ok = check("mput", s, reply, false);
        break;
      }
      case Verb::kMarker: {
        Status s = cl->Call(wire("put " + MarkerKey(po.stream, op.keys[0]) +
                                 " " + std::to_string(op.keys[0])),
                            &reply);
        rec.ok = check("put", s, reply, false);
        if (rec.ok && markers != nullptr) {
          std::lock_guard<std::mutex> g(markers->mu);
          markers->acked.emplace_back(op.keys[0], NowNs());
          markers->cv.notify_one();
        }
        break;
      }
      case Verb::kSample: {
        Status s = cl->CallMulti("health", &reply);
        rec.ok = s.ok();
        if (s.ok()) ParseHealth(reply, &co);
        if (c == 0) {
          const auto [total, steal] = HostTicks();
          co.host.push_back(
              {static_cast<double>(NowNs() - out->start) / 1e9, total, steal});
        }
        if (!w.grid && cl->Call("leaves", &reply).ok() &&
            reply.compare(0, 7, "LEAVES ") == 0) {
          co.leaves_max = std::max(co.leaves_max, atof(reply.c_str() + 7));
        }
        break;
      }
    }
    rec.done = NowNs();
    if (po.traced) {
      SpanRec sp;
      sp.conn = c;
      sp.name = VerbName(op.verb);
      sp.start = rec.send;
      sp.dur = rec.done - rec.send;
      sp.trace_id = trace_id | 1;
      sp.span_id = (i + 1) | 1;
      co.spans.push_back(sp);
    }
  }
}

/// Replica visibility: for each marker acknowledged at site 0, polls site
/// 1 until the marker reads back.
void RunPoller(const RunCtx& ctx, const PhaseOptions& po, PhaseOut* out,
               MarkerQueue* mq, uint64_t* malformed) {
  TardisClient* cl = ctx.poller.get();
  while (true) {
    std::pair<uint32_t, int64_t> m;
    {
      std::unique_lock<std::mutex> lock(mq->mu);
      mq->cv.wait_for(lock, std::chrono::milliseconds(5), [&] {
        return !mq->acked.empty() || mq->producers_left == 0;
      });
      if (mq->acked.empty()) {
        if (mq->producers_left == 0) break;
        continue;
      }
      m = mq->acked.front();
      mq->acked.pop_front();
    }
    const std::string line = "get " + MarkerKey(po.stream, m.first);
    const int64_t deadline = m.second + 5'000'000'000;
    while (true) {
      std::string reply;
      Status s = cl->Call(line, &reply);
      if (s.ok() && reply.compare(0, 6, "VALUE ") == 0) {
        out->visible_ms.push_back(
            {static_cast<double>(m.second - out->start) / 1e9,
             static_cast<double>(NowNs() - m.second) / 1e6});
        break;
      }
      if (s.ok() && ClassifyReply("get", reply) == ReplyKind::kMalformed) {
        (*malformed)++;
      }
      if (NowNs() > deadline) {
        out->markers_lost++;
        break;
      }
      SleepUntilNs(NowNs() + 100'000);
    }
  }
}

/// Closed-loop `merge counter` with a fixed pause, until the phase ends.
void RunResolver(const RunCtx& ctx, const PhaseOptions& po, int r,
                 int64_t start, std::vector<MergeRec>* out,
                 uint64_t* malformed) {
  TardisClient* cl = ctx.resolvers[static_cast<size_t>(r)].get();
  const int64_t end = start + static_cast<int64_t>(po.seconds * 1e9);
  SleepUntilNs(start + int64_t{r} * ctx.w->merge_pause_ms * 500'000);
  while (NowNs() < end) {
    MergeRec m;
    m.site = r;
    m.send = NowNs();
    std::string reply;
    Status s = cl->Call("merge counter", &reply);
    m.done = NowNs();
    const ReplyKind kind =
        s.ok() ? ClassifyReply("merge", reply) : ReplyKind::kError;
    if (kind == ReplyKind::kMalformed) (*malformed)++;
    m.ok = kind == ReplyKind::kOk;
    m.merged = m.ok && reply.compare(0, 7, "MERGED ") == 0;
    out->push_back(m);
    SleepMs(ctx.w->merge_pause_ms);
  }
}

PhaseOut RunPhase(const RunCtx& ctx, const PhaseOptions& po,
                  uint64_t* extra_malformed) {
  const Workload& w = *ctx.w;
  PhaseOut out;
  MixSpec spec = w.mix;
  if (!po.markers) spec.marker_rate = 0;
  if (!po.samples) spec.sample_every_s = 0;
  out.sched = BuildSchedule(spec, ctx.seed, po.stream, po.rate, po.seconds,
                            w.load_conns);
  out.conns.resize(static_cast<size_t>(w.load_conns));
  out.seconds = po.seconds;
  MarkerQueue mq;
  const bool poll = po.markers && ctx.poller != nullptr;
  mq.producers_left = poll ? 1 : 0;
  std::vector<std::vector<MergeRec>> merges(ctx.resolvers.size());
  std::vector<uint64_t> malformed(ctx.resolvers.size() + 1, 0);
  out.start = NowNs() + 20'000'000;

  std::vector<std::function<void()>> jobs;
  for (int c = 0; c < w.load_conns; c++) {
    jobs.push_back([&, c] {
      RunLoadConn(ctx, po, c, &out, poll && c == 0 ? &mq : nullptr);
      if (poll && c == 0) {
        std::lock_guard<std::mutex> g(mq.mu);
        mq.producers_left = 0;
        mq.cv.notify_all();
      }
    });
  }
  if (poll) {
    jobs.push_back([&] { RunPoller(ctx, po, &out, &mq, &malformed[0]); });
  }
  if (po.resolvers) {
    for (size_t r = 0; r < ctx.resolvers.size(); r++) {
      jobs.push_back([&, r] {
        RunResolver(ctx, po, static_cast<int>(r), out.start, &merges[r],
                    &malformed[r + 1]);
      });
    }
  }
  if (jobs.size() > 4) Die("internal: %zu threads requested", jobs.size());
  // The calling thread runs the last job: never more than four threads.
  std::vector<std::thread> threads;
  for (size_t j = 0; j + 1 < jobs.size(); j++) threads.emplace_back(jobs[j]);
  jobs.back()();
  for (std::thread& t : threads) t.join();
  for (auto& m : merges) out.merges.insert(out.merges.end(), m.begin(), m.end());
  for (uint64_t n : malformed) *extra_malformed += n;
  return out;
}

// ---- phase statistics -------------------------------------------------------

const char* StatVerb(Verb v) { return v == Verb::kMarker ? "put" : VerbName(v); }

bool IsLoad(Verb v) { return v != Verb::kSample; }

/// Latencies (ms, from the scheduled send time) of successful requests,
/// keyed by verb, each with its scheduled time in the phase.
std::map<std::string, std::vector<TimedSample>> Latencies(const PhaseOut& p) {
  std::map<std::string, std::vector<TimedSample>> out;
  for (size_t c = 0; c < p.conns.size(); c++) {
    for (size_t i = 0; i < p.sched[c].size(); i++) {
      const Op& op = p.sched[c][i];
      const Rec& r = p.conns[c].recs[i];
      if (!IsLoad(op.verb) || !r.ok) continue;
      out[StatVerb(op.verb)].push_back(
          {static_cast<double>(op.at_ns) / 1e9,
           static_cast<double>(r.done - (p.start + op.at_ns)) / 1e6});
    }
  }
  return out;
}

struct Counts {
  uint64_t attempted = 0, failed = 0;
};

Counts CountOps(const PhaseOut& p) {
  Counts n;
  for (size_t c = 0; c < p.conns.size(); c++) {
    for (size_t i = 0; i < p.sched[c].size(); i++) {
      if (!IsLoad(p.sched[c][i].verb)) continue;
      n.attempted++;
      if (!p.conns[c].recs[i].ok) n.failed++;
    }
  }
  for (const MergeRec& m : p.merges) {
    n.attempted++;
    if (!m.ok) n.failed++;
  }
  n.failed += p.markers_lost;
  return n;
}

/// Generator lateness (ms): actual send minus scheduled send.
std::vector<double> Lateness(const PhaseOut& p, double from_share = 0) {
  std::vector<double> out;
  const int64_t from = static_cast<int64_t>(p.seconds * from_share * 1e9);
  for (size_t c = 0; c < p.conns.size(); c++) {
    for (size_t i = 0; i < p.sched[c].size(); i++) {
      const Op& op = p.sched[c][i];
      const Rec& r = p.conns[c].recs[i];
      if (!IsLoad(op.verb) || op.at_ns < from) continue;
      // A request never sent is as late as the end of the phase.
      const int64_t send =
          r.ran ? r.send
                : p.start + static_cast<int64_t>(p.seconds * 1e9) +
                      5'000'000'000;
      out.push_back(static_cast<double>(send - (p.start + op.at_ns)) / 1e6);
    }
  }
  return out;
}

StepResult Step(const PhaseOut& p, double rate) {
  StepResult r;
  r.rate = rate;
  for (auto& [verb, lat] : Latencies(p)) {
    int windows = 1;
    r.p99_ms[verb] = WindowedQuantile(lat, p.seconds, 3, 0.99, &windows);
    r.count[verb] = lat.size() / static_cast<size_t>(windows);
  }
  std::vector<double> late = Lateness(p, 0.5);
  double sum = 0;
  for (double l : late) sum += l;
  r.late_second_half_ms = late.empty() ? 0 : sum / static_cast<double>(late.size());
  const Counts n = CountOps(p);
  r.error_share = n.attempted == 0 ? 1
                                   : static_cast<double>(n.failed) /
                                         static_cast<double>(n.attempted);
  return r;
}

// ---- registry scrapes -------------------------------------------------------

struct Scrapes {
  std::vector<Scrape> daemon;  ///< by site / partition
  Scrape router;
  Scrape cluster;              ///< `metrics cluster` (grid only)
};

Scrape ScrapeVia(TardisClient* cl, const std::string& line) {
  std::string body;
  Status s = cl->CallMulti(line, &body);
  if (!s.ok()) Die("scrape `%s` failed: %s", line.c_str(), s.ToString().c_str());
  return ParseProm(body);
}

Scrapes ScrapeAll(RunCtx& ctx) {
  Scrapes out;
  if (ctx.w->grid) {
    // The four connections all go to the router: close the last one while
    // the daemons are scraped directly, then reopen it.
    const int spare = ctx.w->load_conns - 1;
    ctx.load[static_cast<size_t>(spare)].reset();
    for (Daemon& d : ctx.topo->daemons()) {
      auto cl = MakeClient(d.client_ep, MixSeed(ctx.seed, 0x5c4a), 5000);
      out.daemon.push_back(ScrapeVia(cl.get(), "metrics prom"));
    }
    ctx.OpenLoad(spare);
    out.router = ScrapeVia(ctx.load[0].get(), "metrics prom");
    out.cluster = ScrapeVia(ctx.load[0].get(), "metrics cluster");
  } else {
    out.daemon.push_back(ScrapeVia(ctx.load[0].get(), "metrics prom"));
    TardisClient* site1 =
        ctx.poller ? ctx.poller.get() : ctx.load[1].get();
    out.daemon.push_back(ScrapeVia(site1, "metrics prom"));
  }
  return out;
}

std::vector<pid_t> ServerPids(Topology& topo, bool daemons, bool router) {
  std::vector<pid_t> out;
  if (daemons) {
    for (Daemon& d : topo.daemons()) out.push_back(d.proc->pid());
  }
  if (router && topo.router() != nullptr) out.push_back(topo.router()->pid());
  return out;
}

double CpuSeconds(const std::vector<pid_t>& pids) {
  double s = 0;
  for (pid_t p : pids) s += ProcCpuSeconds(p);
  return s;
}

double PeakRssMb(const std::vector<pid_t>& pids) {
  double s = 0;
  for (pid_t p : pids) s += ProcPeakRssMb(p);
  return s;
}

/// Histogram delta of one family summed over the daemons in `sites`.
HistDelta DaemonHist(const Scrapes& before, const Scrapes& after,
                     const std::string& name, const Labels& match,
                     const std::vector<size_t>& sites) {
  HistDelta total;
  for (size_t s : sites) {
    HistDelta d;
    if (!DeltaHistogram(before.daemon[s], after.daemon[s], name, match, &d)) {
      Die("histogram %s of daemon %zu is not cumulative", name.c_str(), s);
    }
    for (const auto& [le, n] : d.buckets) total.buckets[le] += n;
    total.count += d.count;
  }
  return total;
}

double DaemonDelta(const Scrapes& before, const Scrapes& after,
                   const std::string& name, const Labels& match = {}) {
  double sum = 0;
  for (size_t s = 0; s < after.daemon.size(); s++) {
    sum += DeltaSeries(before.daemon[s], after.daemon[s], name, match);
  }
  return sum;
}

double DaemonMax(const Scrapes& s, const std::string& name) {
  double best = 0;
  for (const Scrape& d : s.daemon) best = std::max(best, MaxSeries(d, name));
  return best;
}

// ---- correctness ------------------------------------------------------------

struct Write {
  uint64_t value_id = 0;
  int64_t send = 0, done = 0;
  bool ran = false, ok = false;
};

using History = std::unordered_map<uint32_t, std::vector<Write>>;

void AddHistory(const PhaseOut& p, History* h) {
  for (size_t c = 0; c < p.conns.size(); c++) {
    for (size_t i = 0; i < p.sched[c].size(); i++) {
      const Op& op = p.sched[c][i];
      if (op.verb != Verb::kPut && op.verb != Verb::kMput) continue;
      const Rec& r = p.conns[c].recs[i];
      Write w{op.value_id, r.send, r.done, r.ran, r.ok};
      const int nkeys = op.verb == Verb::kMput ? 3 : 1;
      for (int k = 0; k < nkeys; k++) (*h)[op.keys[k]].push_back(w);
    }
  }
}

/// Empty when `reply` (a `get` reply) holds a value an acknowledged write
/// stored (or one whose outcome is unknown), and — for keys whose writes
/// never overlapped in time — the last acknowledged one.
std::string CheckRead(const Workload& w, uint32_t key,
                      const std::vector<Write>& writes,
                      const std::string& reply) {
  std::vector<Write> ws;
  for (const Write& x : writes) {
    if (x.ran) ws.push_back(x);
  }
  std::sort(ws.begin(), ws.end(),
            [](const Write& a, const Write& b) { return a.send < b.send; });
  bool ambiguous = false;
  int64_t max_done = 0;
  const Write* last_ok = nullptr;
  for (const Write& x : ws) {
    if (!x.ok) ambiguous = true;
    if (max_done > x.send) ambiguous = true;
    max_done = std::max(max_done, x.done);
    if (x.ok && (last_ok == nullptr || x.done > last_ok->done)) last_ok = &x;
  }
  const bool preloaded = key < w.preload;
  if (reply.compare(0, 6, "VALUE ") != 0) {
    return "key " + KeyName(key) + " read back `" + reply + "`";
  }
  const std::string got = reply.substr(6);
  bool known = preloaded && got == ValueFor(w, PreloadValueId(key));
  for (const Write& x : ws) {
    if (got == ValueFor(w, x.value_id)) known = true;
  }
  if (!known) return "key " + KeyName(key) + " holds a value no write stored";
  if (!ambiguous) {
    const std::string want = last_ok != nullptr
                                 ? ValueFor(w, last_ok->value_id)
                                 : ValueFor(w, PreloadValueId(key));
    if (got != want) {
      return "key " + KeyName(key) + " lost its last acknowledged write";
    }
  }
  return "";
}

/// A seeded sample of keys with at least one acknowledged write.
std::vector<uint32_t> SampleKeys(const History& h, uint64_t seed, size_t n) {
  std::vector<uint32_t> keys;
  for (const auto& [k, ws] : h) {
    for (const Write& x : ws) {
      if (x.ok) {
        keys.push_back(k);
        break;
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  tardis::Random rng(MixSeed(seed, 0xC4EC));
  for (size_t i = keys.size(); i > 1; i--) {
    std::swap(keys[i - 1], keys[rng.Uniform(i)]);
  }
  if (keys.size() > n) keys.resize(n);
  return keys;
}

struct Checks {
  std::vector<std::string> failures;
  void Require(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// Exactly-once accounting over a timed window: the commit-counter delta
/// per site (the `metrics cluster` sum for the grid) must equal what the
/// acknowledged replies predict, with unknown outcomes as the only slack.
void CheckExactlyOnce(const Workload& w, const PhaseOut& main,
                      const Scrapes& before, const Scrapes& after,
                      Checks* checks) {
  tardis::cluster::PartitionMap map = tardis::cluster::PartitionMap::Uniform(2);
  std::vector<double> predicted(2, 0), slack(2, 0);
  for (size_t c = 0; c < main.conns.size(); c++) {
    const size_t site = w.conn_per_site ? c % 2 : 0;
    for (size_t i = 0; i < main.sched[c].size(); i++) {
      const Op& op = main.sched[c][i];
      const Rec& r = main.conns[c].recs[i];
      if (op.verb == Verb::kGet || op.verb == Verb::kSample) continue;
      double commits = 1;
      if (op.verb == Verb::kMput) {
        std::set<uint32_t> parts;
        for (uint32_t k : op.keys) parts.insert(map.PartitionForKey(KeyName(k)));
        commits = static_cast<double>(parts.size());
      }
      if (r.ok) predicted[site] += commits;
      if (r.ran && !r.ok) slack[site] += commits;
    }
  }
  for (const MergeRec& m : main.merges) {
    if (m.merged) predicted[static_cast<size_t>(m.site)] += 1;
    if (!m.ok) slack[static_cast<size_t>(m.site)] += 1;
  }
  std::vector<double> observed(2, 0);
  if (w.grid) {
    observed[0] =
        DeltaSeries(before.cluster, after.cluster, "tardis_txn_commits_total");
    predicted[0] += predicted[1];
    slack[0] += slack[1];
    predicted[1] = slack[1] = 0;
  } else {
    for (size_t s = 0; s < 2; s++) {
      observed[s] = DeltaSeries(before.daemon[s], after.daemon[s],
                                "tardis_txn_commits_total");
    }
  }
  for (size_t s = 0; s < 2; s++) {
    if (observed[s] < predicted[s] || observed[s] > predicted[s] + slack[s]) {
      checks->failures.push_back(
          "exactly-once: " + std::to_string(static_cast<long long>(observed[s])) +
          " commits at " +
          (w.grid ? std::string("the grid") : "site " + std::to_string(s)) +
          ", acknowledged replies predict " +
          std::to_string(static_cast<long long>(predicted[s])));
    }
  }
}

// ---- in-process replay ------------------------------------------------------

using SpanMap = std::map<std::string, std::vector<double>>;  ///< name -> us

template <typename F>
auto Timed(SpanMap* spans, const char* name, F&& f) {
  const int64_t t0 = NowNs();
  auto r = f();
  (*spans)[name].push_back(static_cast<double>(NowNs() - t0) / 1e3);
  return r;
}

std::unique_ptr<tardis::TardisStore> OpenStore(uint32_t site,
                                               const std::string& dir) {
  tardis::TardisOptions o;
  o.site_id = site;
  o.dir = dir;
  auto s = tardis::TardisStore::Open(o);
  if (!s.ok()) Die("in-process store: %s", s.status().ToString().c_str());
  return std::move(*s);
}

void PreloadStore(const Workload& w, tardis::TardisStore* store) {
  auto session = store->CreateSession();
  for (uint32_t k = 0; k < w.preload;) {
    auto txn = store->Begin(session.get());
    if (!txn.ok()) Die("replay preload: %s", txn.status().ToString().c_str());
    for (uint32_t end = std::min(w.preload, k + 1000); k < end; k++) {
      (void)(*txn)->Put(KeyName(k), ValueFor(w, PreloadValueId(k)));
    }
    Status s = (*txn)->Commit();
    if (!s.ok()) Die("replay preload commit: %s", s.ToString().c_str());
  }
}

/// Runs one op through the public API with a span around each call.
void ReplayOp(const Workload& w, tardis::TardisStore* store,
              tardis::ClientSession* session, const Op& op, SpanMap* spans,
              const char* commit_span = "commit") {
  auto txn = Timed(spans, "begin", [&] { return store->Begin(session); });
  if (!txn.ok()) return;
  if (op.verb == Verb::kGet) {
    std::string v;
    Timed(spans, "get", [&] { return (*txn)->Get(KeyName(op.keys[0]), &v); });
    (*txn)->Abort();
    return;
  }
  const int nkeys = op.verb == Verb::kMput ? 3 : 1;
  for (int k = 0; k < nkeys; k++) {
    const std::string key = op.verb == Verb::kMarker
                                ? MarkerKey(0, op.keys[0])
                                : KeyName(op.keys[k]);
    Timed(spans, "put", [&] { return (*txn)->Put(key, ValueFor(w, op.value_id)); });
  }
  Timed(spans, commit_span, [&] { return (*txn)->Commit(); });
}

/// The daemon's `merge counter`, call by call, with spans.
void ReplayMerge(tardis::TardisStore* store, tardis::ClientSession* session,
                 SpanMap* spans) {
  auto m = Timed(spans, "begin_merge",
                 [&] { return store->BeginMerge(session); });
  if (!m.ok()) return;
  const std::vector<tardis::StateId> parents = (*m)->parents();
  if (parents.size() < 2) {
    (*m)->Abort();
    return;
  }
  auto conflicts = Timed(spans, "find_conflict_writes",
                         [&] { return (*m)->FindConflictWrites(parents); });
  auto forks = Timed(spans, "find_fork_points",
                     [&] { return (*m)->FindForkPoints(parents); });
  if (!conflicts.ok() || !forks.ok()) {
    (*m)->Abort();
    return;
  }
  for (const std::string& key : *conflicts) {
    std::string fv;
    const long long base =
        Timed(spans, "get_for_id",
              [&] { return (*m)->GetForId(key, (*forks)[0], &fv); })
                .ok()
            ? atoll(fv.c_str())
            : 0;
    long long result = base;
    for (tardis::StateId p : parents) {
      std::string bv;
      const bool ok = Timed(spans, "get_for_id", [&] {
                        return (*m)->GetForId(key, p, &bv);
                      }).ok();
      result += (ok ? atoll(bv.c_str()) : base) - base;
    }
    (void)(*m)->Put(key, std::to_string(result));
  }
  Timed(spans, "merge_commit", [&] { return (*m)->Commit(); });
}

/// Replays the main window's seeded op stream in-process: through a memory
/// store (core spans), through a store with a dir (durable commit), and —
/// by applying the captured CommitRecords — into a second site. For
/// pair-merge the two sites exchange records with a 1 ms lag and merge on
/// the resolvers' cadence, so the merge path runs as well.
SpanMap Replay(const Workload& w, uint64_t seed, double rate, double seconds,
               const std::string& dir) {
  SpanMap spans;
  MixSpec spec = w.mix;
  spec.sample_every_s = 0;
  const auto sched = BuildSchedule(spec, seed, 0, rate, seconds, w.load_conns);
  struct Ev {
    int64_t at;
    int conn;
    const Op* op;
  };
  std::vector<Ev> evs;
  for (size_t c = 0; c < sched.size(); c++) {
    for (const Op& op : sched[c]) {
      evs.push_back({op.at_ns, static_cast<int>(c), &op});
    }
  }
  std::stable_sort(evs.begin(), evs.end(),
                   [](const Ev& a, const Ev& b) { return a.at < b.at; });
  if (evs.size() > 40'000) evs.resize(40'000);

  if (!w.counters) {
    auto a = OpenStore(0, "");
    std::vector<tardis::CommitRecord> records;
    a->SetCommitCallback(
        [&](const tardis::CommitRecord& r) { records.push_back(r); });
    PreloadStore(w, a.get());
    const size_t preload_records = records.size();
    auto session = a->CreateSession();
    for (const Ev& e : evs) ReplayOp(w, a.get(), session.get(), *e.op, &spans);

    auto b = OpenStore(1, "");
    for (size_t i = 0; i < records.size(); i++) {
      if (i < preload_records) {
        (void)b->ApplyRemote(records[i]);
      } else {
        Timed(&spans, "apply", [&] { return b->ApplyRemote(records[i]); });
      }
    }
  } else {
    std::unique_ptr<tardis::TardisStore> site[2] = {OpenStore(0, ""),
                                                    OpenStore(1, "")};
    int64_t now = 0;
    std::deque<std::pair<int64_t, tardis::CommitRecord>> outbox[2];
    bool preloading = true;
    for (int s = 0; s < 2; s++) {
      site[s]->SetCommitCallback([&, s](const tardis::CommitRecord& r) {
        if (!preloading) outbox[s].emplace_back(now, r);
        if (preloading && s == 0) (void)site[1]->ApplyRemote(r);
      });
    }
    PreloadStore(w, site[0].get());
    preloading = false;
    std::unique_ptr<tardis::ClientSession> sess[2] = {
        site[0]->CreateSession(), site[1]->CreateSession()};
    const int64_t lag = 1'000'000;
    const int64_t merge_every = int64_t{w.merge_pause_ms + 30} * 1'000'000;
    int64_t next_merge[2] = {merge_every, merge_every + merge_every / 2};
    auto deliver = [&](int64_t until) {
      for (int s = 0; s < 2; s++) {
        while (!outbox[s].empty() && outbox[s].front().first + lag <= until) {
          const tardis::CommitRecord r = std::move(outbox[s].front().second);
          outbox[s].pop_front();
          Timed(&spans, "apply", [&] { return site[1 - s]->ApplyRemote(r); });
        }
      }
    };
    for (const Ev& e : evs) {
      for (int s = 0; s < 2; s++) {
        while (next_merge[s] <= e.at) {
          now = next_merge[s];
          deliver(now);
          ReplayMerge(site[s].get(), sess[s].get(), &spans);
          next_merge[s] += merge_every;
        }
      }
      now = e.at;
      deliver(now);
      const int s = e.conn % 2;
      ReplayOp(w, site[s].get(), sess[s].get(), *e.op, &spans);
    }
  }

  // The same ops against a store with a directory: durable commits.
  {
    MakeDirs(dir);
    auto d = OpenStore(0, dir);
    PreloadStore(w, d.get());
    auto session = d->CreateSession();
    SpanMap ignored;
    for (const Ev& e : evs) {
      if (e.op->verb == Verb::kGet) continue;
      ReplayOp(w, d.get(), session.get(), *e.op, &ignored, "commit_durable");
      auto& c = ignored["commit_durable"];
      if (!c.empty()) spans["commit_durable"].push_back(c.back());
    }
  }
  RemoveTree(dir);
  return spans;
}

// ---- reporting --------------------------------------------------------------

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< sample counts, printed beside values
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics.push_back({name, value, unit});
    notes.push_back(note);
  }
};

std::string N(size_t n) { return "n=" + std::to_string(n); }

double Q(std::vector<double> v, double q) { return Percentile(&v, q); }

double SafeDiv(double a, double b) { return b > 0 ? a / b : 0; }

/// Warns when a reported tail lacks ten samples beyond it.
void CheckTail(const std::string& what, size_t n, double q) {
  if (!TailSupported(n, q)) {
    fprintf(stderr,
            "loadgen: warning: %s has %zu samples, enough for p%g only; "
            "p%g needs %.0f\n",
            what.c_str(), n, HighestSupportedTail(n) * 100, q * 100,
            std::ceil(10 / (1 - q)));
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string bin_dir;
  bool smoke = false;
  /// --emit name:unit,...: exactly these metrics, in this order, make the
  /// result line; without it the result line holds every metric measured.
  std::vector<Metric> emit;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i++) {
    const std::string k = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Die("%s needs a value", k.c_str());
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = next();
    } else if (k == "--seed") {
      a.seed = strtoull(next().c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = atof(next().c_str());
    } else if (k == "--trace") {
      a.trace = atoi(next().c_str());
    } else if (k == "--bin-dir") {
      a.bin_dir = next();
    } else if (k == "--smoke") {
      a.smoke = true;
    } else if (k == "--emit") {
      std::stringstream list(next());
      std::string item;
      while (std::getline(list, item, ',')) {
        const size_t colon = item.find(':');
        if (colon == std::string::npos) {
          Die("--emit wants name:unit, got %s", item.c_str());
        }
        a.emit.push_back({item.substr(0, colon), 0, item.substr(colon + 1)});
      }
    } else {
      Die("unknown argument %s", k.c_str());
    }
  }
  if (a.bin_dir.empty()) Die("--bin-dir is required");
  if (a.seconds <= 0) Die("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) Die("--trace must be 0 or 1");
  return a;
}

void WriteSpans(const std::string& path, const std::vector<SpanRec>& spans,
                int64_t origin) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans.size(); i++) {
    const SpanRec& s = spans[i];
    tardis::obs::TraceContext ctx;
    ctx.trace_id = s.trace_id;
    ctx.span_id = s.span_id;
    ctx.sampled = true;
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
        << "\",\"cat\":\"client\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.conn
        << ",\"ts\":" << (s.start - origin) / 1000
        << ",\"dur\":" << s.dur / 1000 << ",\"args\":{\"trace\":\""
        << tardis::obs::FormatTraceHeader(ctx) << "\"}}";
  }
  out << "\n]}\n";
}

int Run(const Args& args) {
  std::vector<Workload> all = Workloads();
  Workload w;
  bool found = false;
  for (const Workload& x : all) {
    if (x.name == args.workload) {
      w = x;
      found = true;
    }
  }
  if (!found) Die("unknown --workload '%s'", args.workload.c_str());
  if (access((args.bin_dir + "/tardisd").c_str(), X_OK) != 0 ||
      (w.grid && access((args.bin_dir + "/tardis_router").c_str(), X_OK) != 0)) {
    Die("server binaries not found in %s", args.bin_dir.c_str());
  }
  double seconds = args.seconds;
  int setups = args.trace == 1 ? 1 : 5;
  double warmup_s = 1.0;
  if (args.smoke) {
    w.preload = std::min<uint32_t>(w.preload, 2000);
    w.mix.keys = std::min<uint64_t>(w.mix.keys, 2000);
    w.ladder_steps = std::min(w.ladder_steps, 2);
    w.ladder_step_s = 0.5;
    seconds = std::min(seconds, 1.0);
    setups = 1;
    warmup_s = 0.2;
  }

  char cwd[4096];
  if (getcwd(cwd, sizeof(cwd)) == nullptr) Die("getcwd failed");
  const std::string run_root = std::string(cwd) + "/.bench_run/" +
                               w.name + "-" + std::to_string(getpid());
  RemoveTree(run_root);
  g_run_root = run_root;

  // ---- set-up, several times; the last one stays up for the load ----------
  std::vector<double> setup_s;
  std::unique_ptr<Topology> topo;
  RunCtx ctx;
  ctx.w = &w;
  ctx.seed = args.seed;
  for (int k = 0; k < setups; k++) {
    if (topo) {
      topo->Kill();
      RemoveTree(topo->root());
    }
    const int64_t t0 = NowNs();
    topo = std::make_unique<Topology>(w, args.bin_dir,
                                      run_root + "/setup" + std::to_string(k));
    topo->Start();
    Preload(w, *topo);
    if (!w.grid) {
      auto a = MakeClient(topo->daemons()[0].client_ep, MixSeed(k, 1), 5000);
      auto b = MakeClient(topo->daemons()[1].client_ep, MixSeed(k, 2), 5000);
      if (!WaitStatesEqual(a.get(), b.get(), 60'000)) {
        Die("the pair never converged after the preload");
      }
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  ctx.topo = topo.get();
  ctx.load.resize(static_cast<size_t>(w.load_conns));
  for (int c = 0; c < w.load_conns; c++) ctx.OpenLoad(c);
  if (w.poller) {
    ctx.poller = MakeClient(topo->daemons()[1].client_ep,
                            MixSeed(args.seed, 200), 5000);
  }
  for (int r = 0; r < w.resolvers; r++) {
    ctx.resolvers.push_back(MakeClient(topo->daemons()[r % 2].client_ep,
                                       MixSeed(args.seed, 300 + r), 30'000));
  }

  uint64_t malformed = 0;
  History history;
  Checks checks;
  uint64_t value_bytes = 0;
  auto account = [&](const PhaseOut& p) {
    malformed += p.malformed();
    AddHistory(p, &history);
    for (size_t c = 0; c < p.conns.size(); c++) {
      for (size_t i = 0; i < p.sched[c].size(); i++) {
        const Op& op = p.sched[c][i];
        if (!p.conns[c].recs[i].ok) continue;
        if (op.verb == Verb::kPut) value_bytes += w.value_bytes;
        if (op.verb == Verb::kMput) value_bytes += 3 * w.value_bytes;
      }
      checks.Require(p.conns[c].missing == 0,
                     "a get of a preloaded key returned NOTFOUND");
    }
    checks.Require(p.markers_lost == 0,
                   "a marker never became visible at site 1 within 5 s");
  };

  // ---- warm-up, then the timed window --------------------------------------
  PhaseOptions main_po;
  main_po.stream = 0;
  main_po.rate = w.rate;
  main_po.seconds = seconds;
  main_po.markers = true;
  main_po.samples = true;
  main_po.resolvers = w.resolvers > 0;
  value_bytes = uint64_t{w.preload} * w.value_bytes;
  {
    PhaseOptions po;
    po.stream = 1;
    po.rate = w.rate;
    po.seconds = warmup_s;
    po.resolvers = w.resolvers > 0;
    account(RunPhase(ctx, po, &malformed));
  }
  const std::vector<pid_t> all_pids = ServerPids(*topo, true, true);
  const std::vector<pid_t> daemon_pids = ServerPids(*topo, true, false);
  const std::vector<pid_t> router_pids = ServerPids(*topo, false, true);
  const Scrapes before = ScrapeAll(ctx);
  uint64_t retries0 = 0, failovers0 = 0;
  for (auto& c : ctx.load) {
    retries0 += c->retries();
    failovers0 += c->failovers();
  }
  const std::pair<double, double> host0 = HostTicks();
  const double cpu0 = CpuSeconds(all_pids);
  const double dcpu0 = CpuSeconds(daemon_pids);
  const double rcpu0 = CpuSeconds(router_pids);
  const PhaseOut main = RunPhase(ctx, main_po, &malformed);
  const double cpu1 = CpuSeconds(all_pids);
  const double dcpu1 = CpuSeconds(daemon_pids);
  const double rcpu1 = CpuSeconds(router_pids);
  uint64_t retries1 = 0, failovers1 = 0;
  for (auto& c : ctx.load) {
    retries1 += c->retries();
    failovers1 += c->failovers();
  }
  const Scrapes after = ScrapeAll(ctx);
  const std::pair<double, double> host1 = HostTicks();
  const double steal_share =
      SafeDiv(host1.second - host0.second, host1.first - host0.first);
  const double rss_all = PeakRssMb(all_pids);
  const double rss_daemons = PeakRssMb(daemon_pids);
  account(main);
  const double dir_bytes =
      w.durable ? static_cast<double>(TreeBytes(topo->daemons()[0].dir)) : 0;
  CheckExactlyOnce(w, main, before, after, &checks);
  const double user_bytes = static_cast<double>(value_bytes);

  // ---- traced window (per-layer run only) -----------------------------------
  PhaseOut traced;
  if (args.trace == 1) {
    PhaseOptions po = main_po;
    po.stream = 2;
    po.traced = true;
    po.samples = false;
    traced = RunPhase(ctx, po, &malformed);
    account(traced);
  }

  // ---- convergence and read-back ---------------------------------------------
  const std::vector<uint32_t> sample = SampleKeys(history, args.seed, 200);
  if (w.counters) {
    // Quiesce, then merge at site 0 only (a merge at site 1 too could cross
    // one from site 0 in flight) and let site 1 catch up. Equal STATES
    // counts can hide a state still in flight each way, and once it lands a
    // site holds two leaves again, so a round passes only when both sites
    // hold one leaf before and after an identical read of every 5th counter
    // key; otherwise it syncs, merges again and retries for up to 20 s.
    std::string l0, l1, why;
    bool converged = false;
    int rounds = 0;
    const int64_t converge_until = NowNs() + 20'000'000'000;
    auto one_leaf = [&] {
      ctx.Site(0)->Call("leaves", &l0);
      ctx.Site(1)->Call("leaves", &l1);
      return l0 == "LEAVES 1" && l1 == "LEAVES 1";
    };
    while (true) {
      rounds++;
      std::string r;
      ctx.Site(0)->Call("sync", &r);
      ctx.Site(1)->Call("sync", &r);
      WaitStatesEqual(ctx.Site(0), ctx.Site(1), 10'000);
      for (int i = 0; i < 50; i++) {
        if (!ctx.Site(0)->Call("merge counter", &r).ok()) break;
        if (ClassifyReply("merge", r) == ReplyKind::kMalformed) malformed++;
        if (r == "NOMERGE") break;
      }
      why.clear();
      if (!WaitStatesEqual(ctx.Site(0), ctx.Site(1), 10'000)) {
        why = "the sites never reached equal STATES";
      } else if (!one_leaf()) {
        why = "the sites hold " + l0 + " / " + l1;
      }
      for (uint32_t k = 0; k < w.preload && why.empty(); k += 5) {
        std::string a, b;
        ctx.Site(0)->Call("get " + KeyName(k), &a);
        ctx.Site(1)->Call("get " + KeyName(k), &b);
        if (a != b || a.compare(0, 6, "VALUE ") != 0) {
          why = "the sites disagree on " + KeyName(k) + ": `" + a + "` vs `" +
                b + "`";
        }
      }
      if (why.empty() && !one_leaf()) {
        why = "the sites hold " + l0 + " / " + l1 + " after the read";
      }
      converged = why.empty();
      if (converged || NowNs() > converge_until) break;
      SleepMs(100);
    }
    if (rounds > 1) {
      fprintf(stderr, "loadgen: note: the convergence check took %d rounds\n",
              rounds);
    }
    checks.Require(converged, "pair-merge did not converge: " + why);
  } else if (!w.grid) {
    std::string r;
    ctx.Site(0)->Call("sync", &r);
    ctx.Site(1)->Call("sync", &r);
    checks.Require(WaitStatesEqual(ctx.Site(0), ctx.Site(1), 30'000),
                   "pair-rw sites never reached equal STATES after sync");
    for (uint32_t k : sample) {
      std::string a, b;
      ctx.load[0]->Call("get " + KeyName(k), &a);
      ctx.poller->Call("get " + KeyName(k), &b);
      const std::string bad = CheckRead(w, k, history[k], a);
      if (!bad.empty()) {
        checks.failures.push_back("site 0: " + bad);
        break;
      }
      if (a != b) {
        checks.failures.push_back("site 1 disagrees with site 0 on " +
                                  KeyName(k));
        break;
      }
    }
  } else {
    for (uint32_t k : sample) {
      std::string a;
      ctx.load[0]->Call(WireLine(w, "get " + KeyName(k), k, 1, false), &a);
      const std::string bad = CheckRead(w, k, history[k], a);
      if (!bad.empty()) {
        checks.failures.push_back("grid: " + bad);
        break;
      }
    }
  }

  // ---- recovery: SIGTERM site 0, restart it on its dir ------------------------
  // Before the ladder, so the commit log it replays has the same length in
  // every run.
  double recovery_s = 0;
  if (w.durable && args.trace == 0) {
    ctx.load.clear();  // no connection stays open across the restarts
    ctx.poller.reset();
    // Five drain/restart cycles; recovery_s is their median.
    Daemon& d0 = topo->daemons()[0];
    const std::string probe = "get " + KeyName(sample.empty() ? 0 : sample[0]);
    std::vector<double> restarts;
    for (int round = 0; round < 5; round++) {
      checks.Require(d0.proc->Terminate(20'000),
                     "site 0 did not drain on SIGTERM");
      const int64_t t0 = NowNs();
      topo->Respawn(0);
      bool up = false;
      while (!up && NowNs() - t0 < 60'000'000'000) {
        std::string r;
        up = Ask(d0.client_ep, probe, &r, 300) &&
             ClassifyReply("get", r) == ReplyKind::kOk;
        if (!up) SleepMs(2);
      }
      restarts.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      checks.Require(up, "site 0 did not answer a get within 60 s of restart");
      if (!up) break;
    }
    recovery_s = Percentile(&restarts, 0.5);
    auto cl = MakeClient(d0.client_ep, MixSeed(args.seed, 400), 5000);
    for (uint32_t k : sample) {
      std::string a;
      cl->Call("get " + KeyName(k), &a);
      const std::string bad = CheckRead(w, k, history[k], a);
      if (!bad.empty()) {
        checks.failures.push_back("after restart: " + bad);
        break;
      }
    }
  }
  if (ctx.load.empty()) {
    // Reconnect and warm the restarted site before the ladder.
    ctx.load.resize(static_cast<size_t>(w.load_conns));
    for (int c = 0; c < w.load_conns; c++) ctx.OpenLoad(c);
    PhaseOptions po;
    po.stream = 3;
    po.rate = w.rate;
    po.seconds = warmup_s;
    account(RunPhase(ctx, po, &malformed));
  }

  // ---- capacity ladder (per-layer run only) ----------------------------------
  double capacity = 0;
  int ladder_probes = 0;
  if (args.trace == 1 && w.ladder_steps > 0) {
    const std::vector<double> rates =
        LadderRates(w.rate, kLadderFactor, w.ladder_steps);
    auto probe = [&](int i, int attempt) {
      PhaseOptions po;
      po.stream = 100 + static_cast<uint64_t>(i) + 1000 * attempt;
      po.rate = rates[static_cast<size_t>(i)];
      po.seconds = w.ladder_step_s;
      po.overrun_ms = 500;
      const PhaseOut p = RunPhase(ctx, po, &malformed);
      account(p);
      const StepResult r = Step(p, po.rate);
      const bool pass = StepPasses(r, w.limit_ms);
      ladder_probes++;
      fprintf(stderr, "loadgen: ladder step %d rate=%.0f:", i, po.rate);
      for (const auto& [verb, p99] : r.p99_ms) {
        fprintf(stderr, " %s_p99=%.3fms", verb.c_str(), p99);
      }
      fprintf(stderr, " late2=%.3fms err=%.5f -> %s\n", r.late_second_half_ms,
              r.error_share, pass ? "pass" : "fail");
      SleepMs(300);
      return pass;
    };
    // A step fails only when a second attempt fails too, so one transient
    // host stall does not set the capacity.
    const int best = LadderSearch(w.ladder_steps, [&](int i) {
      return probe(i, 0) || probe(i, 1);
    });
    capacity = best >= 0 ? rates[static_cast<size_t>(best)] : 0;
  }

  ctx.load.clear();
  ctx.poller.reset();
  ctx.resolvers.clear();
  checks.Require(malformed == 0, "a reply did not match its verb's grammar");
  for (const ConnOut& c : main.conns) {
    if (c.malformed > 0) {
      checks.failures.push_back("malformed reply: `" + c.malformed_example + "`");
    }
  }
  if (!topo->Terminate()) {
    fprintf(stderr, "loadgen: warning: a server did not exit cleanly on SIGTERM\n");
  }
  topo.reset();

  // ---- metrics ------------------------------------------------------------------
  const Counts counts = CountOps(main);
  auto lat = Latencies(main);
  std::vector<double> late = Lateness(main);
  double late_share = 0;
  for (double l : late) late_share += l > 1.0 ? 1 : 0;
  late_share = SafeDiv(late_share, static_cast<double>(late.size()));
  const double completed =
      static_cast<double>(counts.attempted - counts.failed);
  Report rep;
  std::string growth_note;
  // Latencies and capacity_ops follow host CPU steal beyond any usable
  // bound on the reference host (README.md, "Runs"): BENCHMARK.json lists
  // them as per-layer metrics. Both runs print the latency medians.
  const bool e2e = args.trace == 0;
  // Host steal of each 1-s sub-window, from connection 0's readings
  // between the ones taken just before and after the window.
  const int subwindows = std::max(1, static_cast<int>(seconds));
  std::vector<HostSample> readings = main.conns[0].host;
  readings.push_back({0, host0.first, host0.second});
  std::sort(readings.begin(), readings.end(),
            [](const HostSample& a, const HostSample& b) { return a.t < b.t; });
  readings.push_back({std::max(seconds, readings.back().t), host1.first,
                      host1.second});
  const std::vector<double> window_steal =
      WindowSteal(readings, seconds, subwindows);
  const int calm = std::max(1, subwindows / kCalmShare);
  std::vector<double> steal_sorted = window_steal;
  std::sort(steal_sorted.begin(), steal_sorted.end());
  const double calm_steal = steal_sorted[static_cast<size_t>(calm - 1)];
  // Medians come from the calmest sub-windows (README.md, "Medians"); tails
  // are the median of per-sub-window tails (README.md, "Tails").
  auto timing = [&](const std::string& name, const std::vector<TimedSample>& v,
                    double tail, const char* tail_name, bool tail_e2e) {
    std::vector<double> values;
    for (const TimedSample& x : v) values.push_back(x.value);
    const size_t n = values.size();
    CheckTail(name + " latency", n, tail);
    int median_windows = 1;
    const double all =
        WindowedQuantile(v, seconds, subwindows, 0.5, &median_windows);
    char note[128];
    if (median_windows == subwindows) {
      snprintf(note, sizeof(note),
               "n=%zu, median of the %d calmest of %d sub-windows (steal "
               "<= %.1f%%); of all: %.4f",
               n, calm, subwindows, calm_steal * 100, all);
      rep.Add(name + "_p50_ms",
              CalmQuantile(v, seconds, window_steal, calm, 0.5), "ms", note);
    } else {
      snprintf(note, sizeof(note), "n=%zu, median of %d sub-windows", n,
               median_windows);
      rep.Add(name + "_p50_ms", all, "ms", note);
    }
    if (e2e == tail_e2e) {
      // 1-s sub-windows, fewer when the tail needs more samples.
      int windows = 1;
      const double t = WindowedQuantile(v, seconds, subwindows, tail, &windows);
      snprintf(note, sizeof(note),
               "n=%zu, median of %d sub-windows; whole-window %.3f / %.3f", n,
               windows, Q(values, 0.5), Q(values, tail));
      rep.Add(name + tail_name, t, "ms", note);
    }
  };
  if (e2e) {
    std::vector<double> setup_copy = setup_s;
    rep.Add("setup_s", Percentile(&setup_copy, 0.5), "s",
            N(setup_s.size()) + " set-ups");
  }
  // A metric is reported only where the workload measures it; --emit
  // picks the result line's metrics from these.
  for (const char* verb : {"put", "get", "mput"}) {
    auto it = lat.find(verb);
    if (it != lat.end()) timing(verb, it->second, 0.99, "_p99_ms", false);
  }
  if (w.resolvers > 0) {
    std::vector<TimedSample> m;
    for (const MergeRec& r : main.merges) {
      if (r.ok) {
        m.push_back({static_cast<double>(r.send - main.start) / 1e9,
                     static_cast<double>(r.done - r.send) / 1e6});
      }
    }
    timing("merge", m, 0.9, "_p90_ms", true);
    // History growth: merge cost in the first and the last fifth.
    std::vector<TimedSample> first, last;
    for (const TimedSample& x : m) {
      if (x.t < seconds / 5) first.push_back(x);
      if (x.t >= seconds * 4 / 5) last.push_back(x);
    }
    growth_note = "merge p50 first fifth " +
                  std::to_string(WindowedQuantile(first, seconds, 1, 0.5)) +
                  " ms, last fifth " +
                  std::to_string(WindowedQuantile(last, seconds, 1, 0.5)) +
                  " ms";
  }
  if (w.poller) {
    timing("repl_visible", main.visible_ms, 0.99, "_p99_ms", false);
  }
  if (!e2e && w.ladder_steps > 0) {
    rep.Add("capacity_ops", capacity, "ops/s",
            std::to_string(ladder_probes) + " ladder probes");
  }
  if (e2e) {
    rep.Add("error_share", ErrorShareUpper(counts.failed, counts.attempted),
            "fraction",
            std::to_string(counts.failed) + " of " +
                std::to_string(counts.attempted) + " failed (95% upper bound)");
    rep.Add("rss_mb", rss_all, "MiB", "peak, all servers");
    rep.Add("cpu_us_per_op", SafeDiv((cpu1 - cpu0) * 1e6, completed), "us",
            N(static_cast<size_t>(completed)) + " ops");
    if (w.durable) rep.Add("recovery_s", recovery_s, "s", "median of 5 restarts");
  }
  if (args.trace == 1) {
    const std::vector<size_t> load_sites =
        w.poller ? std::vector<size_t>{0} : std::vector<size_t>{0, 1};
    const std::vector<size_t> all_sites = {0, 1};
    auto stage = [&](const char* name, const std::vector<size_t>& sites) {
      return DaemonHist(before, after, "tardis_stage_micros",
                        {{"stage", name}}, sites);
    };
    auto add_pcts = [&](const std::string& prefix, const HistDelta& h,
                        const std::string& suffix50,
                        const std::string& suffix99) {
      const size_t n = static_cast<size_t>(h.count);
      if (n == 0) return;
      rep.Add(prefix + suffix50, h.Quantile(0.5), "us", N(n));
      rep.Add(prefix + suffix99, h.Quantile(0.99), "us", N(n));
    };
    auto delta = [&](const char* name, const Labels& match = {}) {
      return DaemonDelta(before, after, name, match);
    };
    std::vector<double> late99 = late;
    rep.Add("gen.late_p99_ms", Percentile(&late99, 0.99), "ms", N(late.size()));
    rep.Add("gen.late_share", late_share, "fraction", "sent > 1 ms late");

    std::map<std::string, std::vector<double>> service;  // verb -> us
    std::vector<double> service_all;
    for (const ConnOut& c : traced.conns) {
      for (const SpanRec& sp : c.spans) {
        if (std::string(sp.name) == "sample") continue;
        const double us = static_cast<double>(sp.dur) / 1e3;
        service[std::string(sp.name) == "marker" ? "put" : sp.name].push_back(us);
        service_all.push_back(us);
      }
    }
    rep.Add("client.service_p50_us", Q(service_all, 0.5), "us",
            N(service_all.size()));
    rep.Add("client.service_p99_us", Q(service_all, 0.99), "us",
            N(service_all.size()));
    rep.Add("client.retries_per_kop",
            SafeDiv(static_cast<double>(retries1 - retries0) * 1000,
                    static_cast<double>(counts.attempted)),
            "1/kop");
    rep.Add("client.failovers", static_cast<double>(failovers1 - failovers0),
            "count");

    add_pcts("tardisd.queue_wait_us", stage("queue_wait", load_sites), "_p50",
             "_p99");
    double queue_max = DaemonMax(after, "tardisd_queue_depth");
    double pending_max = DaemonMax(after, "tardis_repl_pending");
    double in_doubt_max = DaemonMax(after, "tardis_2pc_in_doubt");
    double leaves_max = DaemonMax(after, "tardis_dag_leaves");
    for (const ConnOut& c : main.conns) {
      queue_max = std::max(queue_max, c.queue_max);
      pending_max = std::max(pending_max, c.pending_max);
      in_doubt_max = std::max(in_doubt_max, c.in_doubt_max);
      leaves_max = std::max(leaves_max, c.leaves_max);
    }
    rep.Add("tardisd.queue_depth_max", queue_max, "count", "sampled");
    rep.Add("tardisd.shed", delta("tardisd_shed_total"), "count");
    rep.Add("tardisd.expired", delta("tardisd_deadline_expired_total"), "count");
    rep.Add("tardisd.cpu_us_per_op", SafeDiv((dcpu1 - dcpu0) * 1e6, completed),
            "us");
    rep.Add("tardisd.rss_mb", rss_daemons, "MiB");

    const HistDelta commit =
        DaemonHist(before, after, "tardis_commit_latency_us", {}, load_sites);
    add_pcts("core.commit_us", commit, "_p50", "_p99");
    add_pcts("core.commit_select_us", stage("commit_select", load_sites),
             "_p50", "_p99");
    add_pcts("core.merge_us",
             DaemonHist(before, after, "tardis_merge_latency_us", {}, all_sites),
             "_p50", "_p99");
    const double commits = delta("tardis_txn_commits_total");
    const double forks = delta("tardis_txn_forks_total");
    rep.Add("core.commits", commits, "count");
    rep.Add("core.forks", forks, "count");
    rep.Add("core.merges", delta("tardis_txn_merges_total"), "count");
    rep.Add("core.read_only_commits", delta("tardis_txn_read_only_commits_total"),
            "count");
    rep.Add("core.aborts", delta("tardis_txn_aborts_total"), "count");
    rep.Add("core.fork_share",
            SafeDiv(forks, commits + delta("tardis_txn_remote_applied_total")),
            "fraction");
    double merged = 0, merge_calls = 0;
    for (const MergeRec& m : main.merges) {
      if (!m.ok) continue;
      merge_calls++;
      merged += m.merged ? 1 : 0;
    }
    if (w.resolvers > 0) {
      rep.Add("core.merge_useful_share", SafeDiv(merged, merge_calls),
              "fraction", N(static_cast<size_t>(merge_calls)));
    }
    rep.Add("core.dag_states_end", DaemonMax(after, "tardis_dag_states"),
            "count");
    rep.Add("core.dag_leaves_max", leaves_max, "count", "sampled");
    rep.Add("core.gc_runs", delta("tardis_gc_runs_total"), "count");
    rep.Add("core.dedup_hits", delta("tardis_session_dedup_hits"), "count");
    rep.Add("core.dedup_duplicates", delta("tardis_session_dedup_duplicates"),
            "count");

    const HistDelta fsync = stage("wal_fsync", load_sites);
    add_pcts("storage.wal_fsync_us", fsync, "_p50", "_p99");
    if (w.durable) {
      rep.Add("storage.bytes_per_user_byte", SafeDiv(dir_bytes, user_bytes),
              "ratio", "site 0 dir");
    }

    const HistDelta repl_send = stage("repl_send", load_sites);
    add_pcts("replication.send_us", repl_send, "_p50", "_p99");
    rep.Add("replication.sent", delta("tardis_repl_sent_total"), "count");
    rep.Add("replication.applied", delta("tardis_repl_applied_total"), "count");
    rep.Add("replication.deferred", delta("tardis_repl_deferred_total"), "count");
    rep.Add("replication.pending_max", pending_max, "count", "sampled");
    rep.Add("net.bytes_sent_per_op",
            SafeDiv(delta("tardis_net_bytes_sent_total"), completed), "bytes");
    rep.Add("net.reconnects", delta("tardis_net_reconnects_total"), "count");

    rep.Add("cluster.fast_requests",
            DeltaSeries(before.router, after.router, "tardis_router_requests",
                        {{"path", "fast"}}),
            "count");
    rep.Add("cluster.twopc_requests",
            DeltaSeries(before.router, after.router, "tardis_router_requests",
                        {{"path", "2pc"}}),
            "count");
    rep.Add("cluster.forked_commits",
            DeltaSeries(before.router, after.router, "tardis_2pc_forked_commits"),
            "count");
    rep.Add("cluster.in_doubt_max", in_doubt_max, "count", "sampled");
    HistDelta prepare;
    if (w.grid &&
        !DeltaHistogram(before.router, after.router, "tardis_stage_micros",
                        {{"stage", "prepare_rtt"}}, &prepare)) {
      Die("router prepare_rtt histogram is not cumulative");
    }
    add_pcts("cluster.prepare_rtt_us", prepare, "_p50", "_p99");
    add_pcts("cluster.decide_apply_us", stage("decide_apply", all_sites), "_p50",
             "_p99");
    if (w.grid) {
      rep.Add("cluster.router_cpu_us_per_op",
              SafeDiv((rcpu1 - rcpu0) * 1e6, completed), "us");
    }

    SpanMap inproc =
        Replay(w, args.seed, w.rate, seconds, run_root + "/inproc");
    auto ip = [&](const std::string& metric, const char* span, double q) {
      const std::vector<double>& v = inproc[span];
      if (!v.empty()) rep.Add(metric, Q(v, q), "us", N(v.size()));
    };
    ip("core.inproc.begin_us_p50", "begin", 0.5);
    ip("core.inproc.get_us_p50", "get", 0.5);
    ip("core.inproc.put_us_p50", "put", 0.5);
    ip("core.inproc.commit_us_p50", "commit", 0.5);
    ip("core.inproc.commit_us_p99", "commit", 0.99);
    ip("core.inproc.begin_merge_us_p50", "begin_merge", 0.5);
    ip("core.inproc.find_fork_points_us_p50", "find_fork_points", 0.5);
    ip("core.inproc.find_conflict_writes_us_p50", "find_conflict_writes", 0.5);
    ip("core.inproc.get_for_id_us_p50", "get_for_id", 0.5);
    ip("core.inproc.merge_commit_us_p50", "merge_commit", 0.5);
    ip("core.inproc.find_conflict_writes_us_p99", "find_conflict_writes", 0.99);
    ip("storage.inproc.commit_durable_us_p50", "commit_durable", 0.5);
    ip("replication.inproc.apply_us_p50", "apply", 0.5);

    auto median = [](const std::vector<TimedSample>& v) {
      std::vector<double> values;
      for (const TimedSample& x : v) values.push_back(x.value);
      return Q(values, 0.5);
    };
    rep.Add("trace.overhead_share",
            SafeDiv(median(Latencies(traced)["put"]),
                    median(Latencies(main)["put"])) - 1,
            "fraction",
            "traced vs untraced put p50");
    const double attributed = stage("queue_wait", load_sites).Quantile(0.5) +
                              commit.Quantile(0.5) + repl_send.Quantile(0.5);
    const double put_service = Q(service["put"], 0.5);
    rep.Add("trace.unattributed_share",
            put_service > 0 ? 1 - attributed / put_service : 0, "fraction",
            "put: 1 - (queue_wait + commit + repl_send) / service");
    const std::string spans_dir = std::string(cwd) + "/.bench_out";
    MakeDirs(spans_dir);
    std::vector<SpanRec> all_spans;
    for (const ConnOut& c : traced.conns) {
      all_spans.insert(all_spans.end(), c.spans.begin(), c.spans.end());
    }
    WriteSpans(spans_dir + "/spans-" + w.name + "-seed" +
                   std::to_string(args.seed) + ".json",
               all_spans, traced.start);
  }

  // ---- output ---------------------------------------------------------------------
  printf("workload %s seed %llu seconds %g trace %d rate %.0f ops/s; %s; "
         "host CPU steal %.1f%% during the window\n",
         w.name.c_str(), static_cast<unsigned long long>(args.seed), seconds,
         args.trace, w.rate, g_placement.c_str(), steal_share * 100);
  for (size_t i = 0; i < rep.metrics.size(); i++) {
    printf("  %-40s %16.6f %-9s %s\n", rep.metrics[i].name.c_str(),
           rep.metrics[i].value, rep.metrics[i].unit.c_str(),
           rep.notes[i].c_str());
  }
  if (!growth_note.empty()) printf("  (%s)\n", growth_note.c_str());
  if (late_share > 0.05) {
    printf("WARNING: the generator fell behind: %.1f%% of requests were sent "
           "more than 1 ms late\n", late_share * 100);
  }
  for (const std::string& f : checks.failures) {
    printf("CHECK FAILED: %s\n", f.c_str());
  }
  const bool correct = checks.failures.empty();
  std::vector<Metric> result = rep.metrics;
  if (!args.emit.empty()) {
    result.clear();
    for (const Metric& want : args.emit) {
      auto it = std::find_if(rep.metrics.begin(), rep.metrics.end(),
                             [&](const Metric& m) { return m.name == want.name; });
      if (it == rep.metrics.end() || it->unit != want.unit) {
        Die("%s (%s) is not measured by %s with --trace %d", want.name.c_str(),
            want.unit.c_str(), w.name.c_str(), args.trace);
      }
      result.push_back(*it);
    }
  }
  printf("%s\n", ResultJson(correct, counts.attempted, counts.failed, result)
                     .c_str());
  fflush(stdout);
  RemoveTree(run_root);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  using namespace e2ebench;
  signal(SIGPIPE, SIG_IGN);
  signal(SIGALRM, OnWatchdog);
  signal(SIGTERM, OnWatchdog);
  signal(SIGINT, OnWatchdog);
  alarm(170);
  prctl(PR_SET_TIMERSLACK, 1UL);
  PinDriver();
  return Run(ParseArgs(argc, argv));
}
