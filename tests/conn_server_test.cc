// ConnServer (src/net/conn_server.h): pipelining and reply order, the
// line/frame/HTTP splitters and their caps, drain with idle connections,
// replies that arrive after the peer left — in process — plus the two
// server binaries' port-flag checks, overlong-line handling and metrics
// drain, run against the built tardisd and tardis-router.

#include "net/conn_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/wire.h"
#include "obs/metrics.h"
#include "util/clock.h"

namespace tardis {
namespace {

int Dial(uint16_t port, int rcvbuf = 0) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (rcvbuf > 0) {
    setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  timeval timeout{5, 0};  // a lost reply fails the test, not hangs it
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool WriteAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Reads until `want` bytes arrived, the peer closed, or the receive
/// timeout hit.
std::string ReadUpTo(int fd, size_t want) {
  std::string in;
  char buf[65536];
  while (in.size() < want) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    in.append(buf, static_cast<size_t>(n));
  }
  return in;
}

/// Everything until the peer closes (or the receive timeout hits).
std::string ReadToClose(int fd) { return ReadUpTo(fd, SIZE_MAX); }

/// True once the peer has closed the connection (not a timeout).
bool PeerClosed(int fd) {
  char c;
  const ssize_t n = ::read(fd, &c, 1);
  return n == 0 || (n < 0 && errno == ECONNRESET);
}

uint16_t FreePort() {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  ::close(fd);
  return ntohs(addr.sin_port);
}

/// Answers every queued message from its own thread, the way tardisd's
/// workers do: `fn` maps a message to its reply bytes.
class Worker {
 public:
  Worker(ConnServer* server, std::function<std::string(const std::string&)> fn)
      : server_(server), fn_(std::move(fn)), thread_([this] { Run(); }) {}
  ~Worker() {
    server_->Stop();  // no more Push from the loop thread
    {
      std::lock_guard<std::mutex> guard(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  void Push(const ConnPtr& conn, std::string msg) {
    {
      std::lock_guard<std::mutex> guard(mu_);
      queue_.emplace_back(conn, std::move(msg));
    }
    cv_.notify_one();
  }

 private:
  void Run() {
    while (true) {
      std::pair<ConnPtr, std::string> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      server_->Reply(job.first, fn_(job.second));
    }
  }

  ConnServer* const server_;
  const std::function<std::string(const std::string&)> fn_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::pair<ConnPtr, std::string>> queue_;
  bool stop_ = false;
  std::thread thread_;
};

TEST(ConnServerTest, PipelinedLinesAnsweredInOrderPastSendBuffer) {
  // One reply is far larger than the socket send buffer, so the replies
  // behind it queue after a partial write and must still leave in order.
  const std::string big(8u << 20, 'x');
  ConnServer server;
  Worker worker(&server, [&](const std::string& line) {
    return (line == "big" ? big : line) + "\n";
  });
  auto port = server.Listen(0, Splitter::Line(),
                            [&](const ConnPtr& conn, std::string line) {
                              worker.Push(conn, std::move(line));
                            });
  ASSERT_TRUE(port.ok());
  server.Start();

  std::string requests;
  std::string expected;
  for (int i = 0; i < 200; i++) {
    const std::string line = i == 100 ? "big" : "l" + std::to_string(i);
    requests += line + (i % 3 == 0 ? "\r\n" : "\n");
    if (i % 50 == 0) requests += "\n";  // empty lines are skipped
    expected += (i == 100 ? big : line) + "\n";
  }
  const int fd = Dial(*port, 4096);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(WriteAll(fd, requests));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const std::string got = ReadUpTo(fd, expected.size());
  ::close(fd);
  ASSERT_EQ(got.size(), expected.size());
  EXPECT_TRUE(got == expected) << "replies out of order or torn";
}

TEST(ConnServerTest, UnreadRepliesStopDispatchUntilTheClientReads) {
  // A client pipelines thousands of requests and reads nothing. Once the
  // unsent replies pass the splitter's cap the server stops dispatching
  // instead of buffering every reply; once the client reads, the rest
  // are dispatched and every reply arrives, in order.
  constexpr int kLines = 10000;
  const std::string pad(4096, 'p');
  std::atomic<int> dispatched{0};
  ConnServer server;
  auto port = server.Listen(0, Splitter::Line(),
                            [&](const ConnPtr& conn, std::string line) {
                              dispatched++;
                              server.Reply(conn, line + pad + "\n");
                            });
  ASSERT_TRUE(port.ok());
  server.Start();

  std::string requests;
  std::string expected;
  for (int i = 0; i < kLines; i++) {
    requests += std::to_string(i) + "\n";
    expected += std::to_string(i) + pad + "\n";
  }
  const int fd = Dial(*port, 4096);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(WriteAll(fd, requests));

  // Wait until the dispatch count holds still for 300 ms.
  int last = -1;
  uint64_t still_since = NowMillis();
  const uint64_t deadline = NowMillis() + 10000;
  while (NowMillis() < deadline && NowMillis() - still_since < 300) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const int now = dispatched.load();
    if (now != last) {
      last = now;
      still_since = NowMillis();
    }
  }
  EXPECT_LT(last, kLines) << "every request dispatched while nobody read";
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(dispatched.load(), last) << "dispatch resumed without a read";

  const std::string got = ReadUpTo(fd, expected.size());
  ::close(fd);
  EXPECT_EQ(dispatched.load(), kLines);
  ASSERT_EQ(got.size(), expected.size());
  EXPECT_TRUE(got == expected) << "replies out of order or torn";
}

TEST(ConnServerTest, FrameSplitAcrossWritesAndCorruptFrameCloses) {
  ConnServer server;
  auto port = server.Listen(
      0, Splitter::Frame(), [&](const ConnPtr& conn, std::string payload) {
        ReplMessage msg;
        if (!DecodeReplMessage(Slice(payload), &msg).ok()) {
          server.Reply(conn, "", /*close=*/true);
          return;
        }
        msg.type = ReplMessage::Type::kRouteReply;
        msg.text = "echo:" + msg.text;
        std::string frame;
        EncodeFrame(msg, &frame);
        server.Reply(conn, frame);
      });
  ASSERT_TRUE(port.ok());
  server.Start();

  ReplMessage req;
  req.type = ReplMessage::Type::kRoute;
  req.txn_id = 42;
  req.text = "get k";
  std::string frame;
  EncodeFrame(req, &frame);
  const int fd = Dial(*port);
  ASSERT_GE(fd, 0);
  // Header split in the middle, payload split again.
  for (size_t cut : {size_t{0}, size_t{3}, size_t{11}}) {
    const size_t next = cut == 0 ? 3 : cut == 3 ? 11 : frame.size();
    ASSERT_TRUE(WriteAll(fd, frame.substr(cut, next - cut)));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::string in;
  ReplMessage reply;
  size_t consumed = 0;
  while (consumed == 0) {
    const std::string more = ReadUpTo(fd, 1);
    ASSERT_FALSE(more.empty()) << "no reply frame";
    in += more;
    ASSERT_TRUE(DecodeFrame(Slice(in), &reply, &consumed).ok());
  }
  EXPECT_EQ(reply.type, ReplMessage::Type::kRouteReply);
  EXPECT_EQ(reply.txn_id, 42u);
  EXPECT_EQ(reply.text, "echo:get k");

  // A flipped payload byte fails the CRC: the connection closes without
  // the handler seeing the frame.
  std::string corrupt = frame;
  corrupt[kWireHeaderBytes + 2] ^= 0x5a;
  ASSERT_TRUE(WriteAll(fd, corrupt));
  EXPECT_TRUE(PeerClosed(fd));
  ::close(fd);

  // So does a hostile length prefix, before any payload is buffered.
  const int fd2 = Dial(*port);
  ASSERT_GE(fd2, 0);
  ASSERT_TRUE(WriteAll(fd2, std::string(8, '\xff')));
  EXPECT_TRUE(PeerClosed(fd2));
  ::close(fd2);
}

TEST(ConnServerTest, LineOverCapAnsweredThenClosed) {
  ConnServer server;
  auto port = server.Listen(0, Splitter::Line(64),
                            [&](const ConnPtr& conn, std::string line) {
                              server.Reply(conn, line + "\n");
                            });
  ASSERT_TRUE(port.ok());
  server.Start();
  const int fd = Dial(*port);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(WriteAll(fd, "ok\n" + std::string(200, 'a')));
  EXPECT_EQ(ReadToClose(fd), "ok\nERR line too long\n");
  ::close(fd);
}

TEST(ConnServerTest, IdleMetricsConnectionDelaysNeitherScrapeNorDrain) {
  obs::MetricsRegistry registry;
  registry.RegisterCounter("conn_server_test_total", "test counter", {})
      ->Increment();
  ConnServer server;
  auto port = ServeMetricsHttp(&server, 0, &registry);
  ASSERT_TRUE(port.ok());
  server.Start();

  const int idle = Dial(*port);  // connects, never sends a byte
  ASSERT_GE(idle, 0);
  const int fd = Dial(*port);
  ASSERT_GE(fd, 0);
  const uint64_t start = NowMillis();
  ASSERT_TRUE(WriteAll(fd, "GET /metrics HTTP/1.0\r\n\r\n"));
  const std::string resp = ReadToClose(fd);
  ::close(fd);
  EXPECT_LT(NowMillis() - start, 1000u);
  EXPECT_EQ(resp.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << resp;
  EXPECT_NE(resp.find("conn_server_test_total 1"), std::string::npos);

  server.BeginDrain();
  EXPECT_TRUE(server.WaitDrained(1000));
  EXPECT_LT(NowMillis() - start, 2000u);
  EXPECT_LT(Dial(*port), 0) << "listener still open after BeginDrain";
  ::close(idle);
}

TEST(ConnServerTest, ReplyAfterPeerClosedIsDropped) {
  ConnServer server;
  std::promise<ConnPtr> held;
  auto port = server.Listen(0, Splitter::Line(),
                            [&](const ConnPtr& conn, std::string line) {
                              if (std::string_view(line) == "hold") {
                                held.set_value(conn);
                              } else {
                                server.Reply(conn, line + "\n");
                              }
                            });
  ASSERT_TRUE(port.ok());
  server.Start();

  const int fd = Dial(*port);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(WriteAll(fd, "hold\n"));
  ConnPtr conn = held.get_future().get();
  ::close(fd);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread late([&] { server.Reply(conn, "late\n"); });
  late.join();
  conn.reset();

  const int fd2 = Dial(*port);
  ASSERT_GE(fd2, 0);
  ASSERT_TRUE(WriteAll(fd2, "ping\n"));
  EXPECT_EQ(ReadUpTo(fd2, 5), "ping\n");
  ::close(fd2);
}

TEST(ConnServerTest, TickRunsOnTheLoop) {
  std::atomic<int> ticks{0};
  ConnServer server(ConnServer::Options{10, [&] { ticks++; }});
  server.Start();
  const uint64_t deadline = NowMillis() + 5000;
  while (ticks.load() < 3 && NowMillis() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(ticks.load(), 3);
}

// ---- the server binaries ---------------------------------------------------

/// TARDISD_BIN names the built daemon; tardis-router is built next to it.
std::string TardisdBinary() {
  const char* bin = ::getenv("TARDISD_BIN");
  return bin != nullptr ? bin : "";
}

std::string RouterBinary() {
  const std::string tardisd = TardisdBinary();
  const size_t slash = tardisd.rfind('/');
  if (slash == std::string::npos) return "";
  return tardisd.substr(0, slash + 1) + "tardis_router";
}

pid_t Spawn(const std::string& bin, const std::vector<std::string>& args) {
  const pid_t pid = fork();
  if (pid == 0) {
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(bin.c_str()));
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    freopen("/dev/null", "w", stdout);
    freopen("/dev/null", "w", stderr);
    execv(bin.c_str(), argv.data());
    _exit(127);
  }
  return pid;
}

/// The exit status, or -1 (after killing it) if the process was still
/// running after `timeout_ms`.
int WaitExit(pid_t pid, uint64_t timeout_ms) {
  const uint64_t deadline = NowMillis() + timeout_ms;
  while (NowMillis() < deadline) {
    int status = 0;
    if (waitpid(pid, &status, WNOHANG) == pid) {
      return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  kill(pid, SIGKILL);
  waitpid(pid, nullptr, 0);
  return -1;
}

bool WaitListening(uint16_t port) {
  const uint64_t deadline = NowMillis() + 10'000;
  while (NowMillis() < deadline) {
    const int fd = Dial(port);
    if (fd >= 0) {
      ::close(fd);
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

TEST(ServerBinariesTest, BadPortFlagsExitWithUsage) {
  const std::string tardisd = TardisdBinary();
  const std::string router = RouterBinary();
  ASSERT_EQ(access(tardisd.c_str(), X_OK), 0) << "TARDISD_BIN not runnable";
  ASSERT_EQ(access(router.c_str(), X_OK), 0) << "no tardis_router beside it";
  const std::string peers = "--peers=127.0.0.1:" + std::to_string(FreePort()) +
                            ",127.0.0.1:" + std::to_string(FreePort());
  const std::string client = "--client-port=" + std::to_string(FreePort());
  const std::vector<std::vector<std::string>> daemon_cases = {
      {"--site=0", peers, "--client-port=70000"},
      {"--site=0", peers, "--client-port=80x"},
      {"--site=0", peers, client, "--metrics-port=65536"},
      {"--site=0", peers, client, "--coord-port=-1"},
  };
  for (const auto& args : daemon_cases) {
    EXPECT_EQ(WaitExit(Spawn(tardisd, args), 5000), 2) << args.back();
  }
  const std::string partitions = "--partitions=127.0.0.1:1";
  const std::vector<std::vector<std::string>> router_cases = {
      {"--port=70000", partitions},
      {"--port=", partitions},
      {"--port=" + std::to_string(FreePort()), "--metrics-port=abc",
       partitions},
  };
  for (const auto& args : router_cases) {
    EXPECT_EQ(WaitExit(Spawn(router, args), 5000), 2) << args[0];
  }
}

TEST(ServerBinariesTest, RouterAnswersOverlongLineThenCloses) {
  const std::string router = RouterBinary();
  ASSERT_EQ(access(router.c_str(), X_OK), 0) << "no tardis_router beside it";
  const uint16_t port = FreePort();
  const pid_t pid = Spawn(router, {"--port=" + std::to_string(port),
                                   "--partitions=127.0.0.1:1"});
  ASSERT_TRUE(WaitListening(port));
  const int fd = Dial(port);
  ASSERT_GE(fd, 0);
  // Past the 1 MiB line cap, without a newline.
  WriteAll(fd, std::string((1u << 20) + 4096, 'k'));
  EXPECT_EQ(ReadToClose(fd), "ERR line too long\n");
  ::close(fd);
  kill(pid, SIGTERM);
  EXPECT_EQ(WaitExit(pid, 5000), 0);
}

TEST(ServerBinariesTest, TardisdIdleMetricsConnectionDelaysNeitherScrapeNorDrain) {
  const std::string tardisd = TardisdBinary();
  ASSERT_EQ(access(tardisd.c_str(), X_OK), 0) << "TARDISD_BIN not runnable";
  const uint16_t client_port = FreePort();
  const uint16_t metrics_port = FreePort();
  const pid_t pid = Spawn(
      tardisd,
      // The second site is a ghost on a port nothing listens on.
      {"--site=0", "--peers=127.0.0.1:" + std::to_string(FreePort()) +
                       ",127.0.0.1:1",
       "--client-port=" + std::to_string(client_port),
       "--metrics-port=" + std::to_string(metrics_port)});
  ASSERT_TRUE(WaitListening(client_port));
  ASSERT_TRUE(WaitListening(metrics_port));

  const int idle = Dial(metrics_port);  // connects, never sends a byte
  ASSERT_GE(idle, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const int fd = Dial(metrics_port);
  ASSERT_GE(fd, 0);
  timeval timeout{2, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ASSERT_TRUE(WriteAll(fd, "GET /metrics HTTP/1.0\r\n\r\n"));
  const std::string resp = ReadToClose(fd);
  ::close(fd);
  EXPECT_EQ(resp.rfind("HTTP/1.0 200 OK\r\n", 0), 0u)
      << "scrape blocked behind an idle connection";

  // SIGTERM drains and exits 0 while the idle connection stays open.
  kill(pid, SIGTERM);
  EXPECT_EQ(WaitExit(pid, 5000), 0);
  ::close(idle);
}

}  // namespace
}  // namespace tardis
