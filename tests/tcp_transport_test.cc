// TcpTransport tests: real sockets on 127.0.0.1. Covers basic delivery,
// a two-site fork-then-merge replication scenario (mirroring
// replication_test.cc's MergeReplicatesAndConverges, but across TCP),
// peer death + reconnect with backoff, drop accounting while a peer is
// down, garbage bytes from a hostile client, the WaitReceive wakeups the
// Replicator pump sleeps on, and frame order across write-through sends
// and across sends capped to a few bytes.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "fault/fault_registry.h"
#include "net/tcp_transport.h"
#include "replication/replicator.h"

namespace tardis {
namespace {

uint16_t PickFreePort() {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  close(fd);
  return ntohs(addr.sin_port);
}

bool WaitFor(const std::function<bool()>& cond, uint64_t timeout_ms = 10'000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return cond();
}

TcpTransportOptions EndpointOptions(uint32_t site,
                                    const std::vector<uint16_t>& ports) {
  TcpTransportOptions options;
  options.site_id = site;
  options.listen_host = "127.0.0.1";
  options.listen_port = ports[site];
  options.reconnect_initial_ms = 5;
  options.reconnect_max_ms = 100;
  for (uint32_t s = 0; s < ports.size(); s++) {
    if (s != site) options.peers.push_back({s, "127.0.0.1", ports[s]});
  }
  return options;
}

ReplMessage CeilingMsg(uint64_t epoch) {
  ReplMessage m;
  m.type = ReplMessage::Type::kCeilingCommit;
  m.ceiling_epoch = epoch;
  return m;
}

TEST(TcpTransportTest, LoopbackSendReceive) {
  const std::vector<uint16_t> ports = {PickFreePort(), PickFreePort()};
  auto t0 = TcpTransport::Open(EndpointOptions(0, ports));
  auto t1 = TcpTransport::Open(EndpointOptions(1, ports));
  ASSERT_TRUE(t0.ok()) << t0.status().ToString();
  ASSERT_TRUE(t1.ok()) << t1.status().ToString();
  ASSERT_TRUE(WaitFor([&] { return (*t0)->IsConnected(1); }));

  for (uint64_t i = 0; i < 10; i++) (*t0)->Send(0, 1, CeilingMsg(i));
  ReplMessage got;
  for (uint64_t i = 0; i < 10; i++) {
    ASSERT_TRUE(WaitFor([&] { return (*t1)->Receive(1, &got); }));
    EXPECT_EQ(got.ceiling_epoch, i);  // FIFO per connection
    EXPECT_EQ(got.from_site, 0u);
  }
  EXPECT_FALSE((*t1)->Receive(1, &got));
  EXPECT_GE((*t0)->messages_sent(), 10u);
  EXPECT_EQ((*t1)->messages_delivered(), 10u);
}

TEST(TcpTransportTest, BroadcastSerializesOnceAndFansOut) {
  const std::vector<uint16_t> ports = {PickFreePort(), PickFreePort(),
                                       PickFreePort()};
  StatusOr<std::unique_ptr<TcpTransport>> t[3] = {
      TcpTransport::Open(EndpointOptions(0, ports)),
      TcpTransport::Open(EndpointOptions(1, ports)),
      TcpTransport::Open(EndpointOptions(2, ports))};
  for (int i = 0; i < 3; i++) ASSERT_TRUE(t[i].ok());
  ASSERT_TRUE(WaitFor(
      [&] { return (*t[0])->IsConnected(1) && (*t[0])->IsConnected(2); }));

  (*t[0])->Broadcast(0, CeilingMsg(77));
  ReplMessage got;
  for (int i = 1; i < 3; i++) {
    ASSERT_TRUE(WaitFor([&] { return (*t[i])->Receive(i, &got); }));
    EXPECT_EQ(got.ceiling_epoch, 77u);
  }
}

TEST(TcpTransportTest, WaitReceiveWakesOnFrameAndShutdown) {
  using Clock = std::chrono::steady_clock;
  const std::vector<uint16_t> ports = {PickFreePort(), PickFreePort()};
  auto t0 = TcpTransport::Open(EndpointOptions(0, ports));
  auto t1 = TcpTransport::Open(EndpointOptions(1, ports));
  ASSERT_TRUE(t0.ok()) << t0.status().ToString();
  ASSERT_TRUE(t1.ok()) << t1.status().ToString();
  ASSERT_TRUE(WaitFor([&] { return (*t0)->IsConnected(1); }));

  // A frame arriving ends a 1-s wait within a few ms.
  Clock::time_point sent_at;
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    sent_at = Clock::now();
    (*t0)->Send(0, 1, CeilingMsg(5));
  });
  (*t1)->WaitReceive(1, std::chrono::seconds(1));
  Clock::time_point woke = Clock::now();
  sender.join();
  ReplMessage got;
  ASSERT_TRUE((*t1)->Receive(1, &got));
  EXPECT_EQ(got.ceiling_epoch, 5u);
  EXPECT_LT(woke - sent_at, std::chrono::milliseconds(50));

  // So does Shutdown.
  Clock::time_point stopped_at;
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    stopped_at = Clock::now();
    (*t1)->Shutdown();
  });
  (*t1)->WaitReceive(1, std::chrono::seconds(1));
  woke = Clock::now();
  stopper.join();
  EXPECT_LT(woke - stopped_at, std::chrono::milliseconds(50));
}

TEST(TcpTransportTest, WriteThroughKeepsOrderPastSocketBuffer) {
  // 40 x 256 KiB overflows the socket buffers: the sender writes through
  // until a backlog forms, the IO thread drains it, and write-through
  // resumes — the receiver must still see every frame once, in order.
  const std::vector<uint16_t> ports = {PickFreePort(), PickFreePort()};
  auto t0 = TcpTransport::Open(EndpointOptions(0, ports));
  auto t1 = TcpTransport::Open(EndpointOptions(1, ports));
  ASSERT_TRUE(t0.ok());
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(WaitFor([&] { return (*t0)->IsConnected(1); }));
  const auto value = std::make_shared<const std::string>(256 << 10, 'v');
  constexpr uint64_t kFrames = 40;
  for (uint64_t i = 1; i <= kFrames; i++) {
    ReplMessage m;
    m.commit.guid.seq = i;
    m.commit.writes.emplace_back("k", value);
    (*t0)->Send(0, 1, std::move(m));
  }
  ReplMessage got;
  for (uint64_t i = 1; i <= kFrames; i++) {
    ASSERT_TRUE(WaitFor([&] { return (*t1)->Receive(1, &got); }));
    EXPECT_EQ(got.commit.guid.seq, i);
    ASSERT_EQ(got.commit.writes.size(), 1u);
    EXPECT_EQ(got.commit.writes[0].second->size(), value->size());
  }
  EXPECT_EQ((*t0)->messages_dropped(), 0u);
}

TEST(TcpTransportTest, ShortSendsDeliverWholeFramesInOrder) {
  // Every send() of every connection moves at most 3 bytes, the hello and
  // the ack included: frames cross the wire in pieces and must still
  // arrive whole and in order.
  struct Disarm {
    ~Disarm() { fault::FaultRegistry::Global().DisarmAll(); }
  } disarm;
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kLimitWrite;
  spec.limit_bytes = 3;
  fault::FaultRegistry::Global().Arm("net.tcp.send", spec);
  const uint64_t short_writes_before =
      fault::FaultRegistry::Global().short_writes();

  const std::vector<uint16_t> ports = {PickFreePort(), PickFreePort()};
  auto t0 = TcpTransport::Open(EndpointOptions(0, ports));
  auto t1 = TcpTransport::Open(EndpointOptions(1, ports));
  ASSERT_TRUE(t0.ok());
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(WaitFor([&] { return (*t0)->IsConnected(1); }));
  constexpr uint64_t kFrames = 50;
  for (uint64_t i = 1; i <= kFrames; i++) {
    ReplMessage m;
    m.commit.guid.seq = i;
    m.commit.writes.emplace_back(
        "k" + std::to_string(i),
        std::make_shared<const std::string>(i * 37, static_cast<char>(i)));
    (*t0)->Send(0, 1, std::move(m));
  }
  ReplMessage got;
  for (uint64_t i = 1; i <= kFrames; i++) {
    ASSERT_TRUE(WaitFor([&] { return (*t1)->Receive(1, &got); }));
    EXPECT_EQ(got.commit.guid.seq, i);
    ASSERT_EQ(got.commit.writes.size(), 1u);
    EXPECT_EQ(got.commit.writes[0].first, "k" + std::to_string(i));
    EXPECT_EQ(*got.commit.writes[0].second,
              std::string(i * 37, static_cast<char>(i)));
  }
  EXPECT_EQ((*t0)->messages_dropped(), 0u);
  EXPECT_GT(fault::FaultRegistry::Global().short_writes(),
            short_writes_before);
}

TEST(TcpTransportTest, DownPeerCountsDroppedNotFatal) {
  const std::vector<uint16_t> ports = {PickFreePort(), PickFreePort()};
  auto t0 = TcpTransport::Open(EndpointOptions(0, ports));
  ASSERT_TRUE(t0.ok());
  // Site 1 never comes up; let the first connect attempt fail.
  ASSERT_TRUE(WaitFor([&] {
    (*t0)->Send(0, 1, CeilingMsg(1));
    return (*t0)->messages_dropped() > 0;
  }));
  EXPECT_FALSE((*t0)->IsConnected(1));
}

TEST(TcpTransportTest, KillAndReconnectViaBackoff) {
  const std::vector<uint16_t> ports = {PickFreePort(), PickFreePort()};
  auto t0 = TcpTransport::Open(EndpointOptions(0, ports));
  ASSERT_TRUE(t0.ok());
  auto t1 = TcpTransport::Open(EndpointOptions(1, ports));
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(WaitFor([&] { return (*t0)->IsConnected(1); }));
  (*t0)->Send(0, 1, CeilingMsg(1));
  ReplMessage got;
  ASSERT_TRUE(WaitFor([&] { return (*t1)->Receive(1, &got); }));

  // Kill site 1. Site 0 must notice, drop traffic, and keep running.
  (*t1)->Shutdown();
  t1->reset();
  ASSERT_TRUE(WaitFor([&] {
    (*t0)->Send(0, 1, CeilingMsg(2));
    return !(*t0)->IsConnected(1) && (*t0)->messages_dropped() > 0;
  }));

  // Resurrect site 1 on the same port; backoff reconnects and traffic
  // flows again.
  auto t1b = TcpTransport::Open(EndpointOptions(1, ports));
  ASSERT_TRUE(t1b.ok());
  ASSERT_TRUE(WaitFor([&] { return (*t0)->IsConnected(1); }));
  (*t0)->Send(0, 1, CeilingMsg(3));
  ASSERT_TRUE(WaitFor([&] { return (*t1b)->Receive(1, &got); }));
  EXPECT_EQ(got.ceiling_epoch, 3u);
}

TEST(TcpTransportTest, BackoffResetsOnHandshakeNotBareTcpConnect) {
  // Regression: the reconnect backoff used to reset as soon as connect(2)
  // succeeded. A listener that accepts but never speaks the protocol (a
  // load balancer health-checking, a half-up peer, a port squatter) made
  // the dialer hammer it at the initial delay forever. The backoff must
  // stay armed until the peer's kHelloAck actually arrives.
  const std::vector<uint16_t> ports = {PickFreePort(), PickFreePort()};

  // An impostor on site 1's port: accepts connections, says nothing.
  const int lfd = socket(AF_INET, SOCK_STREAM, 0);
  int one = 1;
  setsockopt(lfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(ports[1]);
  ASSERT_EQ(bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(listen(lfd, 8), 0);
  std::atomic<bool> stop{false};
  std::vector<int> accepted;
  std::mutex accepted_mu;
  std::thread impostor([&] {
    while (!stop.load()) {
      const int fd = accept(lfd, nullptr, nullptr);
      if (fd < 0) return;
      std::lock_guard<std::mutex> guard(accepted_mu);
      accepted.push_back(fd);
    }
  });

  auto t0 = TcpTransport::Open(EndpointOptions(0, ports));
  ASSERT_TRUE(t0.ok());
  // TCP connects succeed, but with no kHelloAck the transport must not
  // consider the peer connected (and must not count reconnects).
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_FALSE((*t0)->IsConnected(1));
  EXPECT_EQ((*t0)->reconnects(), 0u);

  // The impostor leaves; the real peer takes the port. The dialer's
  // still-armed backoff redials and completes the handshake.
  stop.store(true);
  ::shutdown(lfd, SHUT_RDWR);
  close(lfd);
  impostor.join();
  {
    std::lock_guard<std::mutex> guard(accepted_mu);
    for (int fd : accepted) close(fd);
  }
  auto t1 = TcpTransport::Open(EndpointOptions(1, ports));
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(WaitFor([&] { return (*t0)->IsConnected(1); }));
  (*t0)->Send(0, 1, CeilingMsg(4));
  ReplMessage got;
  ASSERT_TRUE(WaitFor([&] { return (*t1)->Receive(1, &got); }));
  EXPECT_EQ(got.ceiling_epoch, 4u);
}

TEST(TcpTransportTest, GarbageBytesOnWireDoNotCrash) {
  const std::vector<uint16_t> ports = {PickFreePort(), PickFreePort()};
  auto t0 = TcpTransport::Open(EndpointOptions(0, ports));
  auto t1 = TcpTransport::Open(EndpointOptions(1, ports));
  ASSERT_TRUE(t0.ok());
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(WaitFor([&] { return (*t0)->IsConnected(1); }));

  // A hostile client connects straight to site 1's replication port and
  // spews garbage, including a hostile length prefix.
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons((*t1)->listen_port());
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  std::string junk = "\xff\xff\xff\xff trash trash trash";
  junk.resize(4096, '\xee');
  ASSERT_GT(send(fd, junk.data(), junk.size(), MSG_NOSIGNAL), 0);
  close(fd);

  // Legitimate traffic still works.
  (*t0)->Send(0, 1, CeilingMsg(9));
  ReplMessage got;
  ASSERT_TRUE(WaitFor([&] { return (*t1)->Receive(1, &got); }));
  EXPECT_EQ(got.ceiling_epoch, 9u);
}

// ---- replication over real sockets ----------------------------------------

class TcpSite {
 public:
  TcpSite(uint32_t site, const std::vector<uint16_t>& ports) {
    TardisOptions store_options;
    store_options.site_id = site;
    auto store = TardisStore::Open(store_options);
    EXPECT_TRUE(store.ok());
    store_ = std::move(*store);
    auto transport = TcpTransport::Open(EndpointOptions(site, ports));
    EXPECT_TRUE(transport.ok()) << transport.status().ToString();
    transport_ = std::move(*transport);
    replicator_ = std::make_unique<Replicator>(store_.get(), transport_.get(),
                                               site);
    replicator_->Start();
    session_ = store_->CreateSession();
  }
  ~TcpSite() {
    replicator_->Stop();
    transport_->Shutdown();
  }

  void Put(const std::string& k, const std::string& v) {
    auto txn = store_->Begin(session_.get());
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE((*txn)->Put(k, v).ok());
    ASSERT_TRUE((*txn)->Commit().ok());
  }

  std::string Get(const std::string& k) {
    auto txn = store_->Begin(session_.get());
    EXPECT_TRUE(txn.ok());
    std::string v;
    Status s = (*txn)->Get(k, &v);
    (*txn)->Abort();
    return s.ok() ? v : "<" + s.ToString() + ">";
  }

  TardisStore* store() { return store_.get(); }
  ClientSession* session() { return session_.get(); }
  TcpTransport* transport() { return transport_.get(); }
  Replicator* replicator() { return replicator_.get(); }

 private:
  std::unique_ptr<TardisStore> store_;
  std::unique_ptr<TcpTransport> transport_;
  std::unique_ptr<Replicator> replicator_;
  std::unique_ptr<ClientSession> session_;
};

TEST(TcpReplicationTest, ForkThenMergeConvergesAcrossSockets) {
  // Mirrors ClusterTest.MergeReplicatesAndConverges over real TCP.
  const std::vector<uint16_t> ports = {PickFreePort(), PickFreePort()};
  TcpSite site0(0, ports);
  TcpSite site1(1, ports);
  // Messages broadcast before the mesh is up are dropped (by design —
  // RequestSync recovers them); wait for both dialed connections first.
  ASSERT_TRUE(WaitFor([&] {
    return site0.transport()->IsConnected(1) &&
           site1.transport()->IsConnected(0);
  }));

  site0.Put("cnt", "5");
  ASSERT_TRUE(WaitFor([&] { return site1.Get("cnt") == "5"; }));

  // Concurrent writes on both sides of the wire fork the DAG everywhere.
  // Partition first so neither commit can sneak across and linearize the
  // other's branch; heal + sync exchanges the (dropped) commits.
  site0.transport()->Partition(0, 1);
  site1.transport()->Partition(1, 0);
  site0.Put("cnt", "6");
  site1.Put("cnt", "7");
  site0.transport()->HealAll();
  site1.transport()->HealAll();
  site0.replicator()->RequestSync();
  site1.replicator()->RequestSync();
  ASSERT_TRUE(WaitFor([&] {
    return site0.store()->dag()->Leaves().size() == 2 &&
           site1.store()->dag()->Leaves().size() == 2;
  }));

  // Merge at site 0 with the fork-point delta rule (5 + 1 + 2 = 8).
  auto m = site0.store()->BeginMerge(site0.session());
  ASSERT_TRUE(m.ok());
  ASSERT_EQ((*m)->parents().size(), 2u);
  auto forks = (*m)->FindForkPoints((*m)->parents());
  ASSERT_TRUE(forks.ok());
  std::string fv;
  ASSERT_TRUE((*m)->GetForId("cnt", (*forks)[0], &fv).ok());
  int result = std::stoi(fv);
  for (StateId p : (*m)->parents()) {
    std::string bv;
    ASSERT_TRUE((*m)->GetForId("cnt", p, &bv).ok());
    result += std::stoi(bv) - std::stoi(fv);
  }
  EXPECT_EQ(result, 8);
  ASSERT_TRUE((*m)->Put("cnt", std::to_string(result)).ok());
  ASSERT_TRUE((*m)->Commit().ok());

  // The merge replicates; both sites converge to one leaf and value 8.
  ASSERT_TRUE(WaitFor([&] {
    return site1.store()->dag()->Leaves().size() == 1 &&
           site1.Get("cnt") == "8";
  }));
  EXPECT_EQ(site0.store()->dag()->Leaves().size(), 1u);
  EXPECT_EQ(site0.Get("cnt"), "8");
}

TEST(TcpReplicationTest, PeerRestartRecoversWithSync) {
  const std::vector<uint16_t> ports = {PickFreePort(), PickFreePort()};
  TcpSite site0(0, ports);
  {
    TcpSite site1(1, ports);
    ASSERT_TRUE(WaitFor([&] {
      return site0.transport()->IsConnected(1) &&
             site1.transport()->IsConnected(0);
    }));
    site0.Put("a", "1");
    ASSERT_TRUE(WaitFor([&] { return site1.Get("a") == "1"; }));
  }  // site 1 dies (transport shut down, store discarded)

  // Commits while the peer is down are dropped at the transport.
  site0.Put("a", "2");
  site0.Put("b", "1");
  ASSERT_TRUE(WaitFor([&] { return site0.transport()->messages_dropped() > 0 ||
                                   !site0.transport()->IsConnected(1); }));

  // A fresh site 1 (empty store) comes back on the same port and pulls
  // everything it missed via recovery sync once reconnected.
  TcpSite site1b(1, ports);
  // Wait for both directions to re-establish (site 0's dialed connection
  // comes back through the backoff path), then pull missed commits.
  ASSERT_TRUE(WaitFor([&] {
    return site1b.transport()->IsConnected(0) &&
           site0.transport()->IsConnected(1);
  }));
  site1b.replicator()->RequestSync();
  ASSERT_TRUE(WaitFor([&] {
    return site1b.Get("a") == "2" && site1b.Get("b") == "1";
  }));
}

}  // namespace
}  // namespace tardis
