// Cross-site integration tests: the CRDT library and Retwis running on a
// replicated multi-master cluster, with network faults injected. This is
// the paper's end-to-end story — local branch-on-conflict plus cross-site
// replication plus application-driven merge — exercised as one system.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "apps/crdt/tardis_crdts.h"
#include "apps/retwis/retwis.h"
#include "apps/retwis/retwis_merge.h"
#include "baseline/tardis_txkv.h"
#include "replication/cluster.h"

namespace tardis {
namespace {

class ClusterAppsTest : public ::testing::Test {
 protected:
  void Open(size_t sites, uint64_t latency_us = 0) {
    ClusterOptions options;
    options.num_sites = sites;
    options.network.latency_us = latency_us;
    auto cluster = Cluster::Open(options);
    ASSERT_TRUE(cluster.ok());
    cluster_ = std::move(*cluster);
    cluster_->Start();
  }
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(ClusterAppsTest, CounterConvergesAcrossTwoSites) {
  Open(2);
  crdt::TardisCounter c0(cluster_->site(0), "cnt");
  crdt::TardisCounter c1(cluster_->site(1), "cnt");
  auto s0 = cluster_->site(0)->CreateSession();
  auto s1 = cluster_->site(1)->CreateSession();

  // Both sites increment concurrently (the operations replicate and fork
  // at the remote site).
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(c0.Increment(s0.get(), 2).ok());
    ASSERT_TRUE(c1.Increment(s1.get(), 3).ok());
  }
  ASSERT_TRUE(cluster_->WaitQuiescent());

  // Merge at site 0 until one branch remains; let it replicate.
  auto merger = cluster_->site(0)->CreateSession();
  while (cluster_->site(0)->dag()->Leaves().size() > 1) {
    ASSERT_TRUE(c0.Merge(merger.get()).ok());
  }
  ASSERT_TRUE(cluster_->WaitQuiescent());

  auto v0 = c0.Value(merger.get());
  ASSERT_TRUE(v0.ok());
  EXPECT_EQ(*v0, 50);  // 10*2 + 10*3

  auto reader1 = cluster_->site(1)->CreateSession();
  auto v1 = c1.Value(reader1.get());
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*v1, 50);
  EXPECT_EQ(cluster_->site(1)->dag()->Leaves().size(), 1u);
}

TEST_F(ClusterAppsTest, CounterSurvivesPartitionAndHeals) {
  Open(2);
  crdt::TardisCounter c0(cluster_->site(0), "cnt");
  crdt::TardisCounter c1(cluster_->site(1), "cnt");
  auto s0 = cluster_->site(0)->CreateSession();
  auto s1 = cluster_->site(1)->CreateSession();

  ASSERT_TRUE(c0.Increment(s0.get(), 1).ok());
  ASSERT_TRUE(cluster_->WaitQuiescent());

  // Partition: both sides keep serving writes (availability).
  cluster_->network()->Partition(0, 1);
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(c0.Increment(s0.get(), 1).ok());
    ASSERT_TRUE(c1.Increment(s1.get(), 10).ok());
  }
  // Each side sees only its own updates.
  auto v0 = c0.Value(s0.get());
  auto v1 = c1.Value(s1.get());
  ASSERT_TRUE(v0.ok() && v1.ok());
  EXPECT_EQ(*v0, 6);
  EXPECT_EQ(*v1, 51);

  // Heal; recover the dropped traffic via sync; merge; converge.
  cluster_->network()->HealAll();
  cluster_->replicator(0)->RequestSync();
  cluster_->replicator(1)->RequestSync();
  ASSERT_TRUE(cluster_->WaitQuiescent());
  auto merger = cluster_->site(1)->CreateSession();
  while (cluster_->site(1)->dag()->Leaves().size() > 1) {
    ASSERT_TRUE(c1.Merge(merger.get()).ok());
  }
  ASSERT_TRUE(cluster_->WaitQuiescent());

  for (auto* site_counter : {&c0, &c1}) {
    auto probe = (site_counter == &c0 ? cluster_->site(0)
                                      : cluster_->site(1))
                     ->CreateSession();
    auto v = site_counter->Value(probe.get());
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, 56);  // 1 + 5*1 + 5*10
  }
}

TEST_F(ClusterAppsTest, OrSetConvergesAcrossSites) {
  Open(2);
  crdt::TardisOrSet set0(cluster_->site(0), "set");
  crdt::TardisOrSet set1(cluster_->site(1), "set");
  auto s0 = cluster_->site(0)->CreateSession();
  auto s1 = cluster_->site(1)->CreateSession();

  ASSERT_TRUE(set0.Add(s0.get(), "common").ok());
  ASSERT_TRUE(cluster_->WaitQuiescent());

  // Concurrent: site 0 removes "common", site 1 adds "fresh".
  ASSERT_TRUE(set0.Remove(s0.get(), "common").ok());
  ASSERT_TRUE(set1.Add(s1.get(), "fresh").ok());
  ASSERT_TRUE(cluster_->WaitQuiescent());

  auto merger = cluster_->site(0)->CreateSession();
  while (cluster_->site(0)->dag()->Leaves().size() > 1) {
    ASSERT_TRUE(set0.Merge(merger.get()).ok());
  }
  ASSERT_TRUE(cluster_->WaitQuiescent());

  for (int site = 0; site < 2; site++) {
    crdt::TardisOrSet* s = site == 0 ? &set0 : &set1;
    auto probe = cluster_->site(site)->CreateSession();
    auto has_common = s->Contains(probe.get(), "common");
    auto has_fresh = s->Contains(probe.get(), "fresh");
    ASSERT_TRUE(has_common.ok() && has_fresh.ok());
    EXPECT_FALSE(*has_common) << "site " << site;  // observed-remove
    EXPECT_TRUE(*has_fresh) << "site " << site;    // concurrent add wins
  }
}

TEST_F(ClusterAppsTest, RetwisPostsVisibleAcrossSites) {
  Open(2);
  TardisTxKv kv0(cluster_->site(0));
  TardisTxKv kv1(cluster_->site(1));
  retwis::Retwis app0(&kv0);
  retwis::Retwis app1(&kv1);
  auto c0 = app0.NewClient();
  auto c1 = app1.NewClient();

  ASSERT_TRUE(app0.CreateAccount(c0.get(), 1).ok());
  ASSERT_TRUE(app0.CreateAccount(c0.get(), 2).ok());
  ASSERT_TRUE(app0.FollowUser(c0.get(), 2, 1).ok());
  ASSERT_TRUE(cluster_->WaitQuiescent());

  // User 1 posts at site 0; user 2 reads their timeline at site 1.
  ASSERT_TRUE(app0.PostTweet(c0.get(), 1, "hello from site 0").ok());
  ASSERT_TRUE(cluster_->WaitQuiescent());

  auto tl = app1.ReadOwnTimeline(c1.get(), 2);
  ASSERT_TRUE(tl.ok());
  ASSERT_EQ(tl->size(), 1u);
  EXPECT_EQ((*tl)[0].author, 1u);
}

TEST_F(ClusterAppsTest, RetwisConcurrentCrossSitePostsMerge) {
  Open(2);
  TardisTxKv kv0(cluster_->site(0));
  TardisTxKv kv1(cluster_->site(1));
  retwis::Retwis app0(&kv0);
  retwis::Retwis app1(&kv1);
  auto c0 = app0.NewClient();
  auto c1 = app1.NewClient();

  ASSERT_TRUE(app0.CreateAccount(c0.get(), 1).ok());
  ASSERT_TRUE(cluster_->WaitQuiescent());

  // Both sites post to user 1's timeline concurrently -> remote forks.
  // The link is severed for the two posts: if site 0's broadcast landed
  // before site 1's post began, the histories would linearize and no fork
  // would form (a real scheduling, but not the one under test).
  cluster_->network()->Partition(0, 1);
  ASSERT_TRUE(app0.PostTweet(c0.get(), 1, "from site 0").ok());
  ASSERT_TRUE(app1.PostTweet(c1.get(), 1, "from site 1").ok());
  cluster_->network()->HealAll();
  cluster_->replicator(0)->RequestSync();
  cluster_->replicator(1)->RequestSync();
  ASSERT_TRUE(cluster_->WaitQuiescent());
  EXPECT_EQ(cluster_->site(0)->dag()->Leaves().size(), 2u);

  retwis::RetwisMerger merger(cluster_->site(0));
  while (cluster_->site(0)->dag()->Leaves().size() > 1) {
    ASSERT_TRUE(merger.MergeOnce().ok());
  }
  ASSERT_TRUE(cluster_->WaitQuiescent());

  // Both sites converge on a timeline holding both posts, newest first.
  for (int site = 0; site < 2; site++) {
    retwis::Retwis* app = site == 0 ? &app0 : &app1;
    auto client = app->NewClient();
    auto tl = app->ReadOwnTimeline(client.get(), 1);
    ASSERT_TRUE(tl.ok());
    EXPECT_EQ(tl->size(), 2u) << "site " << site;
  }
  EXPECT_EQ(cluster_->site(1)->dag()->Leaves().size(), 1u);
}

TEST_F(ClusterAppsTest, ThreeSitesWithLatencyConverge) {
  Open(3, /*latency_us=*/5'000);
  crdt::TardisCounter counters[3] = {
      {cluster_->site(0), "cnt"},
      {cluster_->site(1), "cnt"},
      {cluster_->site(2), "cnt"},
  };
  std::vector<std::unique_ptr<ClientSession>> sessions;
  for (int s = 0; s < 3; s++) {
    sessions.push_back(cluster_->site(s)->CreateSession());
  }
  for (int round = 0; round < 5; round++) {
    for (int s = 0; s < 3; s++) {
      ASSERT_TRUE(counters[s].Increment(sessions[s].get(), s + 1).ok());
    }
  }
  ASSERT_TRUE(cluster_->WaitQuiescent(30'000));
  auto merger = cluster_->site(0)->CreateSession();
  while (cluster_->site(0)->dag()->Leaves().size() > 1) {
    ASSERT_TRUE(counters[0].Merge(merger.get()).ok());
  }
  ASSERT_TRUE(cluster_->WaitQuiescent(30'000));
  for (int s = 0; s < 3; s++) {
    auto probe = cluster_->site(s)->CreateSession();
    auto v = counters[s].Value(probe.get());
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, 30) << "site " << s;  // 5 * (1+2+3)
  }
}

}  // namespace
}  // namespace tardis
