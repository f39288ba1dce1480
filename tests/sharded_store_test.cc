// Tests for the hash-partitioned record store (§6.4's data-partitioning
// sketch) standalone and wired under a TARDiS site.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <set>
#include <string>

#include "core/record_codec.h"
#include "core/tardis_store.h"
#include "storage/memstore.h"
#include "storage/sharded_record_store.h"

namespace tardis {
namespace {

std::string FreshDir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "tardis_shard_" + tag + "_" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(ShardedStoreTest, RoutesAndRoundTrips) {
  std::vector<std::unique_ptr<RecordStore>> shards;
  for (int i = 0; i < 4; i++) shards.push_back(std::make_unique<MemRecordStore>());
  auto store = ShardedRecordStore::Wrap(std::move(shards));

  std::set<size_t> used;
  for (int i = 0; i < 200; i++) {
    const std::string key = "key" + std::to_string(i);
    used.insert(store->ShardFor(key));
    ASSERT_TRUE(store->Put(key, "v" + std::to_string(i)).ok());
  }
  // The hash spreads keys over all shards.
  EXPECT_EQ(used.size(), 4u);
  EXPECT_EQ(store->size(), 200u);
  for (int i = 0; i < 200; i += 13) {
    std::string v;
    ASSERT_TRUE(store->Get("key" + std::to_string(i), &v).ok()) << i;
    EXPECT_EQ(v, "v" + std::to_string(i));
  }
  ASSERT_TRUE(store->Delete("key0").ok());
  std::string v;
  EXPECT_TRUE(store->Get("key0", &v).IsNotFound());
  EXPECT_TRUE(store->Sync().ok());
}

TEST(ShardedStoreTest, AllVersionsOfAKeyColocate) {
  std::vector<std::unique_ptr<RecordStore>> shards;
  for (int i = 0; i < 8; i++) shards.push_back(std::make_unique<MemRecordStore>());
  auto store = ShardedRecordStore::Wrap(std::move(shards));

  // Composite record keys (user key + state id) for the same user key
  // must route to the same shard regardless of the version.
  for (const char* user_key : {"alpha", "a-much-longer-user-key", "z"}) {
    const size_t shard0 = store->ShardFor(EncodeRecordKey(user_key, 1));
    for (StateId sid = 2; sid < 50; sid++) {
      EXPECT_EQ(store->ShardFor(EncodeRecordKey(user_key, sid)), shard0)
          << user_key << " sid=" << sid;
    }
  }
}

TEST(ShardedStoreTest, ZeroShardsRejected) {
  const std::string dir = FreshDir("zero");
  auto store = ShardedRecordStore::Open(dir, 0);
  EXPECT_TRUE(store.status().IsInvalidArgument());
  std::filesystem::remove_all(dir);
}

TEST(ShardedStoreTest, DiskShardsPersist) {
  const std::string dir = FreshDir("disk");
  {
    auto store = ShardedRecordStore::Open(dir, 3, 64);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 300; i++) {
      ASSERT_TRUE(
          (*store)->Put("pk" + std::to_string(i), std::to_string(i)).ok());
    }
    ASSERT_TRUE((*store)->Sync().ok());
  }
  auto store = ShardedRecordStore::Open(dir, 3, 64);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->size(), 300u);
  std::string v;
  ASSERT_TRUE((*store)->Get("pk255", &v).ok());
  EXPECT_EQ(v, "255");
  // Three shard files exist.
  int files = 0;
  for (auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("shard-", 0) == 0) files++;
  }
  EXPECT_EQ(files, 3);
  std::filesystem::remove_all(dir);
}

TEST(ShardedStoreTest, TardisSiteOnShardedRecords) {
  const std::string dir = FreshDir("site");
  TardisOptions options;
  options.dir = dir;
  options.record_shards = 4;
  options.cache_pages = 64;
  options.flush_mode = Wal::FlushMode::kSync;
  StateId old_tip = 0;
  {
    auto store = TardisStore::Open(options);
    ASSERT_TRUE(store.ok());
    auto session = (*store)->CreateSession();
    for (int i = 0; i < 150; i++) {
      auto txn = (*store)->Begin(session.get());
      ASSERT_TRUE(txn.ok());
      ASSERT_TRUE((*txn)
                      ->Put("k" + std::to_string(i % 25),
                            "v" + std::to_string(i))
                      .ok());
      ASSERT_TRUE((*txn)->Commit().ok());
    }
    old_tip = session->last_commit()->id();
    ASSERT_TRUE((*store)->Flush().ok());
  }
  // Recovery across the sharded backend: values lazily load per shard.
  auto store = TardisStore::Open(options);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->dag()->state_count(), 151u);
  auto session = (*store)->CreateSession();
  auto txn = (*store)->Begin(session.get(), StateIdBegin(old_tip));
  ASSERT_TRUE(txn.ok());
  for (int k = 0; k < 25; k++) {
    std::string v;
    ASSERT_TRUE((*txn)->Get("k" + std::to_string(k), &v).ok()) << k;
    EXPECT_EQ(v, "v" + std::to_string(125 + k));
  }
  (*txn)->Abort();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tardis
