#include "storage/object_store.h"

#include <atomic>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace mvcc {
namespace {

TEST(ObjectStoreTest, PreloadCreatesInitialVersions) {
  ObjectStore store(8);
  store.Preload(100, "init");
  EXPECT_EQ(store.NumKeys(), 100u);
  EXPECT_EQ(store.TotalVersions(), 100u);
  VersionChain* chain = store.Find(42);
  ASSERT_NE(chain, nullptr);
  EXPECT_EQ(chain->Read(0)->value, "init");
  EXPECT_EQ(chain->Read(0)->writer, 0u);  // T0
}

size_t RoundUp16(size_t bytes) { return (bytes + 15) & ~size_t{15}; }

// The per-key storage budget, by count: a preloaded key carves a
// one-slot version array and its payload, nothing more. Headroom for
// versions a key may never get must not creep back in unnoticed.
TEST(ObjectStoreTest, ColdKeyCarvesOneSlotAndFirstWriteRepublishesOnce) {
  constexpr uint64_t kKeys = 1000;
  const Value value(100, 'v');
  const size_t one_slot = RoundUp16(VersionChain::ArrayBytes(1));
  const size_t payload = RoundUp16(value.size());
  ASSERT_EQ(one_slot, 48u);
  ASSERT_EQ(payload, 112u);

  ObjectStore store(8);
  store.Preload(kKeys, value);
  EXPECT_EQ(store.ArenaStats().bytes_carved, kKeys * (one_slot + payload));
  EXPECT_EQ(one_slot + payload, 160u);  // bytes per cold key

  // The key's first write moves it into a kInitialCapacity-slot array,
  // exactly once; the array then takes in-order installs in place until
  // it is full.
  VersionChain* chain = store.Find(7);
  ASSERT_NE(chain, nullptr);
  const ChainWriteStats w0 = GetChainWriteStats();
  const uint64_t carved0 = store.ArenaStats().bytes_carved;
  chain->Install(Version{1, value, 1});
  const ChainWriteStats w1 = GetChainWriteStats();
  EXPECT_EQ(w1.republishes - w0.republishes, 1u);
  EXPECT_EQ(w1.installs_in_place - w0.installs_in_place, 0u);
  EXPECT_EQ(store.ArenaStats().bytes_carved - carved0,
            RoundUp16(VersionChain::ArrayBytes(VersionChain::kInitialCapacity)) +
                payload);

  const uint64_t carved1 = store.ArenaStats().bytes_carved;
  constexpr size_t kInPlace = VersionChain::kInitialCapacity - 2;
  for (VersionNumber n = 2; n < 2 + kInPlace; ++n) {
    chain->Install(Version{n, value, 1});
  }
  const ChainWriteStats w2 = GetChainWriteStats();
  EXPECT_EQ(w2.republishes - w1.republishes, 0u);
  EXPECT_EQ(w2.installs_in_place - w1.installs_in_place, kInPlace);
  EXPECT_EQ(store.ArenaStats().bytes_carved - carved1, kInPlace * payload);
  EXPECT_EQ(chain->size(), VersionChain::kInitialCapacity);

  // Full: the next install grows the array.
  chain->Install(Version{2 + kInPlace, value, 1});
  EXPECT_EQ(GetChainWriteStats().republishes - w2.republishes, 1u);
  EXPECT_EQ(chain->Read(1)->version, 1u);
  EXPECT_EQ(chain->Read(0)->value, value);
}

// Preload builds the store in bulk; it must leave exactly what the
// key-at-a-time path leaves: every key, one version each, found by a
// probe and by a scan alike, at 160 B carved per 100-byte cold key.
TEST(ObjectStoreTest, BulkPreloadMatchesProbesScansAndBudget) {
  constexpr uint64_t kKeys = 10007;  // not a multiple of shards or fanout
  ObjectStore store(8);
  store.Preload(kKeys, Value(100, 'v'));
  EXPECT_EQ(store.NumKeys(), kKeys);
  EXPECT_EQ(store.TotalVersionsSlow(), kKeys);
  EXPECT_EQ(store.TotalVersions(), kKeys);
  EXPECT_EQ(store.ArenaStats().bytes_carved, kKeys * 160);

  ObjectKey next = 0;
  for (auto cur = store.Scan(0, std::numeric_limits<ObjectKey>::max());
       cur.Valid(); cur.Next(), ++next) {
    ASSERT_EQ(cur.key(), next);
    ASSERT_NE(cur.chain(), nullptr);
    ASSERT_EQ(store.Find(next), cur.chain()) << next;
    ASSERT_EQ(cur.chain()->size(), 1u);
  }
  EXPECT_EQ(next, kKeys);
  EXPECT_EQ(store.Find(kKeys), nullptr);
  // Full leaves: ceil(N / kMaxKeys) of them.
  EXPECT_EQ(store.IndexFootprint().leaves,
            (kKeys + BPlusTree::kMaxKeys - 1) / BPlusTree::kMaxKeys);
}

// Each shard's table is made once at the capacity the 0.7 load-factor
// doubling rule would reach, so memory, probe lengths and the next
// growth point match a store built key by key.
TEST(ObjectStoreTest, BulkPreloadSizesTablesLikeKeyByKeyGrowth) {
  {
    // One shard, exact: 11 keys fit 16 slots; the 12th doubles them.
    ObjectStore store(1);
    store.Preload(11, "x");
    EXPECT_EQ(store.TableSlots(), 16u);
    store.GetOrCreate(11);
    EXPECT_EQ(store.TableSlots(), 32u);
  }
  for (uint64_t keys : {0, 1, 11, 12, 45, 46, 700, 2867, 2868, 5000}) {
    ObjectStore bulk(4);
    ObjectStore stepwise(4);
    bulk.Preload(keys, "x");
    for (ObjectKey k = 0; k < keys; ++k) {
      stepwise.GetOrCreate(k)->Install(Version{0, "x", 0});
    }
    ASSERT_EQ(bulk.TableSlots(), stepwise.TableSlots()) << keys;
    for (ObjectKey k = keys; k < keys + 3000; ++k) {
      bulk.GetOrCreate(k);
      stepwise.GetOrCreate(k);
      ASSERT_EQ(bulk.TableSlots(), stepwise.TableSlots())
          << "preload " << keys << ", after key " << k;
    }
    EXPECT_EQ(bulk.NumKeys(), keys + 3000);
  }
}

TEST(ObjectStoreDeathTest, PreloadRequiresAnEmptyStore) {
  EXPECT_DEATH(
      {
        ObjectStore store(4);
        store.GetOrCreate(3);
        store.Preload(10, "x");
      },
      "MVCC_CHECK failed");
  EXPECT_DEATH(
      {
        ObjectStore store(4);
        store.Preload(10, "x");
        store.Preload(10, "x");
      },
      "MVCC_CHECK failed");
}

TEST(ObjectStoreTest, FindMissingReturnsNull) {
  ObjectStore store;
  EXPECT_EQ(store.Find(7), nullptr);
}

TEST(ObjectStoreTest, GetOrCreateIsStable) {
  ObjectStore store;
  VersionChain* a = store.GetOrCreate(7);
  VersionChain* b = store.GetOrCreate(7);
  EXPECT_EQ(a, b);
  EXPECT_EQ(store.Find(7), a);
  EXPECT_EQ(store.NumKeys(), 1u);
}

TEST(ObjectStoreTest, TotalVersionsCountsAllChains) {
  ObjectStore store(4);
  store.Preload(10, "x");
  store.GetOrCreate(3)->Install(Version{5, "y", 1});
  store.GetOrCreate(3)->Install(Version{9, "z", 2});
  EXPECT_EQ(store.TotalVersions(), 12u);
}

TEST(ObjectStoreTest, PruneAllAppliesWatermarkEverywhere) {
  ObjectStore store(4);
  store.Preload(10, "x");
  for (ObjectKey k = 0; k < 10; ++k) {
    store.GetOrCreate(k)->Install(Version{5, "a", 1});
    store.GetOrCreate(k)->Install(Version{9, "b", 2});
  }
  EXPECT_EQ(store.TotalVersions(), 30u);
  // Watermark 6: versions 0 are unreachable under the newest-<=-6 rule.
  EXPECT_EQ(store.PruneAll(6), 10u);
  EXPECT_EQ(store.TotalVersions(), 20u);
}

TEST(ObjectStoreTest, ShardCountOfZeroIsClampedToOne) {
  ObjectStore store(0);
  store.Preload(5, "x");
  EXPECT_EQ(store.NumKeys(), 5u);
}

// Regression test: TotalVersions is a relaxed striped sum that may be
// read WHILE chains mutate. It used to cross-check against the O(keys)
// scan with an assert, which fired on benign in-flight deltas (an
// installer between its counter credit and its publish, a Remove racing
// a shard's table growth). The contract now: concurrent calls return a
// value that never strays further from ground truth than the number of
// in-flight operations, and exact agreement holds at quiescence.
TEST(ObjectStoreTest, TotalVersionsToleratesInFlightMutation) {
  ObjectStore store(4);
  constexpr uint64_t kKeys = 64;
  store.Preload(kKeys, "0");

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> violations{0};
  constexpr int kWriterThreads = 2;

  std::vector<std::thread> writers;
  for (int t = 0; t < kWriterThreads; ++t) {
    writers.emplace_back([&, t] {
      for (uint64_t i = 1; i <= 4000; ++i) {
        VersionChain* chain = store.GetOrCreate((i * 7 + t) % kKeys);
        const VersionNumber n = i * 4 + t + 1;
        chain->Install(Version{n, "v" + std::to_string(n), 1});
        if (i % 8 == 0) chain->Prune(n - 8);
        if (i % 32 == 0) {
          chain->Install(Version{n + (uint64_t{1} << 50), "doomed", 1});
          chain->Remove(n + (uint64_t{1} << 50));
        }
        // New keys too, so Find-side table growth races the counter.
        if (i % 64 == 0) store.GetOrCreate(kKeys + i * 2 + t);
      }
      stop.store(true, std::memory_order_release);
    });
  }

  // The regression: this loop crashed the old debug build (assert on
  // TotalVersionsSlow disagreement) and must now just observe sane,
  // bounded-skew values.
  std::thread observer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const size_t total = store.TotalVersions();
      // Never negative (clamped), never wildly past the maximum the
      // writers could have installed.
      if (total > kKeys + 2 * 4000 * kWriterThreads) {
        violations.fetch_add(1);
      }
    }
  });

  for (auto& w : writers) w.join();
  observer.join();

  EXPECT_EQ(violations.load(), 0u);
  // Quiescent: the striped sum agrees with the ground-truth scan.
  EXPECT_EQ(store.TotalVersions(), store.TotalVersionsSlow());
}

}  // namespace
}  // namespace mvcc
