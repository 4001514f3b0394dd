#include "storage/btree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "common/epoch.h"
#include "common/random.h"

namespace mvcc {
namespace {

// Materializes a cursor walk — the test-side replacement for the old
// materializing Range() API.
std::vector<ObjectKey> Collect(const BPlusTree& tree, ObjectKey lo,
                               ObjectKey hi) {
  std::vector<ObjectKey> out;
  for (auto cur = tree.Scan(lo, hi); cur.Valid(); cur.Next()) {
    out.push_back(cur.key());
  }
  return out;
}

TEST(BPlusTreeTest, EmptyTree) {
  BPlusTree tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_FALSE(tree.Contains(7));
  EXPECT_EQ(tree.FindChain(7), nullptr);
  EXPECT_TRUE(Collect(tree, 0, 100).empty());
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BPlusTreeTest, SingleKey) {
  BPlusTree tree;
  EXPECT_TRUE(tree.Insert(42, nullptr));
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_TRUE(tree.Contains(42));
  EXPECT_FALSE(tree.Contains(41));
  EXPECT_EQ(Collect(tree, 0, 100), (std::vector<ObjectKey>{42}));
  EXPECT_EQ(Collect(tree, 42, 42), (std::vector<ObjectKey>{42}));
  EXPECT_TRUE(Collect(tree, 43, 100).empty());
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BPlusTreeTest, DuplicateInsertIgnored) {
  BPlusTree tree;
  EXPECT_TRUE(tree.Insert(5, nullptr));
  EXPECT_FALSE(tree.Insert(5, nullptr));
  EXPECT_FALSE(tree.Insert(5, nullptr));
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BPlusTreeTest, LeafEntriesCarryTheChainPointer) {
  // The tree treats the chain as an opaque pointer; fabricate distinct
  // addresses and check they round-trip through probe and cursor.
  BPlusTree tree;
  int markers[3];
  auto chain = [&](int i) {
    return reinterpret_cast<VersionChain*>(&markers[i]);
  };
  tree.Insert(10, chain(0));
  tree.Insert(20, chain(1));
  tree.Insert(30, chain(2));
  EXPECT_EQ(tree.FindChain(20), chain(1));
  EXPECT_EQ(tree.FindChain(25), nullptr);
  auto cur = tree.Scan(20, 30);
  ASSERT_TRUE(cur.Valid());
  EXPECT_EQ(cur.chain(), chain(1));
  cur.Next();
  ASSERT_TRUE(cur.Valid());
  EXPECT_EQ(cur.chain(), chain(2));
}

TEST(BPlusTreeTest, SequentialInsertSplitsAndStaysBalanced) {
  BPlusTree tree;
  for (ObjectKey k = 0; k < 10000; ++k) {
    tree.Insert(k, nullptr);
  }
  EXPECT_EQ(tree.size(), 10000u);
  EXPECT_GT(tree.height(), 1);
  EXPECT_TRUE(tree.CheckInvariants());
  for (ObjectKey k = 0; k < 10000; ++k) ASSERT_TRUE(tree.Contains(k));
  EXPECT_FALSE(tree.Contains(10000));
}

TEST(BPlusTreeTest, ReverseInsert) {
  BPlusTree tree;
  for (ObjectKey k = 5000; k-- > 0;) tree.Insert(k, nullptr);
  EXPECT_EQ(tree.size(), 5000u);
  EXPECT_TRUE(tree.CheckInvariants());
  auto range = Collect(tree, 100, 199);
  ASSERT_EQ(range.size(), 100u);
  EXPECT_EQ(range.front(), 100u);
  EXPECT_EQ(range.back(), 199u);
}

TEST(BPlusTreeTest, RangeBoundariesInclusive) {
  BPlusTree tree;
  for (ObjectKey k = 0; k < 100; k += 10) tree.Insert(k, nullptr);
  EXPECT_EQ(Collect(tree, 10, 30), (std::vector<ObjectKey>{10, 20, 30}));
  EXPECT_EQ(Collect(tree, 11, 29), (std::vector<ObjectKey>{20}));
  EXPECT_TRUE(Collect(tree, 31, 39).empty());
  EXPECT_TRUE(Collect(tree, 50, 40).empty());  // inverted range
}

TEST(BPlusTreeTest, ExtremeKeys) {
  BPlusTree tree;
  const ObjectKey max_key = std::numeric_limits<ObjectKey>::max();
  tree.Insert(0, nullptr);
  tree.Insert(max_key, nullptr);
  tree.Insert(max_key - 1, nullptr);
  EXPECT_TRUE(tree.Contains(0));
  EXPECT_TRUE(tree.Contains(max_key));
  EXPECT_EQ(Collect(tree, 0, max_key).size(), 3u);
  EXPECT_TRUE(tree.CheckInvariants());
}

class BPlusTreeRandomSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BPlusTreeRandomSweep, MatchesReferenceSet) {
  Random rng(GetParam());
  BPlusTree tree;
  std::set<ObjectKey> reference;
  for (int i = 0; i < 20000; ++i) {
    const ObjectKey key = rng.Uniform(50000);
    tree.Insert(key, nullptr);
    reference.insert(key);
  }
  ASSERT_EQ(tree.size(), reference.size());
  ASSERT_TRUE(tree.CheckInvariants());

  // Membership samples.
  for (int i = 0; i < 2000; ++i) {
    const ObjectKey key = rng.Uniform(50000);
    ASSERT_EQ(tree.Contains(key), reference.count(key) != 0) << key;
  }

  // Random range scans against the reference.
  for (int i = 0; i < 200; ++i) {
    ObjectKey lo = rng.Uniform(50000);
    ObjectKey hi = rng.Uniform(50000);
    if (lo > hi) std::swap(lo, hi);
    const std::vector<ObjectKey> got = Collect(tree, lo, hi);
    std::vector<ObjectKey> want(reference.lower_bound(lo),
                                reference.upper_bound(hi));
    ASSERT_EQ(got, want) << "range [" << lo << ", " << hi << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BPlusTreeRandomSweep,
                         ::testing::Values(uint64_t{1}, uint64_t{2},
                                           uint64_t{3}, uint64_t{17},
                                           uint64_t{99}));

TEST(BPlusTreeTest, InvariantsHoldAtEverySplitBoundary) {
  // Insert exactly around the fanout boundaries and validate after each.
  BPlusTree tree;
  for (ObjectKey k = 0; k < BPlusTree::kMaxKeys * 3 + 2; ++k) {
    tree.Insert(k * 2 + 1, nullptr);  // odd keys
    ASSERT_TRUE(tree.CheckInvariants()) << "after insert " << k;
    ASSERT_FALSE(tree.Contains(k * 2));  // even keys never present
  }
}

TEST(BPlusTreeTest, DenseThenSparseMix) {
  BPlusTree tree;
  for (ObjectKey k = 1000; k < 2000; ++k) tree.Insert(k, nullptr);
  for (ObjectKey k = 0; k < 100000; k += 997) tree.Insert(k, nullptr);
  EXPECT_TRUE(tree.CheckInvariants());
  // Dense block intact; the sparse key 1994 (997*2) was a duplicate.
  EXPECT_EQ(Collect(tree, 1000, 1999).size(), 1000u);
}

TEST(BPlusTreeTest, CursorSeesInsertsThatHappenedBefore) {
  // The cursor guarantee: keys whose insert happened-before cursor
  // construction are always yielded, even when the walk spans leaves.
  BPlusTree tree;
  for (ObjectKey k = 0; k < 1000; k += 2) tree.Insert(k, nullptr);
  auto cur = tree.Scan(0, 999);
  // Inserts after construction may or may not surface; the evens must.
  for (ObjectKey k = 1; k < 1000; k += 2) tree.Insert(k, nullptr);
  std::vector<ObjectKey> got;
  for (; cur.Valid(); cur.Next()) got.push_back(cur.key());
  std::vector<ObjectKey> evens;
  for (ObjectKey k = 0; k < 1000; k += 2) evens.push_back(k);
  ASSERT_TRUE(std::is_sorted(got.begin(), got.end()));
  ASSERT_TRUE(std::adjacent_find(got.begin(), got.end()) == got.end());
  ASSERT_TRUE(std::includes(got.begin(), got.end(), evens.begin(),
                            evens.end()));
}

TEST(BPlusTreeTest, CursorIsMovable) {
  BPlusTree tree;
  for (ObjectKey k = 0; k < 10; ++k) tree.Insert(k, nullptr);
  auto cur = tree.Scan(3, 7);
  BPlusTree::ScanCursor moved = std::move(cur);
  std::vector<ObjectKey> got;
  for (; moved.Valid(); moved.Next()) got.push_back(moved.key());
  EXPECT_EQ(got, (std::vector<ObjectKey>{3, 4, 5, 6, 7}));
}

// ---------------------------------------------------------------------
// Bulk build
// ---------------------------------------------------------------------

// Bulk-loaded key i is 2i + 2: key 0, key 1, every odd key and every
// key past the last stay free for COW inserts before, inside and after
// the loaded range.
ObjectKey BulkKey(size_t i) { return 2 * static_cast<ObjectKey>(i) + 2; }

// A distinct fake chain per key; the tree never dereferences it.
VersionChain* FakeChain(ObjectKey key) {
  return reinterpret_cast<VersionChain*>(static_cast<uintptr_t>(key) * 8 + 8);
}

void BulkLoad(BPlusTree* tree, size_t n) {
  BPlusTree::BulkLoader loader(tree, n);
  for (size_t i = 0; i < n; ++i) loader.Add(BulkKey(i), FakeChain(BulkKey(i)));
  loader.Finish();
}

// Height of a tree of full nodes: leaves hold kMaxKeys keys, interiors
// kMaxKeys + 1 children.
int FullHeight(size_t n) {
  int height = 1;
  size_t nodes = (n + BPlusTree::kMaxKeys - 1) / BPlusTree::kMaxKeys;
  while (nodes > 1) {
    nodes = (nodes + BPlusTree::kMaxKeys) / (BPlusTree::kMaxKeys + 1);
    ++height;
  }
  return height;
}

class BPlusTreeBulkLoad : public ::testing::TestWithParam<size_t> {};

TEST_P(BPlusTreeBulkLoad, BuildsFullNodesThatLaterInsertsKeepValid) {
  const size_t n = GetParam();
  BPlusTree tree;
  BulkLoad(&tree, n);

  ASSERT_EQ(tree.size(), n);
  ASSERT_TRUE(tree.CheckInvariants());  // incl. kMinKeys on every node
  EXPECT_EQ(tree.height(), FullHeight(n));
  const BPlusTree::Footprint fp = tree.footprint();
  // Every leaf full but the last two: ceil(n / kMaxKeys) leaves.
  EXPECT_EQ(fp.leaves,
            n == 0 ? 1 : (n + BPlusTree::kMaxKeys - 1) / BPlusTree::kMaxKeys);
  EXPECT_EQ(fp.interiors == 0, tree.height() == 1);

  // The cursor yields every key in order with its chain; probes are
  // exact, hits and misses alike.
  size_t i = 0;
  for (auto cur = tree.Scan(0, std::numeric_limits<ObjectKey>::max());
       cur.Valid(); cur.Next(), ++i) {
    ASSERT_LT(i, n);
    ASSERT_EQ(cur.key(), BulkKey(i));
    ASSERT_EQ(cur.chain(), FakeChain(BulkKey(i)));
  }
  ASSERT_EQ(i, n);
  for (size_t j = 0; j < n; ++j) {
    ASSERT_EQ(tree.FindChain(BulkKey(j)), FakeChain(BulkKey(j))) << j;
    ASSERT_EQ(tree.FindChain(BulkKey(j) + 1), nullptr) << j;
  }
  EXPECT_EQ(tree.FindChain(0), nullptr);
  EXPECT_EQ(tree.FindChain(1), nullptr);

  // COW inserts before, inside and after the loaded range: full leaves
  // split from the first insert on, and every invariant still holds.
  std::set<ObjectKey> want;
  for (size_t j = 0; j < n; ++j) want.insert(BulkKey(j));
  std::vector<ObjectKey> more = {0, 1, BulkKey(n), BulkKey(n) + 1};
  for (size_t j = 0; j < n; j += 3) more.push_back(BulkKey(j) + 1);
  for (ObjectKey k : more) {
    ASSERT_TRUE(tree.Insert(k, FakeChain(k))) << k;
    want.insert(k);
  }
  for (size_t j = 0; j < n; j += 7) {
    ASSERT_FALSE(tree.Insert(BulkKey(j), nullptr));  // already present
  }
  ASSERT_TRUE(tree.CheckInvariants());
  EXPECT_EQ(tree.size(), want.size());
  EXPECT_EQ(Collect(tree, 0, std::numeric_limits<ObjectKey>::max()),
            std::vector<ObjectKey>(want.begin(), want.end()));
  for (ObjectKey k : more) ASSERT_EQ(tree.FindChain(k), FakeChain(k)) << k;
}

constexpr size_t kMax = BPlusTree::kMaxKeys;
INSTANTIATE_TEST_SUITE_P(
    Sizes, BPlusTreeBulkLoad,
    ::testing::Values(
        size_t{0}, size_t{1}, BPlusTree::kMinKeys, kMax, kMax + 1,
        kMax * 5 + 3,                   // short last leaf
        kMax * (kMax + 1) + 2 * kMax,   // short last interior (height 3)
        kMax * (kMax + 1) * 3 + 1,      // short last leaf and interior
        kMax * (kMax + 1) * (kMax + 1) + kMax + 7));  // height 4

TEST(BPlusTreeTest, BulkLoadRejectsUnorderedKeysAndNonEmptyTrees) {
  EXPECT_DEATH(
      {
        BPlusTree tree;
        BPlusTree::BulkLoader loader(&tree, 2);
        loader.Add(5, nullptr);
        loader.Add(5, nullptr);
      },
      "MVCC_CHECK failed");
  EXPECT_DEATH(
      {
        BPlusTree tree;
        tree.Insert(1, nullptr);
        BPlusTree::BulkLoader loader(&tree, 1);
      },
      "MVCC_CHECK failed");
}

TEST(BPlusTreeTest, UnfinishedBulkLoadLeavesTheTreeEmpty) {
  BPlusTree tree;
  {
    BPlusTree::BulkLoader loader(&tree, 1000);
    for (size_t i = 0; i < 500; ++i) loader.Add(BulkKey(i), nullptr);
  }  // destroyed unfinished: frees its private nodes (ASan: no leak)
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.CheckInvariants());
  BulkLoad(&tree, 100);
  EXPECT_EQ(tree.size(), 100u);
  EXPECT_TRUE(tree.CheckInvariants());
}

// ---------------------------------------------------------------------
// Concurrency
// ---------------------------------------------------------------------

// Readers traverse latch-free while one writer drives leaf and interior
// splits. Run under TSan in CI (sanitize matrix): any missed retire,
// premature free, or unsynchronized slot publication shows up here.
TEST(BPlusTreeConcurrency, ReadersTraverseDuringSplits) {
  BPlusTree tree;
  constexpr ObjectKey kSpan = 40000;
  // Preload the evens; the writer inserts odds, forcing splits across
  // the whole key range while readers scan it.
  for (ObjectKey k = 0; k < kSpan; k += 2) tree.Insert(k, nullptr);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  std::atomic<uint64_t> scans{0};
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      Random rng(0xC0FFEE + r);
      while (!stop.load(std::memory_order_acquire)) {
        ObjectKey lo = rng.Uniform(kSpan);
        ObjectKey hi = std::min<ObjectKey>(lo + 2048, kSpan - 1);
        ObjectKey prev = 0;
        bool first = true;
        uint64_t evens_seen = 0;
        for (auto cur = tree.Scan(lo, hi); cur.Valid(); cur.Next()) {
          const ObjectKey k = cur.key();
          ASSERT_GE(k, lo);
          ASSERT_LE(k, hi);
          if (!first) ASSERT_GT(k, prev);  // strictly ascending
          first = false;
          prev = k;
          if (k % 2 == 0) ++evens_seen;
        }
        // Every preloaded (pre-cursor) even key in the window must
        // appear regardless of concurrent odd-key splits.
        const uint64_t evens_expected = hi / 2 - (lo + 1) / 2 + 1;
        ASSERT_EQ(evens_seen, evens_expected)
            << "window [" << lo << ", " << hi << "]";
        scans.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Writer: odds in a scattered order so splits land all over the tree.
  Random wrng(0xBEEF);
  std::vector<ObjectKey> odds;
  odds.reserve(kSpan / 2);
  for (ObjectKey k = 1; k < kSpan; k += 2) odds.push_back(k);
  for (size_t i = odds.size(); i > 1; --i) {
    std::swap(odds[i - 1], odds[wrng.Uniform(i)]);
  }
  for (ObjectKey k : odds) ASSERT_TRUE(tree.Insert(k, nullptr));

  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_GT(scans.load(), 0u);
  EXPECT_EQ(tree.size(), kSpan);
  EXPECT_TRUE(tree.CheckInvariants());
}

// Scanners stream while the tree is bulk-built under them and while a
// writer then COW-inserts keys past the loaded range. A scan sees the
// empty tree or every loaded key in its window, never part of the load.
// Run under TSan in CI: the bulk publish is one release store of the
// root, so a reader that sees the root must see every node below it.
TEST(BPlusTreeConcurrency, ScannersStreamAcrossBulkLoadAndLaterInserts) {
  BPlusTree tree;
  constexpr size_t kLoaded = 20000;
  const ObjectKey last_loaded = BulkKey(kLoaded - 1);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> full_scans{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Random rng(0xB01D + r);
      while (!stop.load(std::memory_order_acquire)) {
        const size_t first = rng.Uniform(kLoaded);
        const ObjectKey lo = BulkKey(first);
        const ObjectKey hi = lo + 4096;  // may run past the loaded range
        uint64_t loaded_seen = 0;
        ObjectKey prev = 0;
        bool first_key = true;
        for (auto cur = tree.Scan(lo, hi); cur.Valid(); cur.Next()) {
          const ObjectKey k = cur.key();
          ASSERT_GE(k, lo);
          ASSERT_LE(k, hi);
          if (!first_key) {
            ASSERT_GT(k, prev);  // strictly ascending
          }
          first_key = false;
          prev = k;
          if (k <= last_loaded) {
            ASSERT_EQ(k % 2, 0u);
            ASSERT_EQ(cur.chain(), FakeChain(k));
            ++loaded_seen;
          }
        }
        const uint64_t loaded_in_window =
            std::min<uint64_t>(kLoaded - first, 4096 / 2 + 1);
        ASSERT_TRUE(loaded_seen == 0 || loaded_seen == loaded_in_window)
            << "partial bulk load seen in [" << lo << ", " << hi << "]";
        if (loaded_seen != 0) full_scans.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  BulkLoad(&tree, kLoaded);
  for (ObjectKey k = last_loaded + 1; k < last_loaded + 20000; ++k) {
    ASSERT_TRUE(tree.Insert(k, FakeChain(k)));
  }
  while (full_scans.load(std::memory_order_relaxed) < 3) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(tree.size(), kLoaded + 20000 - 1);
  EXPECT_TRUE(tree.CheckInvariants());
}

// Two writers race on disjoint key sets (the tree-wide writer latch
// serializes them); readers verify both sets merge consistently.
TEST(BPlusTreeConcurrency, ConcurrentWritersSerialize) {
  BPlusTree tree;
  constexpr ObjectKey kPerWriter = 20000;
  std::thread w1([&] {
    for (ObjectKey k = 0; k < kPerWriter; ++k) tree.Insert(k * 2, nullptr);
  });
  std::thread w2([&] {
    for (ObjectKey k = 0; k < kPerWriter; ++k) {
      tree.Insert(k * 2 + 1, nullptr);
    }
  });
  w1.join();
  w2.join();
  EXPECT_EQ(tree.size(), 2 * kPerWriter);
  EXPECT_TRUE(tree.CheckInvariants());
  EXPECT_EQ(Collect(tree, 0, 2 * kPerWriter - 1).size(), 2 * kPerWriter);
}

// Safe-reclamation proof: while a cursor (epoch pin) is live, nodes
// retired by concurrent inserts must NOT be freed no matter how often
// the epoch is nudged; dropping the cursor lets the backlog drain.
TEST(BPlusTreeConcurrency, PinnedCursorBlocksNodeReclamation) {
  EpochManager& ebr = EpochManager::Global();
  // Drain anything earlier tests left behind so the deltas below are
  // attributable to this tree.
  for (int i = 0; i < 4; ++i) ebr.Advance();
  const uint64_t freed_before_pin = ebr.total_freed();

  BPlusTree tree;
  for (ObjectKey k = 0; k < 1000; k += 2) tree.Insert(k, nullptr);
  for (int i = 0; i < 4; ++i) ebr.Advance();  // preload retires drained

  {
    auto cur = tree.Scan(0, 999);  // pins the epoch
    ASSERT_TRUE(cur.Valid());
    const uint64_t freed_baseline = ebr.total_freed();
    // Each insert retires at least the replaced leaf.
    for (ObjectKey k = 1; k < 1000; k += 2) tree.Insert(k, nullptr);
    ASSERT_GT(ebr.retired_count(), 0u);
    // A pinned reader blocks the global epoch from advancing far enough
    // for anything retired after the pin to be freed.
    for (int i = 0; i < 16; ++i) ebr.Advance();
    EXPECT_EQ(ebr.total_freed(), freed_baseline)
        << "node freed while a cursor could still reach it";
    // The pinned cursor must still read coherent (pre-insert) state.
    uint64_t evens = 0;
    for (; cur.Valid(); cur.Next()) {
      if (cur.key() % 2 == 0) ++evens;
    }
    EXPECT_EQ(evens, 500u);
  }  // cursor destroyed -> unpinned

  // Now the backlog drains.
  for (int i = 0; i < 4; ++i) ebr.Advance();
  EXPECT_GT(ebr.total_freed(), freed_before_pin);
  EXPECT_TRUE(tree.CheckInvariants());
}

}  // namespace
}  // namespace mvcc
