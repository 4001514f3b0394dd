// VersionArena unit tests plus the arena-backed VersionChain
// model-equivalence property test: across randomized install / read /
// prune / remove sequences — including out-of-order installs, empty and
// oversized payloads, and slab sizes small enough to force constant
// slab turnover — a chain carving its storage from a slab arena must be
// observationally identical to a heap-backed reference model. Seeds
// sweep wider in CI via MVCC_ARENA_SEEDS.
//
// Slabs are mapped straight from the OS and unmapped when the arena is
// deleted. An ASan build keeps its coverage of the arena's lifetime: it
// does not track mapped memory, but a late access to a slab after its
// arena is deleted hits an unmapped page and faults, which ASan reports
// as it reported a heap-use-after-free on a heap slab.

#include <gtest/gtest.h>
#include <sys/mman.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/epoch.h"
#include "common/random.h"
#include "common/sim_hook.h"
#include "storage/version_arena.h"
#include "storage/version_chain.h"

namespace mvcc {
namespace {

uint64_t SweepSeeds(uint64_t default_count) {
  const char* env = std::getenv("MVCC_ARENA_SEEDS");
  if (env == nullptr || *env == '\0') return default_count;
  const uint64_t n = std::strtoull(env, nullptr, 10);
  return n == 0 ? default_count : n;
}

// Drains grace periods so everything retired so far gets freed/recycled
// (each Advance moves one epoch when no reader straddles the previous).
void DrainEbr() {
  EpochManager::Global().Advance();
  EpochManager::Global().Advance();
  EpochManager::Global().Advance();
}

TEST(VersionArenaTest, CarvesReleasesAndRecyclesSlabs) {
  VersionArena* arena = VersionArena::Create(/*slab_bytes=*/4096);
  // Fill several slabs worth of blocks, then release them all: every
  // non-open slab must die, get retired in ONE batch each, and return
  // to the free list once the grace period elapses.
  std::vector<void*> blocks;
  constexpr size_t kBlock = 256;
  for (int i = 0; i < 64; ++i) blocks.push_back(arena->Allocate(kBlock));
  for (void* p : blocks) {
    std::memset(p, 0xab, kBlock);  // blocks must be writable and distinct
    arena->Release(p, kBlock);
  }
  blocks.clear();
  DrainEbr();
  VersionArena::Stats s = arena->GetStats();
  EXPECT_GE(s.slabs_allocated, 2u);  // 64 * 256B cannot fit one 4K slab
  EXPECT_GT(s.slabs_retired, 0u);
  EXPECT_EQ(s.slabs_freed, s.slabs_retired);  // all grace periods elapsed
  EXPECT_EQ(s.allocs, 64u);

  // New allocations must reuse the recycled slabs, not grow the arena.
  const uint64_t allocated_before = s.slabs_allocated;
  for (int i = 0; i < 64; ++i) blocks.push_back(arena->Allocate(kBlock));
  s = arena->GetStats();
  EXPECT_GT(s.slabs_recycled, 0u);
  EXPECT_EQ(s.slabs_allocated, allocated_before);
  for (void* p : blocks) arena->Release(p, kBlock);
  arena->Close();
  DrainEbr();  // let the parked slabs come home so the arena frees itself
}

// Records the slab counters the arena reports through its observation
// points, so they can be read after the arena has deleted itself.
class ArenaObserver : public SimHook {
 public:
  explicit ArenaObserver(const void* arena) : arena_(arena) {
    InstallSimHook(this);
  }
  ~ArenaObserver() override { InstallSimHook(nullptr); }

  void SchedulePoint(const char*) override {}
  void BlockedPoint(const char*) override {}
  void Observe(const void* source, const char* what, uint64_t a,
               uint64_t) override {
    if (source != arena_) return;
    if (std::strcmp(what, "arena.retire_slab") == 0) retired = a;
    if (std::strcmp(what, "arena.recycle_slab") == 0) freed = a;
  }

  uint64_t retired = 0;
  uint64_t freed = 0;

 private:
  const void* const arena_;
};

// True while [addr, addr + bytes) is mapped (msync fails with ENOMEM on
// an unmapped page).
bool IsMapped(const void* addr, size_t bytes) {
  if (msync(const_cast<void*>(addr), bytes, MS_ASYNC) == 0) return true;
  EXPECT_EQ(errno, ENOMEM);
  return false;
}

TEST(VersionArenaTest, MappedSlabsReleaseThroughTheMaskAndUnmapOnDelete) {
  constexpr size_t kSlab = VersionArena::kDefaultSlabBytes;
  constexpr size_t kBlock = 1024;
  VersionArena* arena = VersionArena::Create();
  ArenaObserver observer(arena);
  auto slab_of = [](const void* p) {
    return reinterpret_cast<uintptr_t>(p) & ~(uintptr_t{kSlab} - 1);
  };

  // Carve one slab full: its first block sits right after the header and
  // its last one ends on the slab's last byte.
  std::vector<std::pair<void*, size_t>> first_slab;
  first_slab.emplace_back(arena->Allocate(kBlock), kBlock);
  const uintptr_t slab_a = slab_of(first_slab[0].first);
  const size_t header =
      reinterpret_cast<uintptr_t>(first_slab[0].first) - slab_a;
  ASSERT_GT(header, 0u);
  ASSERT_LT(header, kBlock);
  std::memset(first_slab[0].first, 0xee, kBlock);  // the slab's first bytes
  size_t carved = header + kBlock;
  while (carved < kSlab - kBlock) {
    const size_t n = std::min(arena->LargeThreshold(), kSlab - kBlock - carved);
    first_slab.emplace_back(arena->Allocate(n), n);
    carved += n;
  }
  first_slab.emplace_back(arena->Allocate(kBlock), kBlock);
  const uintptr_t last = reinterpret_cast<uintptr_t>(first_slab.back().first);
  ASSERT_EQ(last + kBlock, slab_a + kSlab);
  ASSERT_EQ(slab_of(first_slab.back().first), slab_a);
  std::memset(first_slab.back().first, 0xee, kBlock);  // and its last bytes

  // The next block opens a second slab and seals the first.
  void* second = arena->Allocate(kBlock);
  const uintptr_t slab_b = slab_of(second);
  ASSERT_NE(slab_b, slab_a);
  EXPECT_EQ(arena->GetStats().slabs_allocated, 2u);

  // Releasing the first slab's blocks, edge blocks included, must debit
  // that slab and no other: it dies, and only it.
  for (size_t i = 0; i < first_slab.size(); ++i) {
    EXPECT_EQ(arena->GetStats().slabs_retired, 0u) << "block " << i;
    arena->Release(first_slab[i].first, first_slab[i].second);
  }
  EXPECT_EQ(arena->GetStats().slabs_retired, 1u);
  arena->Release(second, kBlock);  // the open slab keeps its open bias
  EXPECT_EQ(arena->GetStats().slabs_retired, 1u);
  DrainEbr();
  EXPECT_EQ(arena->GetStats().slabs_freed, 1u);
  EXPECT_TRUE(IsMapped(reinterpret_cast<void*>(slab_a), kSlab));
  EXPECT_TRUE(IsMapped(reinterpret_cast<void*>(slab_b), kSlab));

  // Close seals the open slab, which dies at once; once the EBR returns
  // it the arena has every slab home and deletes itself, unmapping them.
  arena->Close();
  EXPECT_EQ(observer.retired, 2u);
  DrainEbr();
  EXPECT_EQ(observer.freed, observer.retired);
  EXPECT_FALSE(IsMapped(reinterpret_cast<void*>(slab_a), kSlab));
  EXPECT_FALSE(IsMapped(reinterpret_cast<void*>(slab_b), kSlab));
}

TEST(VersionArenaTest, OversizedBlocksTakeTheHeapPath) {
  VersionArena* arena = VersionArena::Create(/*slab_bytes=*/4096);
  const size_t big = arena->LargeThreshold() + 1;
  void* p = arena->Allocate(big);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xcd, big);
  arena->Release(p, big);
  const VersionArena::Stats s = arena->GetStats();
  EXPECT_EQ(s.large_allocs, 1u);
  arena->Close();
  DrainEbr();
}

TEST(VersionArenaTest, ZeroByteAllocationIsNull) {
  VersionArena* arena = VersionArena::Create(/*slab_bytes=*/4096);
  EXPECT_EQ(arena->Allocate(0), nullptr);
  arena->Release(nullptr, 0);  // must be a no-op
  arena->Close();
  DrainEbr();
}

// ---------------------------------------------------------------------
// Model equivalence: arena-backed chain vs heap-backed reference.
// ---------------------------------------------------------------------

// Reference model with the full VersionChain surface, including Remove.
class ChainModel {
 public:
  void Install(VersionNumber n, const Value& v) { versions_[n] = v; }

  std::optional<std::pair<VersionNumber, Value>> Read(
      TxnNumber at_most) const {
    auto it = versions_.upper_bound(at_most);
    if (it == versions_.begin()) return std::nullopt;
    --it;
    return std::make_pair(it->first, it->second);
  }

  std::optional<std::pair<VersionNumber, Value>> ReadLatest() const {
    if (versions_.empty()) return std::nullopt;
    auto it = std::prev(versions_.end());
    return std::make_pair(it->first, it->second);
  }

  bool Remove(VersionNumber n) { return versions_.erase(n) > 0; }

  size_t Prune(VersionNumber watermark) {
    auto keep = versions_.upper_bound(watermark);
    if (keep == versions_.begin()) return 0;
    --keep;  // newest version <= watermark survives
    size_t removed = 0;
    for (auto it = versions_.begin(); it != keep;) {
      it = versions_.erase(it);
      ++removed;
    }
    return removed;
  }

  size_t size() const { return versions_.size(); }

 private:
  std::map<VersionNumber, Value> versions_;
};

// Payload generator: mixes empty values, short strings, and blobs big
// enough to take the arena's heap path (slab_bytes/8 = 512 for the 4K
// slabs below), so every storage class is exercised.
Value PayloadFor(Random& rng, VersionNumber n) {
  const uint64_t kind = rng.Uniform(10);
  if (kind == 0) return Value();
  if (kind == 1) return Value(600 + rng.Uniform(600), 'x');
  return "v" + std::to_string(n);
}

TEST(ArenaChainEquivalence, MatchesHeapModelAcrossSeeds) {
  const uint64_t seeds = SweepSeeds(6);
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Random rng(0x9e3779b9 * seed + 1);
    // Tiny slabs: a few dozen installs turn a slab over, so the sweep
    // constantly retires, recycles, and re-carves while the chain is
    // live — the allocator-churn case the redesign must keep correct.
    VersionArena* arena = VersionArena::Create(/*slab_bytes=*/4096);
    {
      VersionChain chain(arena);
      ChainModel model;
      std::set<VersionNumber> used;

      for (int step = 0; step < 4000; ++step) {
        const double roll = rng.NextDouble();
        if (roll < 0.40) {
          // Install. Half in ascending order (append fast path), half
          // at a random number (out-of-order republish path).
          VersionNumber n;
          if (rng.Uniform(2) == 0 && !used.empty()) {
            n = rng.Uniform(100000);
          } else {
            n = used.empty() ? 1 : *used.rbegin() + 1 + rng.Uniform(3);
          }
          while (used.count(n)) ++n;
          used.insert(n);
          const Value v = PayloadFor(rng, n);
          chain.Install(Version{n, v, 1});
          model.Install(n, v);
        } else if (roll < 0.80) {
          const TxnNumber at = rng.Uniform(100000);
          auto expected = model.Read(at);
          auto actual = chain.Read(at);
          if (expected.has_value()) {
            ASSERT_TRUE(actual.ok()) << "step " << step;
            ASSERT_EQ(actual->version, expected->first) << "step " << step;
            ASSERT_EQ(actual->value, expected->second) << "step " << step;
          } else {
            ASSERT_TRUE(actual.status().IsNotFound()) << "step " << step;
          }
        } else if (roll < 0.88) {
          auto expected = model.ReadLatest();
          auto actual = chain.ReadLatest();
          if (expected.has_value()) {
            ASSERT_TRUE(actual.ok()) << "step " << step;
            ASSERT_EQ(actual->version, expected->first) << "step " << step;
            ASSERT_EQ(actual->value, expected->second) << "step " << step;
            ASSERT_EQ(chain.LatestNumber(), expected->first);
          } else {
            ASSERT_TRUE(actual.status().IsNotFound()) << "step " << step;
          }
        } else if (roll < 0.95) {
          const VersionNumber watermark = rng.Uniform(100000);
          ASSERT_EQ(chain.Prune(watermark), model.Prune(watermark))
              << "step " << step;
        } else {
          // Remove: half the time a version that exists, half a miss.
          VersionNumber n = rng.Uniform(100000);
          if (rng.Uniform(2) == 0 && !used.empty()) {
            auto it = used.lower_bound(n);
            if (it == used.end()) it = used.begin();
            n = *it;
          }
          ASSERT_EQ(chain.Remove(n), model.Remove(n)) << "step " << step;
          used.erase(n);
        }
        ASSERT_EQ(chain.size(), model.size()) << "step " << step;
      }
    }
    arena->Close();
    DrainEbr();
  }
}

}  // namespace
}  // namespace mvcc
