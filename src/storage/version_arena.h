#ifndef MVCC_STORAGE_VERSION_ARENA_H_
#define MVCC_STORAGE_VERSION_ARENA_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/latch.h"

namespace mvcc {

// Slab arena backing the latch-free read path's version storage.
//
// PR 5 made snapshot reads latch-free by publishing immutable version
// arrays behind atomic pointers — and promptly lost to the latched
// baseline on every mixed workload, because the WRITE side paid for the
// read side: every republish was a heap allocation plus a per-array
// EpochManager::Retire (a global mutex, and every 128th call a
// process-wide membarrier storm), and every version payload was an
// std::string heap round trip. This arena is the Larson-et-al.-shaped
// fix: version arrays and version payloads are carved out of large
// cache-line-aligned slabs with a bump pointer, and reclamation is
// batched at SLAB granularity — one EBR retirement per exhausted slab
// instead of one per replaced array, a ~10^3 reduction in retire/advance
// traffic under sustained write load.
//
// Lifecycle of a slab:
//   mapped    - taken straight from the OS with mmap, aligned to its
//               own size (Release's address mask needs that), never
//               from the malloc heap. Its pages are faulted in only as
//               the bump pointer reaches them.
//   open      - the arena's current carve target. Holds a +1 "open"
//               bias on its live count so it can never be reclaimed
//               while allocations may still land in it.
//   sealed    - a fresh slab replaced it (bump pointer exhausted, or
//               the arena closed). The bias is dropped; live now counts
//               exactly the unreleased blocks carved from it.
//   dead      - live hit zero: every block was released. The slab is
//               unlinked from the allocation path and handed to the
//               epoch manager in ONE Retire call.
//   recycled  - the grace period elapsed (no reader pinned at or before
//               the retirement epoch can hold a pointer into the slab),
//               and the slab returns to the arena's free list for reuse.
//   unmapped  - the arena was deleted (after Close and the last
//               recycle): every slab it ever mapped is munmapped, so the
//               memory goes back to the OS at once. This is why slabs
//               are not heap blocks: glibc keeps freed heap memory for
//               reuse, so a store closed and reopened in one process
//               grew RSS on every cycle.
//
// Why reuse is safe (the ABA case the tests pin): a reader holding a
// pointer into slab memory — a version array mid-binary-search, a
// payload mid-copy — is pinned in an epoch <= the slab's retirement
// epoch. The epoch manager frees (here: recycles) a retirement only
// after the global epoch has advanced twice past it, which requires
// every such reader to have unpinned. A slab therefore never re-enters
// the free list, and its bytes are never re-carved, while any thread
// that could dereference its old contents is still running.
//
// Blocks are released, never freed: Release() only decrements the
// owning slab's live count (lock-free; the slab is found by masking the
// block address with the slab alignment). Block destructors never run —
// everything carved from a slab must be trivially destructible, which
// is why VersionChain stores POD slots and raw payload bytes rather
// than std::string.
//
// Allocations larger than LargeThreshold() (oversized payloads, very
// deep chains) bypass the slabs: they are heap-allocated and
// individually EBR-retired on release, preserving the same reclamation
// contract at the cost of the old per-object retire — acceptable
// because they are rare by construction.
//
// Thread safety: Allocate() takes the arena's spin latch (arenas are
// per-shard, so this contends about as much as the shard's chains do);
// Release() is lock-free. The arena is destroyed via Close(), not
// delete: dead slabs may still be parked in the epoch manager, each
// holding a reference, and the arena frees itself only after the last
// one comes home. Close() requires every block to have been released
// (the object store deletes its chains first).
class VersionArena {
 public:
  static constexpr size_t kDefaultSlabBytes = 1 << 18;  // 256 KiB

  struct Stats {
    uint64_t allocs = 0;          // blocks carved (slab or heap)
    uint64_t bytes_carved = 0;    // bytes handed out (after rounding)
    uint64_t slabs_allocated = 0; // fresh slabs mapped from the OS
    uint64_t slabs_recycled = 0;  // reuses off the free list
    uint64_t slabs_retired = 0;   // dead slabs handed to the EBR
    uint64_t slabs_freed = 0;     // retirements returned by the EBR
    uint64_t large_allocs = 0;    // heap-path allocations
  };

  // `slab_bytes` must be a power of two >= 4096 (Release relies on
  // address masking to find a block's slab header).
  static VersionArena* Create(size_t slab_bytes = kDefaultSlabBytes);

  // Process-wide arena for version chains constructed without an
  // owning store (tests, ad-hoc chains). Never closed.
  static VersionArena* Default();

  // Drops the owner reference and seals the current slab. All blocks
  // must already be released. The arena deletes itself once every slab
  // parked in the epoch manager has been returned — possibly as late as
  // the epoch manager's own destruction at process exit.
  void Close();

  // Carves `bytes` (rounded up to 16-byte granularity) out of the
  // current slab, or the heap if `bytes` exceeds LargeThreshold().
  // Never returns nullptr for bytes > 0; Allocate(0) returns nullptr.
  void* Allocate(size_t bytes);

  // Releases a block previously carved with exactly `bytes`. The memory
  // must already be unreachable from every published structure; it stays
  // readable by epoch-pinned threads until the owning slab's (or, for
  // large blocks, the block's own) grace period elapses.
  void Release(void* p, size_t bytes);

  // Allocations strictly larger than this take the heap path.
  size_t LargeThreshold() const { return slab_bytes_ / 8; }

  Stats GetStats() const;

 private:
  struct Slab;

  explicit VersionArena(size_t slab_bytes);
  ~VersionArena();

  // Installs a fresh (or recycled) open slab; caller holds latch_.
  Slab* InstallSlabLocked();
  // Drops the open bias of `slab`. Returns true if that made the slab
  // dead — the caller must then RetireDeadSlab() it AFTER dropping
  // latch_ (retirement can synchronously run deleters that re-enter
  // the latch). Caller holds latch_.
  bool SealLocked(Slab* slab);
  // Hands a dead slab to the epoch manager (exactly once per death).
  void RetireDeadSlab(Slab* slab);
  // EBR deleter: the grace period elapsed; recycle into the free list.
  static void ReturnFromEbr(void* p);

  void Ref();
  void Unref();

  const size_t slab_bytes_;

  mutable SpinLatch latch_;
  Slab* open_ = nullptr;             // carve target; latch_ held
  std::vector<Slab*> free_slabs_;    // recycled, ready for reuse
  std::vector<Slab*> all_slabs_;     // every slab ever created (owned)
  bool closed_ = false;

  // 1 for the owner (dropped by Close) + 1 per slab parked in the EBR.
  std::atomic<int64_t> refs_{1};

  std::atomic<uint64_t> allocs_{0};
  std::atomic<uint64_t> bytes_carved_{0};
  std::atomic<uint64_t> slabs_allocated_{0};
  std::atomic<uint64_t> slabs_recycled_{0};
  std::atomic<uint64_t> slabs_retired_{0};
  std::atomic<uint64_t> slabs_freed_{0};
  std::atomic<uint64_t> large_allocs_{0};
};

}  // namespace mvcc

#endif  // MVCC_STORAGE_VERSION_ARENA_H_
