#include "storage/version_arena.h"

#include <sys/mman.h>

#include <cstdint>
#include <new>

#include "common/check.h"
#include "common/epoch.h"
#include "common/sim_hook.h"

namespace mvcc {

namespace {

constexpr size_t kBlockAlign = 16;

size_t RoundUp(size_t bytes) {
  return (bytes + (kBlockAlign - 1)) & ~(kBlockAlign - 1);
}

void HeapBlockDeleter(void* p) { ::operator delete(p); }

// Maps `bytes` of anonymous memory aligned to `bytes` (a power of two):
// over-maps by one slab and unmaps the misaligned head and the tail, so
// the slab is its own mapping and munmap(slab, bytes) returns all of it.
void* MapAlignedSlab(size_t bytes) {
  void* raw = mmap(nullptr, 2 * bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  MVCC_CHECK(raw != MAP_FAILED);
  const uintptr_t base = reinterpret_cast<uintptr_t>(raw);
  const uintptr_t aligned = (base + bytes - 1) & ~(uintptr_t{bytes} - 1);
  const size_t head = aligned - base;
  if (head != 0) munmap(raw, head);
  munmap(reinterpret_cast<void*>(aligned + bytes), bytes - head);
  return reinterpret_cast<void*>(aligned);
}

}  // namespace

// Lives at the base of each slab-aligned region; blocks are carved from
// the bytes after it. The header is a full cache line so carved blocks
// never false-share with the live counter that Release() hammers.
struct alignas(64) VersionArena::Slab {
  VersionArena* owner;
  // +1 open bias while the slab is the carve target, +1 per carved
  // block. The transition to zero (possible only after sealing) makes
  // the slab dead and triggers its single EBR retirement.
  std::atomic<int64_t> live;
  size_t bump;  // next carve offset; guarded by the arena latch

  char* bytes() { return reinterpret_cast<char*>(this); }
};

VersionArena* VersionArena::Create(size_t slab_bytes) {
  MVCC_CHECK(slab_bytes >= 4096 && (slab_bytes & (slab_bytes - 1)) == 0);
  return new VersionArena(slab_bytes);
}

VersionArena* VersionArena::Default() {
  // Intentionally never closed: standalone chains release through it for
  // the life of the process, and the static pointer keeps it reachable
  // for leak checkers. The epoch manager's destructor returns any slabs
  // still parked there before static teardown completes.
  static VersionArena* arena = Create();
  return arena;
}

VersionArena::VersionArena(size_t slab_bytes) : slab_bytes_(slab_bytes) {}

VersionArena::~VersionArena() {
  for (Slab* slab : all_slabs_) munmap(slab, slab_bytes_);
}

void VersionArena::Ref() { refs_.fetch_add(1, std::memory_order_relaxed); }

void VersionArena::Unref() {
  if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
}

void VersionArena::Close() {
  Slab* dead = nullptr;
  {
    std::lock_guard<SpinLatch> guard(latch_);
    MVCC_CHECK(!closed_);
    closed_ = true;
    if (open_ != nullptr) {
      if (SealLocked(open_)) dead = open_;
      open_ = nullptr;
    }
  }
  // Retire outside the latch: Retire can trigger a synchronous epoch
  // advance whose deleters re-enter this arena's latch (ReturnFromEbr).
  if (dead != nullptr) RetireDeadSlab(dead);
  Unref();
}

VersionArena::Slab* VersionArena::InstallSlabLocked() {
  Slab* slab;
  if (!free_slabs_.empty()) {
    slab = free_slabs_.back();
    free_slabs_.pop_back();
    slabs_recycled_.fetch_add(1, std::memory_order_relaxed);
  } else {
    slab = new (MapAlignedSlab(slab_bytes_)) Slab;
    slab->owner = this;
    all_slabs_.push_back(slab);
    slabs_allocated_.fetch_add(1, std::memory_order_relaxed);
  }
  slab->live.store(1, std::memory_order_relaxed);  // open bias
  slab->bump = sizeof(Slab);
  open_ = slab;
  return slab;
}

bool VersionArena::SealLocked(Slab* slab) {
  // Dropping the open bias; if every carved block was already released,
  // this thread observed the death and owns the retirement. The caller
  // must perform that retirement AFTER releasing the latch (the retire
  // path can synchronously run deleters that re-enter it).
  return slab->live.fetch_sub(1, std::memory_order_acq_rel) == 1;
}

void VersionArena::RetireDeadSlab(Slab* slab) {
  // The slab is unreachable from the allocation path (sealed) and every
  // block in it is unlinked from the published structures (released) —
  // but epoch-pinned readers may still be dereferencing its contents.
  // One batched retirement covers all of them; the grace period makes
  // reuse safe (see the header comment on ABA).
  Ref();
  slabs_retired_.fetch_add(1, std::memory_order_relaxed);
  SimObserve(this, "arena.retire_slab", slabs_retired_.load(), 0);
  EpochManager::Global().Retire(slab, &ReturnFromEbr);
}

void VersionArena::ReturnFromEbr(void* p) {
  Slab* slab = static_cast<Slab*>(p);
  VersionArena* arena = slab->owner;
  {
    std::lock_guard<SpinLatch> guard(arena->latch_);
    arena->free_slabs_.push_back(slab);
  }
  arena->slabs_freed_.fetch_add(1, std::memory_order_relaxed);
  SimObserve(arena, "arena.recycle_slab", arena->slabs_freed_.load(), 0);
  arena->Unref();
}

void* VersionArena::Allocate(size_t bytes) {
  if (bytes == 0) return nullptr;
  allocs_.fetch_add(1, std::memory_order_relaxed);
  const size_t rounded = RoundUp(bytes);
  bytes_carved_.fetch_add(rounded, std::memory_order_relaxed);
  if (rounded > LargeThreshold()) {
    large_allocs_.fetch_add(1, std::memory_order_relaxed);
    return ::operator new(rounded);
  }
  Slab* dead = nullptr;
  void* p;
  {
    std::lock_guard<SpinLatch> guard(latch_);
    MVCC_CHECK(!closed_);
    Slab* slab = open_;
    if (slab == nullptr || slab->bump + rounded > slab_bytes_) {
      if (slab != nullptr && SealLocked(slab)) dead = slab;
      slab = InstallSlabLocked();
    }
    p = slab->bytes() + slab->bump;
    slab->bump += rounded;
    // The block's +1 keeps the slab alive until the block is released;
    // relaxed is enough — the latch orders this against sealing.
    slab->live.fetch_add(1, std::memory_order_relaxed);
  }
  if (dead != nullptr) RetireDeadSlab(dead);
  return p;
}

void VersionArena::Release(void* p, size_t bytes) {
  if (p == nullptr || bytes == 0) return;
  const size_t rounded = RoundUp(bytes);
  if (rounded > LargeThreshold()) {
    // Heap path: individually retired, freed after its own grace period.
    EpochManager::Global().Retire(p, &HeapBlockDeleter);
    return;
  }
  Slab* slab =
      reinterpret_cast<Slab*>(reinterpret_cast<uintptr_t>(p) &
                              ~(static_cast<uintptr_t>(slab_bytes_) - 1));
  // Lock-free: the slab cannot be sealed-and-recycled while this block
  // holds its +1, so the counter is safe to touch. acq_rel pairs with
  // SealLocked — whoever takes live to zero sees a fully-sealed slab.
  if (slab->live.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    RetireDeadSlab(slab);
  }
}

VersionArena::Stats VersionArena::GetStats() const {
  Stats s;
  s.allocs = allocs_.load(std::memory_order_relaxed);
  s.bytes_carved = bytes_carved_.load(std::memory_order_relaxed);
  s.slabs_allocated = slabs_allocated_.load(std::memory_order_relaxed);
  s.slabs_recycled = slabs_recycled_.load(std::memory_order_relaxed);
  s.slabs_retired = slabs_retired_.load(std::memory_order_relaxed);
  s.slabs_freed = slabs_freed_.load(std::memory_order_relaxed);
  s.large_allocs = large_allocs_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace mvcc
