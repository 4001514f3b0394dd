#ifndef MVCC_STORAGE_BTREE_H_
#define MVCC_STORAGE_BTREE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/epoch.h"
#include "common/ids.h"
#include "common/latch.h"

namespace mvcc {

class VersionChain;

// Epoch-protected copy-on-write B+ tree over object keys, the ordered
// index behind ObjectStore. Leaf entries carry the key's VersionChain*
// so a snapshot scan is index-walk -> chain read, with no second hash
// probe per key.
//
// Concurrency model (the same EBR discipline as the version arrays and
// the store's hash tables, src/common/epoch.h):
//   * Nodes are immutable once published, except the child-pointer
//     slots of interior nodes, which are atomic and may be re-pointed
//     at a replacement subtree by a writer.
//   * Readers traverse under one EpochGuard with acquire loads only —
//     zero latches, zero stores, never blocked by writers.
//   * An insert copies the leaf (and, on splits, the path above it),
//     publishes the new subtree with ONE release store into the parent
//     slot that roots the changed region (or root_), and retires every
//     replaced node through EpochManager. Retired nodes stay readable
//     until every reader pinned at or before the retirement epoch has
//     unpinned.
//   * Writers serialize on one tree-wide SpinLatch. Inserts happen only
//     at object creation (keys are never deleted — GC removes versions,
//     not objects), so the writer side is cold; per-leaf serialization
//     would buy nothing and would complicate split publication.
//
// Insert-only also means no tombstones, no merges, no underflow
// rebalancing: the only structural mutations are leaf copy and split,
// which keeps the COW path auditable. An empty tree can instead be
// built bottom-up in one pass (BulkLoader): full nodes, published with
// one release store of the root.
//
// Shape invariants (verified by CheckInvariants(), exercised by the
// property tests):
//   * every leaf is at the same depth;
//   * an interior node with k separators has k+1 children, and every
//     key in child i is < separator[i] <= every key in child i+1;
//   * every node except the root holds at least kMinKeys keys;
//   * cursor order equals sorted key order.
class BPlusTree {
 public:
  static constexpr size_t kMaxKeys = 64;
  static constexpr size_t kMinKeys = kMaxKeys / 2;
  // Generous height bound: fanout is >= kMinKeys + 1 on every interior
  // level, so 16 levels cover far more than 2^64 keys.
  static constexpr int kMaxHeight = 16;

  BPlusTree();
  ~BPlusTree();
  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

  // Inserts key -> chain. Returns false (and changes nothing) if the
  // key already exists. Thread-safe against concurrent readers and
  // other inserters; the chain pointer is opaque to the tree and may be
  // null in structure-only tests.
  bool Insert(ObjectKey key, VersionChain* chain);

  // Latch-free point probe under an internal EpochGuard.
  bool Contains(ObjectKey key) const;

  // Latch-free: the chain stored for `key`, or nullptr if absent.
  // (Indistinguishable from a present key inserted with a null chain —
  // the store never does that.)
  VersionChain* FindChain(ObjectKey key) const;

  size_t size() const { return size_.load(std::memory_order_acquire); }
  int height() const { return height_.load(std::memory_order_acquire); }

  // Live node counts and the bytes they occupy (memory gauges).
  // Maintained under the writer latch and read with relaxed loads, so a
  // read racing an insert may pair counts from either side of it.
  struct Footprint {
    size_t leaves = 0;
    size_t interiors = 0;
    size_t bytes = 0;
  };
  Footprint footprint() const;

  // Full structural validation of the currently published tree; false
  // means a bug. Takes its own EpochGuard; safe (though racy in
  // coverage, not in memory) against concurrent inserts.
  bool CheckInvariants() const;

 private:
  struct Node {
    const bool leaf;
    const uint32_t count;  // keys in a leaf, separators in an interior
    Node(bool l, uint32_t c) : leaf(l), count(c) {}
  };

  struct LeafNode : Node {
    explicit LeafNode(uint32_t c) : Node(true, c) {}
    ObjectKey keys[kMaxKeys];
    VersionChain* chains[kMaxKeys];
  };

  struct InteriorNode : Node {
    explicit InteriorNode(uint32_t c) : Node(false, c) {}
    ObjectKey seps[kMaxKeys];
    // Child i covers [seps[i-1], seps[i] - 1]: keys equal to a
    // separator live in the RIGHT child (upper_bound descent). Slots
    // are written only under the writer latch; readers acquire-load.
    std::atomic<Node*> children[kMaxKeys + 1];
  };

 public:
  // Streaming ordered cursor over [lo, hi]. Holds an epoch pin for its
  // whole lifetime, so every node it can still reach — including nodes
  // retired by concurrent inserts after the cursor started — stays
  // allocated until the cursor is destroyed. Instead of leaf sibling
  // links (which copy-on-write replacement would dangle), the cursor
  // keeps its descent path and re-descends from the next parent slot
  // when a leaf is exhausted.
  //
  // Guarantees under concurrent inserts: keys are yielded in strictly
  // ascending order with no duplicates; every key whose insert
  // happened-before the cursor's construction is yielded; keys
  // inserted concurrently may or may not appear. Move-only, and must
  // stay on the thread that created it (the epoch pin is thread-local).
  class ScanCursor {
   public:
    ScanCursor(ScanCursor&& other) noexcept;
    ScanCursor& operator=(ScanCursor&&) = delete;
    ScanCursor(const ScanCursor&) = delete;
    ScanCursor& operator=(const ScanCursor&) = delete;
    ~ScanCursor();

    bool Valid() const { return leaf_ != nullptr; }
    ObjectKey key() const { return leaf_->keys[pos_]; }
    VersionChain* chain() const { return leaf_->chains[pos_]; }
    void Next();

   private:
    friend class BPlusTree;
    ScanCursor(const BPlusTree* tree, ObjectKey lo, ObjectKey hi);

    // Pushes interior frames from `node` down its leftmost spine and
    // lands on a leaf (positions at pos 0).
    void DescendLeftmost(const Node* node);
    // Current leaf exhausted: pop to the deepest frame with an
    // unvisited child and descend its leftmost spine.
    void AdvanceLeaf();
    // Invalidates the cursor once past hi_ (or out of leaves).
    void ClampToHi();

    struct Frame {
      const InteriorNode* node;
      uint32_t child;
    };
    Frame stack_[kMaxHeight];
    int depth_ = 0;
    const LeafNode* leaf_ = nullptr;
    uint32_t pos_ = 0;
    ObjectKey hi_ = 0;
    bool pinned_ = false;
  };

  // Latch-free ordered scan of [lo, hi] (empty cursor if lo > hi).
  ScanCursor Scan(ObjectKey lo, ObjectKey hi) const {
    return ScanCursor(this, lo, hi);
  }

  // Builds an EMPTY tree bottom-up from exactly `n` entries handed to
  // Add() in strictly ascending key order (MVCC_CHECK). Leaves are
  // filled to kMaxKeys and interiors to kMaxKeys + 1 children, left to
  // right; the last two nodes of each level share what remains so both
  // keep at least kMinKeys. Nothing is visible until Finish() publishes
  // the root with one release store and retires the empty root leaf,
  // so concurrent readers see either the empty tree or all n keys. The
  // tree must stay insert-free from construction to Finish(); a loader
  // destroyed unfinished frees what it built and leaves the tree empty.
  class BulkLoader {
   public:
    BulkLoader(BPlusTree* tree, size_t n);
    ~BulkLoader();
    BulkLoader(const BulkLoader&) = delete;
    BulkLoader& operator=(const BulkLoader&) = delete;

    void Add(ObjectKey key, VersionChain* chain);
    void Finish();

   private:
    struct Child {
      ObjectKey first;  // smallest key under `node`
      Node* node;
    };

    BPlusTree* const tree_;
    const size_t n_;
    size_t added_ = 0;
    ObjectKey last_ = 0;        // last key added
    LeafNode* leaf_ = nullptr;  // being filled, not yet in level_
    uint32_t fill_ = 0;
    std::vector<Child> level_;  // finished nodes of the level being built
    bool finished_ = false;
  };

 private:
  // EBR deleter: frees exactly one node, never its children (those are
  // either still live or separately retired).
  static void FreeNode(void* p);
  // Recursively frees the live tree (destructor only).
  static void FreeSubtree(Node* node);

  static LeafNode* CopyLeafInsert(const LeafNode* leaf, uint32_t pos,
                                  ObjectKey key, VersionChain* chain);

  // Recursive invariant walk; returns subtree leaf depth or -1, and
  // counts the nodes it visits into `fp`.
  int Check(const Node* node, bool is_root, ObjectKey lo, ObjectKey hi,
            Footprint* fp) const;

  SpinLatch writer_latch_;
  std::atomic<Node*> root_;
  std::atomic<size_t> size_{0};
  std::atomic<int> height_{1};
  // Written only under writer_latch_.
  std::atomic<size_t> leaves_{1};
  std::atomic<size_t> interiors_{0};
};

}  // namespace mvcc

#endif  // MVCC_STORAGE_BTREE_H_
