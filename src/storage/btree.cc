#include "storage/btree.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <mutex>

#include "common/check.h"

namespace mvcc {

namespace {

// Binary searches over the fixed node arrays.
inline uint32_t UpperBound(const ObjectKey* keys, uint32_t count,
                           ObjectKey key) {
  return static_cast<uint32_t>(std::upper_bound(keys, keys + count, key) -
                               keys);
}

inline uint32_t LowerBound(const ObjectKey* keys, uint32_t count,
                           ObjectKey key) {
  return static_cast<uint32_t>(std::lower_bound(keys, keys + count, key) -
                               keys);
}

// Nodes needed for `total` entries at up to `cap` per node (an empty
// level is one empty root leaf).
inline size_t NodeCount(size_t total, size_t cap) {
  return total == 0 ? 1 : (total + cap - 1) / cap;
}

// Entries in node `i` when `total` entries fill nodes of `cap` left to
// right: every node is full except the last two, which share the rest
// so that both hold at least `min` (the rest exceeds cap, and
// cap >= 2 * min - 1, so half of it always suffices). A lone node is
// the root and takes everything.
inline uint32_t PlannedSize(size_t total, size_t cap, size_t min, size_t i) {
  const size_t nodes = NodeCount(total, cap);
  if (nodes == 1) return static_cast<uint32_t>(total);
  if (i + 2 < nodes) return static_cast<uint32_t>(cap);
  const size_t rest = total - (nodes - 2) * cap;
  const size_t last = rest - cap >= min ? rest - cap : rest / 2;
  return static_cast<uint32_t>(i + 1 == nodes ? last : rest - last);
}

inline void Bump(std::atomic<size_t>& counter) {
  counter.store(counter.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
}

}  // namespace

BPlusTree::BPlusTree() : root_(new LeafNode(0)) {}

BPlusTree::~BPlusTree() { FreeSubtree(root_.load(std::memory_order_relaxed)); }

void BPlusTree::FreeNode(void* p) {
  Node* n = static_cast<Node*>(p);
  if (n->leaf) {
    delete static_cast<LeafNode*>(n);
  } else {
    delete static_cast<InteriorNode*>(n);
  }
}

void BPlusTree::FreeSubtree(Node* node) {
  if (!node->leaf) {
    auto* in = static_cast<InteriorNode*>(node);
    for (uint32_t i = 0; i <= in->count; ++i) {
      FreeSubtree(in->children[i].load(std::memory_order_relaxed));
    }
  }
  FreeNode(node);
}

BPlusTree::LeafNode* BPlusTree::CopyLeafInsert(const LeafNode* leaf,
                                               uint32_t pos, ObjectKey key,
                                               VersionChain* chain) {
  auto* copy = new LeafNode(leaf->count + 1);
  for (uint32_t i = 0; i < pos; ++i) {
    copy->keys[i] = leaf->keys[i];
    copy->chains[i] = leaf->chains[i];
  }
  copy->keys[pos] = key;
  copy->chains[pos] = chain;
  for (uint32_t i = pos; i < leaf->count; ++i) {
    copy->keys[i + 1] = leaf->keys[i];
    copy->chains[i + 1] = leaf->chains[i];
  }
  return copy;
}

bool BPlusTree::Insert(ObjectKey key, VersionChain* chain) {
  std::lock_guard<SpinLatch> lock(writer_latch_);

  // Descend to the covering leaf, recording the path. Relaxed loads are
  // enough on the writer side: every slot store happens under this
  // latch, whose acquire gives us the previous writer's publishes.
  struct PathEntry {
    InteriorNode* node;
    uint32_t idx;
  };
  PathEntry path[kMaxHeight];
  int depth = 0;
  Node* n = root_.load(std::memory_order_relaxed);
  while (!n->leaf) {
    auto* in = static_cast<InteriorNode*>(n);
    const uint32_t idx = UpperBound(in->seps, in->count, key);
    assert(depth < kMaxHeight);
    path[depth++] = {in, idx};
    n = in->children[idx].load(std::memory_order_relaxed);
  }
  auto* leaf = static_cast<LeafNode*>(n);
  const uint32_t pos = LowerBound(leaf->keys, leaf->count, key);
  if (pos < leaf->count && leaf->keys[pos] == key) return false;

  // Publishes `node` as the replacement for the node at `level` (0 =
  // root). ONE release store; everything above it is unchanged.
  auto publish = [&](int level, Node* node) {
    if (level == 0) {
      root_.store(node, std::memory_order_release);
    } else {
      path[level - 1].node->children[path[level - 1].idx].store(
          node, std::memory_order_release);
    }
  };

  EpochManager& ebr = EpochManager::Global();

  if (leaf->count < kMaxKeys) {
    // Common case: copy the one leaf, swap it in, retire the original.
    publish(depth, CopyLeafInsert(leaf, pos, key, chain));
    ebr.Retire(static_cast<Node*>(leaf), &FreeNode);
    size_.fetch_add(1, std::memory_order_release);
    return true;
  }

  // Leaf overflow: split into two fresh leaves and push the separator
  // up, copying each full ancestor. Replaced nodes are retired only
  // AFTER the single publication unlinks them all at once.
  Node* replaced[kMaxHeight + 1];
  int nreplaced = 0;
  replaced[nreplaced++] = leaf;

  const uint32_t total = leaf->count + 1;  // kMaxKeys + 1 combined keys
  const uint32_t mid = total / 2;
  Bump(leaves_);
  auto* left = new LeafNode(mid);
  auto* right = new LeafNode(total - mid);
  for (uint32_t i = 0; i < total; ++i) {
    ObjectKey k;
    VersionChain* c;
    if (i < pos) {
      k = leaf->keys[i];
      c = leaf->chains[i];
    } else if (i == pos) {
      k = key;
      c = chain;
    } else {
      k = leaf->keys[i - 1];
      c = leaf->chains[i - 1];
    }
    if (i < mid) {
      left->keys[i] = k;
      left->chains[i] = c;
    } else {
      right->keys[i - mid] = k;
      right->chains[i - mid] = c;
    }
  }

  Node* lchild = left;
  Node* rchild = right;
  ObjectKey sep = right->keys[0];  // B+ style: separator duplicates a key

  int level = depth;  // level of the node just split
  while (true) {
    const int parent_level = level - 1;
    if (parent_level < 0) {
      // Root split: grow a new root with the two halves.
      auto* new_root = new InteriorNode(1);
      new_root->seps[0] = sep;
      new_root->children[0].store(lchild, std::memory_order_relaxed);
      new_root->children[1].store(rchild, std::memory_order_relaxed);
      root_.store(new_root, std::memory_order_release);
      height_.fetch_add(1, std::memory_order_release);
      Bump(interiors_);
      break;
    }
    InteriorNode* parent = path[parent_level].node;
    const uint32_t idx = path[parent_level].idx;
    if (parent->count < kMaxKeys) {
      // Parent has room: copy it with child idx replaced by the two
      // halves, publish, done.
      auto* np = new InteriorNode(parent->count + 1);
      for (uint32_t i = 0; i < idx; ++i) {
        np->seps[i] = parent->seps[i];
        np->children[i].store(
            parent->children[i].load(std::memory_order_relaxed),
            std::memory_order_relaxed);
      }
      np->seps[idx] = sep;
      np->children[idx].store(lchild, std::memory_order_relaxed);
      np->children[idx + 1].store(rchild, std::memory_order_relaxed);
      for (uint32_t i = idx; i < parent->count; ++i) {
        np->seps[i + 1] = parent->seps[i];
        np->children[i + 2].store(
            parent->children[i + 1].load(std::memory_order_relaxed),
            std::memory_order_relaxed);
      }
      publish(parent_level, np);
      replaced[nreplaced++] = parent;
      break;
    }

    // Parent full too: build the combined separator/child sequence and
    // cut it in half; the middle separator moves UP (it does not stay
    // in either half, unlike a leaf split).
    ObjectKey cseps[kMaxKeys + 1];
    Node* cchildren[kMaxKeys + 2];
    for (uint32_t i = 0; i < idx; ++i) cseps[i] = parent->seps[i];
    cseps[idx] = sep;
    for (uint32_t i = idx; i < parent->count; ++i) {
      cseps[i + 1] = parent->seps[i];
    }
    for (uint32_t i = 0; i < idx; ++i) {
      cchildren[i] = parent->children[i].load(std::memory_order_relaxed);
    }
    cchildren[idx] = lchild;
    cchildren[idx + 1] = rchild;
    for (uint32_t i = idx + 1; i <= parent->count; ++i) {
      cchildren[i + 1] = parent->children[i].load(std::memory_order_relaxed);
    }

    const uint32_t nseps = parent->count + 1;  // kMaxKeys + 1
    const uint32_t smid = nseps / 2;
    auto* pleft = new InteriorNode(smid);
    for (uint32_t i = 0; i < smid; ++i) {
      pleft->seps[i] = cseps[i];
      pleft->children[i].store(cchildren[i], std::memory_order_relaxed);
    }
    pleft->children[smid].store(cchildren[smid], std::memory_order_relaxed);
    auto* pright = new InteriorNode(nseps - smid - 1);
    for (uint32_t i = smid + 1; i < nseps; ++i) {
      pright->seps[i - smid - 1] = cseps[i];
      pright->children[i - smid - 1].store(cchildren[i],
                                           std::memory_order_relaxed);
    }
    pright->children[nseps - smid - 1].store(cchildren[nseps],
                                             std::memory_order_relaxed);

    replaced[nreplaced++] = parent;
    Bump(interiors_);
    lchild = pleft;
    rchild = pright;
    sep = cseps[smid];
    level = parent_level;
  }

  for (int i = 0; i < nreplaced; ++i) {
    ebr.Retire(static_cast<void*>(replaced[i]), &FreeNode);
  }
  size_.fetch_add(1, std::memory_order_release);
  return true;
}

BPlusTree::Footprint BPlusTree::footprint() const {
  Footprint fp;
  fp.leaves = leaves_.load(std::memory_order_relaxed);
  fp.interiors = interiors_.load(std::memory_order_relaxed);
  fp.bytes = fp.leaves * sizeof(LeafNode) + fp.interiors * sizeof(InteriorNode);
  return fp;
}

bool BPlusTree::Contains(ObjectKey key) const {
  EpochGuard guard;
  const Node* n = root_.load(std::memory_order_acquire);
  while (!n->leaf) {
    auto* in = static_cast<const InteriorNode*>(n);
    n = in->children[UpperBound(in->seps, in->count, key)].load(
        std::memory_order_acquire);
  }
  auto* leaf = static_cast<const LeafNode*>(n);
  const uint32_t pos = LowerBound(leaf->keys, leaf->count, key);
  return pos < leaf->count && leaf->keys[pos] == key;
}

VersionChain* BPlusTree::FindChain(ObjectKey key) const {
  EpochGuard guard;
  const Node* n = root_.load(std::memory_order_acquire);
  while (!n->leaf) {
    auto* in = static_cast<const InteriorNode*>(n);
    n = in->children[UpperBound(in->seps, in->count, key)].load(
        std::memory_order_acquire);
  }
  auto* leaf = static_cast<const LeafNode*>(n);
  const uint32_t pos = LowerBound(leaf->keys, leaf->count, key);
  if (pos < leaf->count && leaf->keys[pos] == key) return leaf->chains[pos];
  return nullptr;
}

// ---------------------------------------------------------------------------
// BulkLoader

BPlusTree::BulkLoader::BulkLoader(BPlusTree* tree, size_t n)
    : tree_(tree), n_(n) {
  MVCC_CHECK(tree->size() == 0);
  level_.reserve(NodeCount(n, kMaxKeys));
}

BPlusTree::BulkLoader::~BulkLoader() {
  if (finished_) return;
  // Nothing was published: the nodes built so far are private.
  delete leaf_;
  for (const Child& c : level_) FreeNode(c.node);
}

void BPlusTree::BulkLoader::Add(ObjectKey key, VersionChain* chain) {
  MVCC_CHECK(added_ < n_ && !finished_);
  MVCC_CHECK(added_ == 0 || key > last_);
  if (leaf_ == nullptr) {
    leaf_ = new LeafNode(PlannedSize(n_, kMaxKeys, kMinKeys, level_.size()));
  }
  leaf_->keys[fill_] = key;
  leaf_->chains[fill_] = chain;
  last_ = key;
  ++added_;
  if (++fill_ == leaf_->count) {
    level_.push_back({leaf_->keys[0], leaf_});
    leaf_ = nullptr;
    fill_ = 0;
  }
}

void BPlusTree::BulkLoader::Finish() {
  MVCC_CHECK(added_ == n_ && !finished_);
  finished_ = true;
  if (n_ == 0) return;  // the empty root leaf already is the tree
  const size_t leaves = level_.size();
  size_t interiors = 0;
  int height = 1;
  // Each pass turns one level's nodes into their parents. Separators
  // are each right child's smallest key: keys equal to a separator
  // live in the right child, as Insert's upper_bound descent expects.
  while (level_.size() > 1) {
    const size_t total = level_.size();
    std::vector<Child> up;
    up.reserve(NodeCount(total, kMaxKeys + 1));
    for (size_t next = 0; next < total;) {
      const uint32_t kids =
          PlannedSize(total, kMaxKeys + 1, kMinKeys + 1, up.size());
      auto* in = new InteriorNode(kids - 1);
      for (uint32_t c = 0; c < kids; ++c) {
        if (c > 0) in->seps[c - 1] = level_[next + c].first;
        in->children[c].store(level_[next + c].node,
                              std::memory_order_relaxed);
      }
      up.push_back({level_[next].first, in});
      next += kids;
    }
    interiors += up.size();
    level_.swap(up);
    ++height;
  }

  std::lock_guard<SpinLatch> lock(tree_->writer_latch_);
  Node* empty = tree_->root_.load(std::memory_order_relaxed);
  MVCC_CHECK(empty->leaf && empty->count == 0);
  tree_->root_.store(level_[0].node, std::memory_order_release);
  tree_->height_.store(height, std::memory_order_release);
  tree_->leaves_.store(leaves, std::memory_order_relaxed);
  tree_->interiors_.store(interiors, std::memory_order_relaxed);
  tree_->size_.store(n_, std::memory_order_release);
  EpochManager::Global().Retire(empty, &FreeNode);
}

// ---------------------------------------------------------------------------
// ScanCursor

BPlusTree::ScanCursor::ScanCursor(const BPlusTree* tree, ObjectKey lo,
                                  ObjectKey hi)
    : hi_(hi) {
  EpochManager::Global().Pin();
  pinned_ = true;
  if (lo > hi) return;  // invalid from birth
  const Node* n = tree->root_.load(std::memory_order_acquire);
  while (!n->leaf) {
    auto* in = static_cast<const InteriorNode*>(n);
    const uint32_t idx = UpperBound(in->seps, in->count, lo);
    stack_[depth_++] = {in, idx};
    n = in->children[idx].load(std::memory_order_acquire);
  }
  leaf_ = static_cast<const LeafNode*>(n);
  pos_ = LowerBound(leaf_->keys, leaf_->count, lo);
  if (pos_ >= leaf_->count) AdvanceLeaf();
  ClampToHi();
}

BPlusTree::ScanCursor::ScanCursor(ScanCursor&& other) noexcept
    : depth_(other.depth_),
      leaf_(other.leaf_),
      pos_(other.pos_),
      hi_(other.hi_),
      pinned_(other.pinned_) {
  for (int i = 0; i < depth_; ++i) stack_[i] = other.stack_[i];
  other.pinned_ = false;  // the pin moves with the cursor
  other.leaf_ = nullptr;
  other.depth_ = 0;
}

BPlusTree::ScanCursor::~ScanCursor() {
  if (pinned_) EpochManager::Global().Unpin();
}

void BPlusTree::ScanCursor::Next() {
  ++pos_;
  if (pos_ >= leaf_->count) AdvanceLeaf();
  ClampToHi();
}

void BPlusTree::ScanCursor::DescendLeftmost(const Node* node) {
  while (!node->leaf) {
    auto* in = static_cast<const InteriorNode*>(node);
    stack_[depth_++] = {in, 0};
    node = in->children[0].load(std::memory_order_acquire);
  }
  leaf_ = static_cast<const LeafNode*>(node);
  pos_ = 0;
}

void BPlusTree::ScanCursor::AdvanceLeaf() {
  leaf_ = nullptr;
  while (depth_ > 0) {
    Frame& f = stack_[depth_ - 1];
    if (f.child < f.node->count) {
      ++f.child;
      DescendLeftmost(f.node->children[f.child].load(
          std::memory_order_acquire));
      return;
    }
    --depth_;
  }
}

void BPlusTree::ScanCursor::ClampToHi() {
  if (leaf_ != nullptr && leaf_->keys[pos_] > hi_) leaf_ = nullptr;
}

// ---------------------------------------------------------------------------
// Invariants

int BPlusTree::Check(const Node* node, bool is_root, ObjectKey lo,
                     ObjectKey hi, Footprint* fp) const {
  const ObjectKey* keys;
  if (node->leaf) {
    keys = static_cast<const LeafNode*>(node)->keys;
  } else {
    keys = static_cast<const InteriorNode*>(node)->seps;
  }
  if (node->count > kMaxKeys) return -1;
  if (!std::is_sorted(keys, keys + node->count)) return -1;
  if (std::adjacent_find(keys, keys + node->count) != keys + node->count) {
    return -1;  // duplicates
  }
  if (!is_root && node->count < kMinKeys) return -1;
  for (uint32_t i = 0; i < node->count; ++i) {
    if (keys[i] < lo || keys[i] > hi) return -1;
  }
  if (node->leaf) {
    ++fp->leaves;
    return 0;
  }
  ++fp->interiors;
  auto* in = static_cast<const InteriorNode*>(node);
  if (is_root && in->count == 0) return -1;
  int depth = -2;
  for (uint32_t i = 0; i <= in->count; ++i) {
    // Child i's keys lie in [prev separator, next separator). Keys equal
    // to a separator live in the RIGHT child (upper_bound descent), so
    // child i's upper bound is separator[i] - 1.
    const ObjectKey child_lo = i == 0 ? lo : in->seps[i - 1];
    const ObjectKey child_hi = i == in->count ? hi : in->seps[i] - 1;
    const Node* child = in->children[i].load(std::memory_order_acquire);
    const int child_depth = Check(child, false, child_lo, child_hi, fp);
    if (child_depth < 0) return -1;
    if (depth == -2) {
      depth = child_depth;
    } else if (depth != child_depth) {
      return -1;
    }
  }
  return depth + 1;
}

bool BPlusTree::CheckInvariants() const {
  EpochGuard guard;
  Footprint walked;
  const int depth = Check(root_.load(std::memory_order_acquire),
                          /*is_root=*/true, 0,
                          std::numeric_limits<ObjectKey>::max(), &walked);
  if (depth < 0) return false;
  if (depth + 1 != height()) return false;
  // The gauges must count exactly the live nodes (at quiesce, as below).
  const Footprint gauges = footprint();
  if (walked.leaves != gauges.leaves || walked.interiors != gauges.interiors) {
    return false;
  }
  // A full cursor walk must enumerate exactly size() keys, strictly
  // ascending. (Meaningful at quiesce; under concurrent inserts the
  // two are sampled at different instants.)
  size_t n = 0;
  ObjectKey prev = 0;
  for (auto cur = Scan(0, std::numeric_limits<ObjectKey>::max()); cur.Valid();
       cur.Next()) {
    if (n > 0 && cur.key() <= prev) return false;
    prev = cur.key();
    ++n;
  }
  return n == size();
}

}  // namespace mvcc
