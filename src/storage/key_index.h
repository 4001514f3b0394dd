#ifndef MVCC_STORAGE_KEY_INDEX_H_
#define MVCC_STORAGE_KEY_INDEX_H_

#include "common/ids.h"
#include "storage/btree.h"

namespace mvcc {

// Ordered index over the keys that exist in an object store, mapping
// each key to its VersionChain so a snapshot scan is index-walk ->
// chain read with no per-key hash re-probe. Keys are only ever added
// (objects are never dropped; garbage collection removes versions, not
// objects), so the index needs no tombstones.
//
// Reads and scans are latch-free: the underlying BPlusTree publishes
// copy-on-write nodes through atomic pointers and retires replaced
// nodes through epoch-based reclamation, so traversal takes an epoch
// pin and zero latches (see storage/btree.h). Inserts serialize on the
// tree's writer latch — they happen once per object creation, off the
// read path.
//
// The phantom story: a read-only transaction scanning a range reads
// each indexed key's chain at its start number. A key created AFTER the
// snapshot has only versions with numbers above sn, so the chain read
// reports NotFound and the scan skips it — snapshot scans are
// phantom-free with no locking at all (docs/correctness.md).
class KeyIndex {
 public:
  KeyIndex() = default;
  KeyIndex(const KeyIndex&) = delete;
  KeyIndex& operator=(const KeyIndex&) = delete;

  // Idempotent: re-inserting an existing key is a no-op.
  void Insert(ObjectKey key, VersionChain* chain) { tree_.Insert(key, chain); }

  // One-pass build of an empty index from `n` ascending entries; see
  // BPlusTree::BulkLoader.
  BPlusTree::BulkLoader BulkLoad(size_t n) {
    return BPlusTree::BulkLoader(&tree_, n);
  }

  // Streaming latch-free cursor over [lo, hi], ascending. The cursor
  // holds an epoch pin for its lifetime; see BPlusTree::ScanCursor for
  // the concurrent-insert guarantees.
  BPlusTree::ScanCursor Scan(ObjectKey lo, ObjectKey hi) const {
    return tree_.Scan(lo, hi);
  }

  bool Contains(ObjectKey key) const { return tree_.Contains(key); }

  // The chain stored for `key`, or nullptr if absent.
  VersionChain* FindChain(ObjectKey key) const { return tree_.FindChain(key); }

  size_t size() const { return tree_.size(); }

  BPlusTree::Footprint footprint() const { return tree_.footprint(); }

 private:
  BPlusTree tree_;
};

}  // namespace mvcc

#endif  // MVCC_STORAGE_KEY_INDEX_H_
