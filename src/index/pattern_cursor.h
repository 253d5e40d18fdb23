// PatternCursor: the incremental-counting companion of BitmapIndex for
// set-enumeration-tree traversals. A DFS over the search tree extends
// the current pattern by one predicate at a time; the cursor carries the
// parent's materialized intersection bitset down the stack so each child
// node costs ONE fused AND+popcount pass against a single (attribute,
// value) bitset, instead of re-intersecting all |p| predicate bitsets
// from scratch, as BitmapIndex::PatternCount does for an arbitrary
// pattern: |p|·⌈|D|/64⌉ words (TopKCount reads only |p|·⌈k/64⌉, the
// k-bit prefix of each bitset).
//
// Stack invariant: after Push(a1,v1)..Push(ad,vd), frame i-1 holds the
// materialized intersection of the first i pushed predicate bitsets, so
// the top frame is exactly the row set of the current pattern.
//
// Storage: the frames live in ONE contiguous arena (every frame of a
// traversal shares the index's width, so the stack is a single buffer
// with stride indexing, sized once to the deepest possible pattern).
// Steady-state traversal performs no allocation, and per-query
// allocations are O(1) amortized instead of one heap vector per depth.
//
// Fused counting: at depth >= 1, ChildCounts runs the kernel table's
// assign_and_count — it counts the child AND materializes it into the
// scratch slot above the stack in the same sweep. A Push of that very
// child then just commits the slot (no second AND pass), which makes
// the count-then-descend sequence of the search driver cost one sweep
// per descended child instead of two.
#ifndef FAIRTOPK_INDEX_PATTERN_CURSOR_H_
#define FAIRTOPK_INDEX_PATTERN_CURSOR_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "index/bitmap_index.h"
#include "index/bitset.h"
#include "index/kernels/kernels.h"
#include "pattern/pattern.h"

namespace fairtopk {

/// Mutable per-traversal state; one cursor per worker thread. The
/// referenced BitmapIndex must outlive the cursor and is only read.
class PatternCursor {
 public:
  explicit PatternCursor(const BitmapIndex& index) : index_(&index) {}

  /// Number of predicates currently materialized (0 = empty pattern).
  size_t depth() const { return depth_; }

  /// Child-count evaluations answered from a materialized parent frame
  /// (each one replaced |p| full intersections with a single AND).
  /// Cumulative over the cursor's LIFETIME — Reset() deliberately
  /// keeps the counter. Accounting that folds hits into per-phase
  /// stats must consume deltas via TakeReuseHits(), never accumulate
  /// this observer across phases (that double-counts).
  uint64_t reuse_hits() const { return reuse_hits_; }

  /// Returns the reuse hits since the previous TakeReuseHits() call
  /// (or since construction) and marks them consumed. The search
  /// driver's stats plumbing uses this, so a cursor reused across
  /// search phases contributes each hit exactly once.
  uint64_t TakeReuseHits() {
    const uint64_t delta = reuse_hits_ - taken_reuse_hits_;
    taken_reuse_hits_ = reuse_hits_;
    return delta;
  }

  /// Back to the empty pattern; the arena is kept.
  void Reset() {
    depth_ = 0;
    scratch_valid_ = false;
  }

  /// s_D and s_Rk of (current pattern ∪ {attr = value}) in one pass.
  /// At depth >= 1 the child's row set is also materialized into the
  /// scratch frame, so an immediately following Push(attr, value) is
  /// free.
  void ChildCounts(size_t attr, int16_t value, size_t k, size_t* size_d,
                   size_t* top_k) {
    const Bitset& bits = index_->ValueBitset(attr, value);
    if (depth_ == 0) {
      bits.Counts(k, size_d, top_k);
      return;
    }
    ++reuse_hits_;
    assert(bits.words().size() == frame_words_);
    size_t k_full = 0;
    uint64_t k_mask = 0;
    kernels::SplitPrefix(k, &k_full, &k_mask);
    kernels::Active().assign_and_count(Frame(depth_), Frame(depth_ - 1),
                                       bits.words().data(), frame_words_,
                                       k_full, k_mask, size_d, top_k);
    scratch_valid_ = true;
    scratch_attr_ = attr;
    scratch_value_ = value;
  }

  /// Descends into the child: materializes parent ∩ bitset(attr, value)
  /// as the new top frame (or just commits the scratch frame when
  /// ChildCounts(attr, value) was the preceding call).
  void Push(size_t attr, int16_t value);

  /// Ascends to the parent frame.
  void Pop() {
    assert(depth_ > 0);
    --depth_;
    scratch_valid_ = false;
  }

  /// Resets, then pushes every predicate of `p` (used to resume a
  /// search below an interior node).
  void SeedFrom(const Pattern& p);

 private:
  uint64_t* Frame(size_t i) { return arena_.data() + i * frame_words_; }

  const BitmapIndex* index_;
  size_t depth_ = 0;
  uint64_t reuse_hits_ = 0;
  uint64_t taken_reuse_hits_ = 0;

  // One buffer of (max depth + 1) stride-frame_words_ frames: slots
  // [0, depth_) are the live stack, slot depth_ is the scratch frame
  // ChildCounts speculatively materializes into.
  std::vector<uint64_t> arena_;
  size_t frame_words_ = 0;

  // Scratch memo: when valid, Frame(depth_) holds the materialized
  // child (scratch_attr_ = scratch_value_) of the current top frame.
  bool scratch_valid_ = false;
  size_t scratch_attr_ = 0;
  int16_t scratch_value_ = 0;
};

}  // namespace fairtopk

#endif  // FAIRTOPK_INDEX_PATTERN_CURSOR_H_
