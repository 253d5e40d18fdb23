// Rank-ordered bitmap index over the pattern attributes of a dataset.
//
// Rows are permuted into ranking order at build time (position 0 = rank
// 1). One bitset per (attribute, value) marks which rank positions hold
// that value. Then
//   * s_D(p)      = popcount(AND of the bitsets of p's predicates)
//   * s_Rk(D)(p)  = popcount of the same AND restricted to the first k
//                   positions (a prefix popcount)
// and "does the tuple at rank position r satisfy p" is a code
// comparison. This gives the detection algorithms exactly the
// incremental structure they exploit: moving from k to k+1 changes a
// single prefix bit.
#ifndef FAIRTOPK_INDEX_BITMAP_INDEX_H_
#define FAIRTOPK_INDEX_BITMAP_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "index/bitset.h"
#include "pattern/pattern.h"
#include "relation/table.h"

namespace fairtopk {

/// Counting index for one (table, ranking, pattern space). Immutable
/// from the detection algorithms' point of view; the serving layer may
/// patch it in place through ApplyRanking when the ranking churns (see
/// src/service/audit_session.h).
class BitmapIndex {
 public:
  /// Builds the index. `ranking` must be a permutation of row ids
  /// [0, table.num_rows()); `space` must refer to categorical
  /// attributes of `table`'s schema.
  static Result<BitmapIndex> Build(const Table& table,
                                   const PatternSpace& space,
                                   const std::vector<uint32_t>& ranking);

  /// Reassembles an index from previously serialized parts — the
  /// inverse of reading ranking()/ValueBitset()/RankedCode() out of a
  /// built index. Validates everything Build() would have derived:
  /// `ranking` is a non-empty permutation, the containers agree with
  /// `space`'s attribute count and domain sizes, every bitset spans
  /// exactly ranking.size() positions, and the bitsets are consistent
  /// with `rank_codes` (each rank position set in exactly the bitset of
  /// its code). Used by the snapshot reader; hostile inputs come back
  /// as InvalidArgument, never as out-of-bounds access later.
  static Result<BitmapIndex> FromParts(
      PatternSpace space, std::vector<uint32_t> ranking,
      std::vector<std::vector<Bitset>> value_bits,
      std::vector<std::vector<int16_t>> rank_codes);

  /// Row ids in rank order (position 0 = rank 1).
  const std::vector<uint32_t>& ranking() const { return ranking_; }

  /// Re-targets the index at `new_ranking` by patching only the suffix
  /// of rank positions where the old and new permutations differ,
  /// instead of rebuilding: for each changed position, the per-value
  /// bitsets get one Clear + one Set per attribute whose code changed.
  /// `table` must be the table this index was built from, optionally
  /// extended by appended rows (it may not shrink, and pre-existing
  /// rows may not change); appended rows must stay within the pattern
  /// space's domains. `new_ranking` must be a permutation of
  /// [0, table.num_rows()) that agrees with the current ranking on the
  /// unchanged prefix — the rearranged suffix is validated here, in
  /// time proportional to its length. On success `patched_positions`
  /// (if non-null) receives the number of rank positions rewritten; on
  /// error the index is unchanged.
  Status ApplyRanking(const Table& table,
                      const std::vector<uint32_t>& new_ranking,
                      size_t* patched_positions = nullptr);

  /// Number of tuples (|D|).
  size_t num_rows() const { return num_rows_; }

  /// The pattern space this index serves.
  const PatternSpace& space() const { return space_; }

  /// s_D(p): number of tuples satisfying `p`. Reads |p|·⌈|D|/64⌉
  /// words (|p| = number of predicates) and allocates nothing.
  size_t PatternCount(const Pattern& p) const;

  /// s_Rk(D)(p): number of tuples among the top-k satisfying `p`.
  /// Requires k <= num_rows(). Reads only the k-bit prefix of p's
  /// predicate bitsets, |p|·⌈k/64⌉ words, and allocates nothing.
  size_t TopKCount(const Pattern& p, size_t k) const;

  /// True iff the tuple at rank position `pos` (0-based: pos 0 is rank
  /// 1) satisfies `p`.
  bool RankedRowSatisfies(const Pattern& p, size_t pos) const;

  /// Dictionary code of pattern attribute `attr` for the tuple at rank
  /// position `pos`.
  int16_t RankedCode(size_t pos, size_t attr) const {
    return rank_codes_[attr][pos];
  }

  /// Original table row id of the tuple at rank position `pos`.
  uint32_t RowIdAtRank(size_t pos) const { return ranking_[pos]; }

  /// The (attribute, value) bitset over rank positions.
  const Bitset& ValueBitset(size_t attr, int16_t code) const {
    return value_bits_[attr][static_cast<size_t>(code)];
  }

 private:
  BitmapIndex() = default;

  /// Words a >= 3-predicate intersection ANDs per step, through a
  /// stack buffer (2 KiB, so it stays in L1 across the predicates).
  static constexpr size_t kChunkWords = 256;

  /// Popcounts of the AND of p's predicate bitsets over words
  /// [0, n_words): `total` over all of them, `prefix` over the prefix
  /// (k_full, k_mask) as split by kernels::SplitPrefix, which must lie
  /// within those words. One predicate is one `counts` pass, two one
  /// `and_counts` pass; more run chunk by chunk. Returns false, and
  /// counts nothing, when p is the empty pattern.
  bool AndCounts(const Pattern& p, size_t n_words, size_t k_full,
                 uint64_t k_mask, size_t* total, size_t* prefix) const;

  PatternSpace space_;
  size_t num_rows_ = 0;
  std::vector<uint32_t> ranking_;
  // value_bits_[attr][code]: rank positions holding `code` in `attr`.
  std::vector<std::vector<Bitset>> value_bits_;
  // rank_codes_[attr][pos]: code of `attr` at rank position `pos`.
  std::vector<std::vector<int16_t>> rank_codes_;
};

}  // namespace fairtopk

#endif  // FAIRTOPK_INDEX_BITMAP_INDEX_H_
