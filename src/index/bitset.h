// Fixed-size dynamic bitset: the per-predicate row sets of the bitmap
// index. Counting dispatches through the runtime-selected SIMD kernel
// table (index/kernels/kernels.h); the AND+popcount passes over several
// bitsets run on that table directly (BitmapIndex, PatternCursor).
#ifndef FAIRTOPK_INDEX_BITSET_H_
#define FAIRTOPK_INDEX_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fairtopk {

/// A bitset over a fixed number of positions.
class Bitset {
 public:
  Bitset() = default;

  /// Creates a bitset of `num_bits` zeroed bits.
  explicit Bitset(size_t num_bits);

  size_t num_bits() const { return num_bits_; }

  /// Sets the bit at `pos`. Requires pos < num_bits().
  void Set(size_t pos);

  /// Clears the bit at `pos`. Requires pos < num_bits().
  void Clear(size_t pos);

  /// Tests the bit at `pos`. Requires pos < num_bits().
  bool Test(size_t pos) const;

  /// Number of set bits.
  size_t Count() const;

  /// Number of set bits (`total`) and of set bits among positions
  /// [0, k) (`prefix`), in a single pass over the words. Requires
  /// k <= num_bits().
  void Counts(size_t k, size_t* total, size_t* prefix) const;

  /// Changes the size to `num_bits`, preserving the common prefix.
  /// Grown positions are zero; on shrink, bits beyond the new size are
  /// discarded (counts stay consistent). Used by the session layer when
  /// appended rows extend the rank-ordered index.
  void Resize(size_t num_bits);

  /// Raw 64-bit words (unused high bits are zero).
  const std::vector<uint64_t>& words() const { return words_; }

  /// Reconstructs a bitset from its raw word array, the inverse of
  /// words() — used by the snapshot reader. `words` must hold exactly
  /// ceil(num_bits / 64) entries and any bits past num_bits must be
  /// zero (callers validate; violations are asserted in debug builds).
  static Bitset FromWords(size_t num_bits, std::vector<uint64_t> words);

 private:
  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace fairtopk

#endif  // FAIRTOPK_INDEX_BITSET_H_
