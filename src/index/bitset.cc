#include "index/bitset.h"

#include <cassert>

#include "index/kernels/kernels.h"

namespace fairtopk {

namespace {
constexpr size_t kWordBits = 64;

size_t WordsFor(size_t num_bits) {
  return (num_bits + kWordBits - 1) / kWordBits;
}

// Mask selecting the first `bits` bits of a word (bits in [0, 64]).
uint64_t PrefixMask(size_t bits) {
  return bits >= kWordBits ? ~uint64_t{0} : ((uint64_t{1} << bits) - 1);
}

}  // namespace

Bitset::Bitset(size_t num_bits)
    : num_bits_(num_bits), words_(WordsFor(num_bits), 0) {}

Bitset Bitset::FromWords(size_t num_bits, std::vector<uint64_t> words) {
  assert(words.size() == WordsFor(num_bits));
  assert(num_bits % kWordBits == 0 || words.empty() ||
         (words.back() & ~PrefixMask(num_bits % kWordBits)) == 0);
  Bitset out;
  out.num_bits_ = num_bits;
  out.words_ = std::move(words);
  return out;
}

void Bitset::Set(size_t pos) {
  assert(pos < num_bits_);
  words_[pos / kWordBits] |= uint64_t{1} << (pos % kWordBits);
}

void Bitset::Clear(size_t pos) {
  assert(pos < num_bits_);
  words_[pos / kWordBits] &= ~(uint64_t{1} << (pos % kWordBits));
}

bool Bitset::Test(size_t pos) const {
  assert(pos < num_bits_);
  return (words_[pos / kWordBits] >> (pos % kWordBits)) & 1;
}

size_t Bitset::Count() const {
  size_t total = 0;
  size_t prefix = 0;
  kernels::Active().counts(words_.data(), words_.size(), 0, 0, &total,
                           &prefix);
  return total;
}

void Bitset::Counts(size_t k, size_t* total, size_t* prefix) const {
  assert(k <= num_bits_);
  size_t k_full = 0;
  uint64_t k_mask = 0;
  kernels::SplitPrefix(k, &k_full, &k_mask);
  kernels::Active().counts(words_.data(), words_.size(), k_full, k_mask,
                           total, prefix);
}

void Bitset::Resize(size_t num_bits) {
  words_.resize(WordsFor(num_bits), 0);
  num_bits_ = num_bits;
  // Zero the now-unused high bits of the last word so Count() and the
  // AND-based primitives stay exact after a shrink.
  const size_t rem = num_bits_ % kWordBits;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= PrefixMask(rem);
  }
}

}  // namespace fairtopk
