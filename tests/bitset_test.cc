#include "index/bitset.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "index/kernels/kernels.h"

namespace fairtopk {
namespace {

/// Set bits among positions [0, k), through Bitset::Counts.
size_t CountPrefix(const Bitset& bits, size_t k) {
  size_t total = 0;
  size_t prefix = 0;
  bits.Counts(k, &total, &prefix);
  return prefix;
}

/// (a AND b) materialized through the active kernel table.
std::vector<uint64_t> AndWords(const Bitset& a, const Bitset& b) {
  std::vector<uint64_t> out = a.words();
  kernels::Active().and_with(out.data(), b.words().data(), out.size());
  return out;
}

TEST(BitsetTest, SetTestClear) {
  Bitset bits(130);
  EXPECT_EQ(bits.num_bits(), 130u);
  EXPECT_FALSE(bits.Test(0));
  bits.Set(0);
  bits.Set(64);
  bits.Set(129);
  EXPECT_TRUE(bits.Test(0));
  EXPECT_TRUE(bits.Test(64));
  EXPECT_TRUE(bits.Test(129));
  EXPECT_FALSE(bits.Test(1));
  bits.Clear(64);
  EXPECT_FALSE(bits.Test(64));
}

TEST(BitsetTest, CountAndPrefix) {
  Bitset bits(200);
  for (size_t i = 0; i < 200; i += 3) bits.Set(i);
  EXPECT_EQ(bits.Count(), 67u);
  EXPECT_EQ(CountPrefix(bits, 0), 0u);
  EXPECT_EQ(CountPrefix(bits, 1), 1u);
  EXPECT_EQ(CountPrefix(bits, 3), 1u);
  EXPECT_EQ(CountPrefix(bits, 4), 2u);
  EXPECT_EQ(CountPrefix(bits, 200), bits.Count());
}

TEST(BitsetTest, PrefixAtWordBoundaries) {
  Bitset bits(192);
  bits.Set(63);
  bits.Set(64);
  bits.Set(127);
  bits.Set(128);
  EXPECT_EQ(CountPrefix(bits, 63), 0u);
  EXPECT_EQ(CountPrefix(bits, 64), 1u);
  EXPECT_EQ(CountPrefix(bits, 65), 2u);
  EXPECT_EQ(CountPrefix(bits, 128), 3u);
  EXPECT_EQ(CountPrefix(bits, 129), 4u);
}

TEST(BitsetTest, KernelAndWithIntersects) {
  Bitset a(100);
  Bitset b(100);
  for (size_t i = 0; i < 100; i += 2) a.Set(i);
  for (size_t i = 0; i < 100; i += 3) b.Set(i);
  const Bitset c = Bitset::FromWords(100, AndWords(a, b));
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(c.Test(i), i % 6 == 0) << i;
  }
}

TEST(BitsetTest, KernelAndCountsMatchMaterializedAnd) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 1 + rng.UniformUint64(300);
    Bitset a(n);
    Bitset b(n);
    std::vector<bool> va(n, false), vb(n, false);
    for (size_t i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.4)) {
        a.Set(i);
        va[i] = true;
      }
      if (rng.Bernoulli(0.6)) {
        b.Set(i);
        vb[i] = true;
      }
    }
    size_t expected = 0;
    for (size_t i = 0; i < n; ++i) {
      if (va[i] && vb[i]) ++expected;
    }
    const size_t k = rng.UniformUint64(n + 1);
    size_t expected_prefix = 0;
    for (size_t i = 0; i < k; ++i) {
      if (va[i] && vb[i]) ++expected_prefix;
    }
    size_t k_full = 0;
    uint64_t k_mask = 0;
    kernels::SplitPrefix(k, &k_full, &k_mask);
    size_t total = 0;
    size_t prefix = 0;
    kernels::Active().and_counts(a.words().data(), b.words().data(),
                                 a.words().size(), k_full, k_mask, &total,
                                 &prefix);
    EXPECT_EQ(total, expected);
    EXPECT_EQ(prefix, expected_prefix);
    // The materialized intersection counts the same.
    EXPECT_EQ(Bitset::FromWords(n, AndWords(a, b)).Count(), expected);
  }
}

TEST(BitsetTest, UnusedHighBitsStayZero) {
  Bitset bits(70);
  for (size_t i = 0; i < 70; ++i) bits.Set(i);
  EXPECT_EQ(bits.Count(), 70u);
  EXPECT_EQ(bits.words().size(), 2u);
  EXPECT_EQ(bits.words()[1] >> 6, 0u);
}

TEST(BitsetTest, ResizeGrowPreservesBitsAndZeroesNewPositions) {
  Bitset bits(70);
  bits.Set(0);
  bits.Set(69);
  bits.Resize(200);
  EXPECT_EQ(bits.num_bits(), 200u);
  EXPECT_EQ(bits.Count(), 2u);
  EXPECT_TRUE(bits.Test(0));
  EXPECT_TRUE(bits.Test(69));
  for (size_t i = 70; i < 200; ++i) EXPECT_FALSE(bits.Test(i));
  bits.Set(199);
  EXPECT_EQ(bits.Count(), 3u);
  EXPECT_EQ(CountPrefix(bits, 70), 2u);
}

TEST(BitsetTest, ResizeShrinkDiscardsHighBits) {
  Bitset bits(130);
  for (size_t i = 0; i < 130; ++i) bits.Set(i);
  bits.Resize(65);
  EXPECT_EQ(bits.num_bits(), 65u);
  EXPECT_EQ(bits.Count(), 65u);
  // Growing back must not resurrect the discarded bits.
  bits.Resize(130);
  EXPECT_EQ(bits.Count(), 65u);
  for (size_t i = 65; i < 130; ++i) EXPECT_FALSE(bits.Test(i));
}

TEST(BitsetTest, ResizeWithinSameWordKeepsCountsExact) {
  Bitset bits(10);
  for (size_t i = 0; i < 10; ++i) bits.Set(i);
  bits.Resize(4);
  EXPECT_EQ(bits.Count(), 4u);
  bits.Resize(10);
  EXPECT_EQ(bits.Count(), 4u);
  EXPECT_EQ(CountPrefix(bits, 10), 4u);
}

}  // namespace
}  // namespace fairtopk
