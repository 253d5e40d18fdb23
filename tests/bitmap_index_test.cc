#include "index/bitmap_index.h"

#include <gtest/gtest.h>

#include "index/kernels/kernels.h"
#include "test_util.h"

namespace fairtopk {
namespace {

using testing::AllPatterns;
using testing::PatternOf;
using testing::RandomRanking;
using testing::RandomTable;

class BitmapIndexRandomTest : public ::testing::TestWithParam<uint64_t> {};

/// True iff table row `row` satisfies `p`, read from the table itself.
bool RowMatches(const Table& table, const PatternSpace& space,
                const Pattern& p, uint32_t row) {
  for (size_t a = 0; a < space.num_attributes(); ++a) {
    if (p.IsSpecified(a) &&
        table.CodeAt(row, space.table_index(a)) != p.value(a)) {
      return false;
    }
  }
  return true;
}

/// Naive counting oracle scanning the table directly.
size_t NaiveCount(const Table& table, const PatternSpace& space,
                  const Pattern& p, const std::vector<uint32_t>& ranking,
                  size_t k_prefix) {
  size_t count = 0;
  for (size_t pos = 0; pos < k_prefix; ++pos) {
    if (RowMatches(table, space, p, ranking[pos])) ++count;
  }
  return count;
}

TEST_P(BitmapIndexRandomTest, CountsMatchNaiveScan) {
  const uint64_t seed = GetParam();
  Table table = RandomTable(137, 4, {2, 3, 4}, seed);
  std::vector<uint32_t> ranking = RandomRanking(137, seed);
  Result<PatternSpace> space =
      PatternSpace::CreateAllCategorical(table.schema());
  ASSERT_TRUE(space.ok());
  Result<BitmapIndex> index = BitmapIndex::Build(table, *space, ranking);
  ASSERT_TRUE(index.ok());

  for (const Pattern& p : testing::AllPatterns(*space)) {
    EXPECT_EQ(index->PatternCount(p),
              NaiveCount(table, *space, p, ranking, 137))
        << p.ToString(*space);
    for (size_t k : {size_t{1}, size_t{10}, size_t{64}, size_t{137}}) {
      EXPECT_EQ(index->TopKCount(p, k),
                NaiveCount(table, *space, p, ranking, k))
          << p.ToString(*space) << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitmapIndexRandomTest,
                         ::testing::Values(1, 2, 3, 17, 99));

// A table wider than the index's 256-word intersection chunk (and not
// a whole number of words), so multi-predicate counts cross chunk
// boundaries and the k-prefix lands in, at, and past them. Checked
// under every kernel the machine can run.
TEST(BitmapIndexTest, CountsMatchNaiveScanAcrossChunksPrefixesAndKernels) {
  constexpr size_t kRows = 2 * 256 * 64 + 7717;
  constexpr size_t kAttrs = 6;
  Table table = RandomTable(kRows, kAttrs, {2, 3}, 41);
  std::vector<uint32_t> ranking = RandomRanking(kRows, 41);
  auto space = PatternSpace::CreateAllCategorical(table.schema());
  ASSERT_TRUE(space.ok());
  auto index = BitmapIndex::Build(table, *space, ranking);
  ASSERT_TRUE(index.ok());

  const std::vector<size_t> ks = {0,     1,     63,    64,   65,
                                  16383, 16384, 16385, kRows};
  // 1, 2, 3, 4 and 6 predicates, with and without gaps between them.
  const std::vector<Pattern> patterns = {
      PatternOf(kAttrs, {{3, 1}}),
      PatternOf(kAttrs, {{0, 0}, {5, 2}}),
      PatternOf(kAttrs, {{1, 2}, {2, 1}}),
      PatternOf(kAttrs, {{0, 1}, {1, 0}, {2, 0}}),
      PatternOf(kAttrs, {{0, 0}, {3, 1}, {5, 0}}),
      PatternOf(kAttrs, {{0, 1}, {1, 1}, {3, 2}, {4, 0}}),
      PatternOf(kAttrs, {{0, 0}, {1, 2}, {2, 1}, {3, 0}, {4, 1}, {5, 1}}),
  };
  // Oracle: one scan per pattern, recording the running count at each k.
  std::vector<std::vector<size_t>> expected(patterns.size());
  for (size_t i = 0; i < patterns.size(); ++i) {
    size_t running = 0;
    size_t next = 0;
    for (size_t pos = 0; pos <= kRows; ++pos) {
      while (next < ks.size() && ks[next] == pos) {
        expected[i].push_back(running);
        ++next;
      }
      if (pos == kRows) break;
      if (RowMatches(table, *space, patterns[i], ranking[pos])) ++running;
    }
  }

  for (const char* kernel : kernels::AvailableKernels()) {
    kernels::ScopedKernel scoped(kernel);
    ASSERT_TRUE(scoped.ok()) << kernel;
    for (size_t i = 0; i < patterns.size(); ++i) {
      const Pattern& p = patterns[i];
      EXPECT_EQ(index->PatternCount(p), expected[i].back())
          << kernel << " " << p.ToString(*space);
      for (size_t j = 0; j < ks.size(); ++j) {
        EXPECT_EQ(index->TopKCount(p, ks[j]), expected[i][j])
            << kernel << " " << p.ToString(*space) << " k=" << ks[j];
      }
    }
  }
}

TEST(BitmapIndexTest, EmptyPatternCountsEverything) {
  Table table = RandomTable(50, 3, {2}, 5);
  auto space = PatternSpace::CreateAllCategorical(table.schema());
  ASSERT_TRUE(space.ok());
  auto index = BitmapIndex::Build(table, *space, RandomRanking(50, 5));
  ASSERT_TRUE(index.ok());
  Pattern empty = Pattern::Empty(3);
  EXPECT_EQ(index->PatternCount(empty), 50u);
  EXPECT_EQ(index->TopKCount(empty, 13), 13u);
}

TEST(BitmapIndexTest, RankedRowSatisfies) {
  Table table = RandomTable(40, 3, {2, 3}, 7);
  auto space = PatternSpace::CreateAllCategorical(table.schema());
  auto ranking = RandomRanking(40, 7);
  auto index = BitmapIndex::Build(table, *space, ranking);
  ASSERT_TRUE(index.ok());
  for (size_t pos = 0; pos < 40; ++pos) {
    const uint32_t row = ranking[pos];
    Pattern p = PatternOf(
        3, {{0, table.CodeAt(row, 0)}, {2, table.CodeAt(row, 2)}});
    EXPECT_TRUE(index->RankedRowSatisfies(p, pos));
    Pattern mismatched = PatternOf(
        3, {{0, static_cast<int16_t>(1 - table.CodeAt(row, 0))}});
    EXPECT_FALSE(index->RankedRowSatisfies(mismatched, pos));
  }
}

TEST(BitmapIndexTest, RankedCodeReflectsPermutation) {
  Table table = RandomTable(30, 2, {3}, 11);
  auto space = PatternSpace::CreateAllCategorical(table.schema());
  auto ranking = RandomRanking(30, 11);
  auto index = BitmapIndex::Build(table, *space, ranking);
  ASSERT_TRUE(index.ok());
  for (size_t pos = 0; pos < 30; ++pos) {
    EXPECT_EQ(index->RowIdAtRank(pos), ranking[pos]);
    EXPECT_EQ(index->RankedCode(pos, 0), table.CodeAt(ranking[pos], 0));
    EXPECT_EQ(index->RankedCode(pos, 1), table.CodeAt(ranking[pos], 1));
  }
}

TEST(BitmapIndexTest, RejectsNonPermutationRanking) {
  Table table = RandomTable(10, 2, {2}, 3);
  auto space = PatternSpace::CreateAllCategorical(table.schema());
  std::vector<uint32_t> dup(10, 0);
  EXPECT_FALSE(BitmapIndex::Build(table, *space, dup).ok());
  std::vector<uint32_t> wrong_size = {0, 1, 2};
  EXPECT_FALSE(BitmapIndex::Build(table, *space, wrong_size).ok());
}

TEST(BitmapIndexTest, RejectsEmptyTable) {
  Schema schema;
  ASSERT_TRUE(schema.AddCategorical("a", {"x", "y"}).ok());
  auto table = Table::Create(std::move(schema));
  auto space = PatternSpace::CreateAllCategorical(table->schema());
  EXPECT_FALSE(BitmapIndex::Build(*table, *space, {}).ok());
}

/// Every count of the patched index must match an index built from
/// scratch for the new ranking.
void ExpectIndexEquals(const BitmapIndex& patched, const BitmapIndex& fresh,
                       const Table& table) {
  ASSERT_EQ(patched.num_rows(), fresh.num_rows());
  for (const Pattern& p : AllPatterns(patched.space())) {
    ASSERT_EQ(patched.PatternCount(p), fresh.PatternCount(p))
        << p.ToString(patched.space());
    for (size_t k = 0; k <= table.num_rows(); k += 7) {
      ASSERT_EQ(patched.TopKCount(p, k), fresh.TopKCount(p, k))
          << p.ToString(patched.space()) << " k=" << k;
    }
  }
  for (size_t pos = 0; pos < patched.num_rows(); ++pos) {
    ASSERT_EQ(patched.RowIdAtRank(pos), fresh.RowIdAtRank(pos));
    for (size_t a = 0; a < patched.space().num_attributes(); ++a) {
      ASSERT_EQ(patched.RankedCode(pos, a), fresh.RankedCode(pos, a));
    }
  }
}

TEST(BitmapIndexTest, ApplyRankingPatchesToPermutedRanking) {
  Table table = RandomTable(40, 3, {2, 3}, 21);
  auto space = PatternSpace::CreateAllCategorical(table.schema());
  auto ranking = RandomRanking(40, 21);
  auto index = BitmapIndex::Build(table, *space, ranking);
  ASSERT_TRUE(index.ok());

  // Rotate a suffix of the permutation.
  std::vector<uint32_t> new_ranking = ranking;
  std::rotate(new_ranking.begin() + 25, new_ranking.begin() + 26,
              new_ranking.end());
  size_t patched_positions = 0;
  ASSERT_TRUE(
      index->ApplyRanking(table, new_ranking, &patched_positions).ok());
  EXPECT_EQ(patched_positions, 15u);
  auto fresh = BitmapIndex::Build(table, *space, new_ranking);
  ASSERT_TRUE(fresh.ok());
  ExpectIndexEquals(*index, *fresh, table);
}

TEST(BitmapIndexTest, ApplyRankingNoopOnIdenticalRanking) {
  Table table = RandomTable(20, 2, {2}, 22);
  auto space = PatternSpace::CreateAllCategorical(table.schema());
  auto ranking = RandomRanking(20, 22);
  auto index = BitmapIndex::Build(table, *space, ranking);
  ASSERT_TRUE(index.ok());
  size_t patched_positions = 99;
  ASSERT_TRUE(index->ApplyRanking(table, ranking, &patched_positions).ok());
  EXPECT_EQ(patched_positions, 0u);
}

TEST(BitmapIndexTest, ApplyRankingGrowsForAppendedRows) {
  Table table = RandomTable(30, 3, {2, 3}, 23);
  auto space = PatternSpace::CreateAllCategorical(table.schema());
  auto ranking = RandomRanking(30, 23);
  auto index = BitmapIndex::Build(table, *space, ranking);
  ASSERT_TRUE(index.ok());

  // Append rows to the table, then weave the new ids into the middle
  // and front of the ranking.
  std::vector<Cell> row(3);
  for (int i = 0; i < 5; ++i) {
    for (size_t a = 0; a < 3; ++a) {
      row[a] = Cell::Code(static_cast<int16_t>((i + a) % 2));
    }
    ASSERT_TRUE(table.AppendRow(row).ok());
  }
  std::vector<uint32_t> new_ranking = ranking;
  new_ranking.insert(new_ranking.begin() + 10, {30, 31});
  new_ranking.insert(new_ranking.end(), {32, 33, 34});
  size_t patched_positions = 0;
  ASSERT_TRUE(
      index->ApplyRanking(table, new_ranking, &patched_positions).ok());
  EXPECT_EQ(index->num_rows(), 35u);
  // Everything from the first insertion point moved.
  EXPECT_EQ(patched_positions, 25u);
  auto fresh = BitmapIndex::Build(table, *space, new_ranking);
  ASSERT_TRUE(fresh.ok());
  ExpectIndexEquals(*index, *fresh, table);
}

TEST(BitmapIndexTest, ApplyRankingRejectsBadInputs) {
  Table table = RandomTable(12, 2, {2}, 24);
  auto space = PatternSpace::CreateAllCategorical(table.schema());
  auto ranking = RandomRanking(12, 24);
  auto index = BitmapIndex::Build(table, *space, ranking);
  ASSERT_TRUE(index.ok());

  // Wrong length.
  std::vector<uint32_t> short_ranking(ranking.begin(), ranking.end() - 1);
  EXPECT_FALSE(index->ApplyRanking(table, short_ranking).ok());
  // Duplicated entry (not a rearrangement).
  std::vector<uint32_t> dup = ranking;
  dup[5] = dup[6];
  EXPECT_FALSE(index->ApplyRanking(table, dup).ok());
  // Rearrangement that touches the unchanged prefix's rows.
  std::vector<uint32_t> swapped = ranking;
  std::swap(swapped[5], swapped[6]);
  swapped[5] = ranking[5];  // duplicate of prefix row
  EXPECT_FALSE(index->ApplyRanking(table, swapped).ok());
  // Failed calls leave the index intact.
  auto fresh = BitmapIndex::Build(table, *space, ranking);
  ASSERT_TRUE(fresh.ok());
  ExpectIndexEquals(*index, *fresh, table);
}

}  // namespace
}  // namespace fairtopk
