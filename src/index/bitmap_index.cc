#include "index/bitmap_index.h"

#include <algorithm>
#include <cstddef>

#include "index/kernels/kernels.h"

namespace fairtopk {

Result<BitmapIndex> BitmapIndex::Build(const Table& table,
                                       const PatternSpace& space,
                                       const std::vector<uint32_t>& ranking) {
  const size_t n = table.num_rows();
  if (n == 0) {
    return Status::InvalidArgument("cannot index an empty table");
  }
  if (ranking.size() != n) {
    return Status::InvalidArgument(
        "ranking has " + std::to_string(ranking.size()) +
        " entries for a table of " + std::to_string(n) + " rows");
  }
  {
    std::vector<bool> seen(n, false);
    for (uint32_t row : ranking) {
      if (row >= n || seen[row]) {
        return Status::InvalidArgument(
            "ranking is not a permutation of row ids");
      }
      seen[row] = true;
    }
  }

  BitmapIndex index;
  index.space_ = space;
  index.num_rows_ = n;
  index.ranking_ = ranking;
  index.value_bits_.resize(space.num_attributes());
  index.rank_codes_.resize(space.num_attributes());
  for (size_t a = 0; a < space.num_attributes(); ++a) {
    const size_t table_col = space.table_index(a);
    if (table_col >= table.num_attributes() ||
        table.schema().attribute(table_col).type !=
            AttributeType::kCategorical) {
      return Status::InvalidArgument(
          "pattern space does not match the table schema");
    }
    const int domain = space.domain_size(a);
    index.value_bits_[a].assign(static_cast<size_t>(domain), Bitset(n));
    index.rank_codes_[a].resize(n);
    for (size_t pos = 0; pos < n; ++pos) {
      int16_t code = table.CodeAt(ranking[pos], table_col);
      if (code < 0 || code >= domain) {
        return Status::OutOfRange("table code outside pattern-space domain");
      }
      index.rank_codes_[a][pos] = code;
      index.value_bits_[a][static_cast<size_t>(code)].Set(pos);
    }
  }
  return index;
}

Result<BitmapIndex> BitmapIndex::FromParts(
    PatternSpace space, std::vector<uint32_t> ranking,
    std::vector<std::vector<Bitset>> value_bits,
    std::vector<std::vector<int16_t>> rank_codes) {
  const size_t n = ranking.size();
  if (n == 0) {
    return Status::InvalidArgument("cannot reassemble an empty index");
  }
  {
    std::vector<bool> seen(n, false);
    for (uint32_t row : ranking) {
      if (row >= n || seen[row]) {
        return Status::InvalidArgument(
            "ranking is not a permutation of row ids");
      }
      seen[row] = true;
    }
  }
  const size_t num_attrs = space.num_attributes();
  if (value_bits.size() != num_attrs || rank_codes.size() != num_attrs) {
    return Status::InvalidArgument(
        "index parts do not match the pattern space's attribute count");
  }
  for (size_t a = 0; a < num_attrs; ++a) {
    const size_t domain = static_cast<size_t>(space.domain_size(a));
    if (value_bits[a].size() != domain) {
      return Status::InvalidArgument(
          "attribute " + std::to_string(a) + " has " +
          std::to_string(value_bits[a].size()) + " value bitsets, expected " +
          std::to_string(domain));
    }
    if (rank_codes[a].size() != n) {
      return Status::InvalidArgument(
          "attribute " + std::to_string(a) + " has " +
          std::to_string(rank_codes[a].size()) + " rank codes for " +
          std::to_string(n) + " rows");
    }
    size_t set_bits = 0;
    for (const Bitset& bits : value_bits[a]) {
      if (bits.num_bits() != n) {
        return Status::InvalidArgument(
            "value bitset spans " + std::to_string(bits.num_bits()) +
            " positions for " + std::to_string(n) + " rows");
      }
      set_bits += bits.Count();
    }
    // Each rank position must be set in the bitset its code names;
    // combined with a total population of exactly n set bits across the
    // attribute, that pins "set in exactly one bitset per position".
    if (set_bits != n) {
      return Status::InvalidArgument(
          "value bitsets of attribute " + std::to_string(a) + " cover " +
          std::to_string(set_bits) + " positions, expected " +
          std::to_string(n));
    }
    for (size_t pos = 0; pos < n; ++pos) {
      const int16_t code = rank_codes[a][pos];
      if (code < 0 || static_cast<size_t>(code) >= domain) {
        return Status::OutOfRange("rank code outside pattern-space domain");
      }
      if (!value_bits[a][static_cast<size_t>(code)].Test(pos)) {
        return Status::InvalidArgument(
            "value bitsets disagree with rank codes at position " +
            std::to_string(pos));
      }
    }
  }
  BitmapIndex index;
  index.space_ = std::move(space);
  index.num_rows_ = n;
  index.ranking_ = std::move(ranking);
  index.value_bits_ = std::move(value_bits);
  index.rank_codes_ = std::move(rank_codes);
  return index;
}

Status BitmapIndex::ApplyRanking(const Table& table,
                                 const std::vector<uint32_t>& new_ranking,
                                 size_t* patched_positions) {
  const size_t old_n = num_rows_;
  const size_t n = table.num_rows();
  if (n < old_n) {
    return Status::InvalidArgument("table shrank under the index");
  }
  if (new_ranking.size() != n) {
    return Status::InvalidArgument(
        "new ranking has " + std::to_string(new_ranking.size()) +
        " entries for a table of " + std::to_string(n) + " rows");
  }

  // The unchanged prefix needs no validation and no patching: the old
  // ranking was a permutation and those positions keep their rows.
  size_t lo = 0;
  while (lo < old_n && ranking_[lo] == new_ranking[lo]) ++lo;
  if (lo == n) {
    if (patched_positions != nullptr) *patched_positions = 0;
    return Status::OK();
  }

  // The suffix must be a rearrangement of the displaced old suffix plus
  // the appended row ids. Mark-and-consume check: every expected row is
  // flagged once, every new-suffix row must consume a flag. The two
  // windows have equal length, so full consumption is implied — linear
  // time, no sorting.
  {
    std::vector<uint8_t> expected(n, 0);
    for (size_t pos = lo; pos < old_n; ++pos) expected[ranking_[pos]] = 1;
    for (size_t row = old_n; row < n; ++row) expected[row] = 1;
    for (size_t pos = lo; pos < n; ++pos) {
      const uint32_t row = new_ranking[pos];
      if (row >= n || expected[row] == 0) {
        return Status::InvalidArgument(
            "new ranking is not a rearrangement of the indexed rows");
      }
      expected[row] = 0;
    }
  }
  // Appended rows are the only ones that can carry codes the index has
  // never seen; validate them before any mutation so a failure leaves
  // the index intact.
  for (size_t a = 0; a < space_.num_attributes(); ++a) {
    const size_t table_col = space_.table_index(a);
    const int domain = space_.domain_size(a);
    for (size_t row = old_n; row < n; ++row) {
      const int16_t code = table.CodeAt(row, table_col);
      if (code < 0 || code >= domain) {
        return Status::OutOfRange(
            "appended row code outside pattern-space domain");
      }
    }
  }

  if (n > old_n) {
    for (size_t a = 0; a < space_.num_attributes(); ++a) {
      for (Bitset& bits : value_bits_[a]) bits.Resize(n);
      rank_codes_[a].resize(n);
    }
    ranking_.resize(n);
    num_rows_ = n;
  }

  // Collect the positions whose row changed, then patch attribute by
  // attribute: each sweep stays inside one table column, one
  // rank_codes row, and one attribute's handful of bitsets, so the
  // random accesses hit warm cache lines instead of striding across
  // every column per position.
  std::vector<uint32_t> changed;
  for (size_t pos = lo; pos < n; ++pos) {
    if (pos >= old_n || ranking_[pos] != new_ranking[pos]) {
      changed.push_back(static_cast<uint32_t>(pos));
    }
  }
  for (size_t a = 0; a < space_.num_attributes(); ++a) {
    const size_t table_col = space_.table_index(a);
    std::vector<int16_t>& codes = rank_codes_[a];
    std::vector<Bitset>& bits = value_bits_[a];
    for (const uint32_t pos : changed) {
      const int16_t code = table.CodeAt(new_ranking[pos], table_col);
      if (pos < old_n) {
        const int16_t old_code = codes[pos];
        if (old_code == code) continue;
        bits[static_cast<size_t>(old_code)].Clear(pos);
      }
      bits[static_cast<size_t>(code)].Set(pos);
      codes[pos] = code;
    }
  }
  for (const uint32_t pos : changed) ranking_[pos] = new_ranking[pos];
  if (patched_positions != nullptr) *patched_positions = changed.size();
  return Status::OK();
}

bool BitmapIndex::AndCounts(const Pattern& p, size_t n_words, size_t k_full,
                            uint64_t k_mask, size_t* total,
                            size_t* prefix) const {
  size_t num = 0;
  size_t first = 0;
  size_t second = 0;
  size_t last = 0;
  for (size_t a = 0; a < p.num_attributes(); ++a) {
    if (!p.IsSpecified(a)) continue;
    if (num == 0) first = a;
    if (num == 1) second = a;
    last = a;
    ++num;
  }
  if (num == 0) return false;
  const auto words = [&](size_t a) {
    return value_bits_[a][static_cast<size_t>(p.value(a))].words().data();
  };
  const kernels::KernelOps& ops = kernels::Active();
  if (num == 1) {
    ops.counts(words(first), n_words, k_full, k_mask, total, prefix);
    return true;
  }
  if (num == 2) {
    ops.and_counts(words(first), words(second), n_words, k_full, k_mask,
                   total, prefix);
    return true;
  }
  // Three or more predicates: intersect one chunk at a time in a stack
  // buffer, fusing the last predicate's AND with the popcount.
  uint64_t chunk[kChunkWords];
  *total = 0;
  *prefix = 0;
  for (size_t lo = 0; lo < n_words; lo += kChunkWords) {
    const size_t len = std::min(kChunkWords, n_words - lo);
    ops.assign_and(chunk, words(first) + lo, words(second) + lo, len);
    for (size_t a = second + 1; a < last; ++a) {
      if (p.IsSpecified(a)) ops.and_with(chunk, words(a) + lo, len);
    }
    // The k-bit prefix, re-based onto this chunk's words.
    size_t chunk_full = 0;
    uint64_t chunk_mask = 0;
    if (k_full >= lo + len) {
      chunk_full = len;
    } else if (k_full >= lo) {
      chunk_full = k_full - lo;
      chunk_mask = k_mask;
    }
    size_t chunk_total = 0;
    size_t chunk_prefix = 0;
    ops.and_counts(chunk, words(last) + lo, len, chunk_full, chunk_mask,
                   &chunk_total, &chunk_prefix);
    *total += chunk_total;
    *prefix += chunk_prefix;
  }
  return true;
}

size_t BitmapIndex::PatternCount(const Pattern& p) const {
  size_t total = 0;
  size_t prefix = 0;
  const size_t n_words = (num_rows_ + 63) / 64;
  return AndCounts(p, n_words, 0, 0, &total, &prefix) ? total : num_rows_;
}

size_t BitmapIndex::TopKCount(const Pattern& p, size_t k) const {
  size_t k_full = 0;
  uint64_t k_mask = 0;
  kernels::SplitPrefix(k, &k_full, &k_mask);
  size_t total = 0;
  size_t prefix = 0;
  // Only the words the prefix touches are read.
  const size_t n_words = k_full + (k_mask != 0 ? 1 : 0);
  return AndCounts(p, n_words, k_full, k_mask, &total, &prefix)
             ? prefix
             : std::min(k, num_rows_);
}

bool BitmapIndex::RankedRowSatisfies(const Pattern& p, size_t pos) const {
  for (size_t a = 0; a < p.num_attributes(); ++a) {
    if (p.IsSpecified(a) && rank_codes_[a][pos] != p.value(a)) return false;
  }
  return true;
}

}  // namespace fairtopk
