// Corruption fuzzing for the storage layer: snapshots and op logs with
// bytes flipped (at every section boundary and at seeded random
// offsets) or truncated must come back as a TYPED error — kCorruption,
// kChecksumMismatch, kVersionMismatch, kTruncated — or as a successful
// open whose content is identical to the pristine file. They must
// never crash, hang, or return silently wrong data; the suite runs
// under ASan/TSan in CI, so any out-of-bounds read on hostile bytes
// fails loudly.
//
// Two deliberate soft spots in the "must error" property:
//  * Flips landing in unchecksummed padding (the 64-byte section
//    alignment) or ignored bytes cannot be detected — such an open
//    succeeds, and the test then insists the content is bit-identical.
//  * A flip in the FINAL op-log frame's length field is
//    indistinguishable from a torn write, so the log may truncate that
//    record away silently — exactly the crash-tolerance contract.
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "relation/table.h"
#include "service/audit_session.h"
#include "storage/op_log.h"
#include "storage/snapshot_format.h"
#include "storage/snapshot_reader.h"

namespace fairtopk {
namespace {

using storage::OpLog;
using storage::LogRecord;

bool IsTypedStorageError(const Status& status) {
  switch (status.code()) {
    case StatusCode::kCorruption:
    case StatusCode::kChecksumMismatch:
    case StatusCode::kVersionMismatch:
    case StatusCode::kTruncated:
      return true;
    default:
      return false;
  }
}

std::string SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void DumpFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Section boundaries (every 64-byte alignment point) plus `extra`
/// seeded random offsets — the section-boundary sweep catches
/// off-by-ones in the TOC/padding math that random sampling misses.
std::vector<size_t> FuzzOffsets(size_t file_size, size_t extra,
                                uint64_t seed) {
  std::vector<size_t> offsets;
  for (size_t o = 0; o < file_size; o += storage::kSectionAlignment) {
    offsets.push_back(o);
    if (o + storage::kSectionAlignment - 1 < file_size) {
      offsets.push_back(o + storage::kSectionAlignment - 1);
    }
  }
  Rng rng(seed);
  for (size_t i = 0; i < extra; ++i) {
    offsets.push_back(static_cast<size_t>(rng.UniformUint64(file_size)));
  }
  return offsets;
}

// ---------------------------------------------------------------------
// Snapshot fuzzing
// ---------------------------------------------------------------------

Table SmallTable(size_t rows, uint64_t seed) {
  Schema schema;
  EXPECT_TRUE(schema.AddCategorical("g", {"a", "b", "c"}).ok());
  EXPECT_TRUE(schema.AddNumeric("score").ok());
  auto table = Table::Create(std::move(schema));
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(table
                    ->AppendRow({Cell::Code(static_cast<int16_t>(
                                     rng.UniformUint64(3))),
                                 Cell::Value(rng.Gaussian())})
                    .ok());
  }
  return std::move(table).value();
}

std::string WriteFixtureSnapshot(const std::string& path) {
  auto session = AuditSession::Create(SmallTable(120, 17), "score");
  EXPECT_TRUE(session.ok());
  EXPECT_TRUE(session->SaveSnapshot(path).ok());
  return SlurpFile(path);
}

/// The parts of an open that any undetected flip must leave untouched.
struct SnapshotDigest {
  std::vector<uint32_t> ranking;
  std::vector<double> scores;
  size_t num_rows = 0;
  bool ascending = false;
};

SnapshotDigest DigestOf(const storage::OpenedSnapshot& snap) {
  SnapshotDigest d;
  d.ranking = snap.index->ranking();
  d.scores = snap.scores;
  d.num_rows = snap.table->num_rows();
  d.ascending = snap.ascending;
  return d;
}

void ExpectDigestEqual(const SnapshotDigest& a, const SnapshotDigest& b) {
  EXPECT_EQ(a.ranking, b.ranking);
  ASSERT_EQ(a.scores.size(), b.scores.size());
  EXPECT_EQ(std::memcmp(a.scores.data(), b.scores.data(),
                        a.scores.size() * sizeof(double)),
            0);
  EXPECT_EQ(a.num_rows, b.num_rows);
  EXPECT_EQ(a.ascending, b.ascending);
}

TEST(StorageCorruptionTest, SnapshotByteFlips) {
  const std::string fixture =
      ::testing::TempDir() + "/corrupt_snapshot_fixture.ftk";
  const std::string mutated =
      ::testing::TempDir() + "/corrupt_snapshot_mutated.ftk";
  const std::string pristine = WriteFixtureSnapshot(fixture);
  auto baseline = storage::ReadSnapshot(fixture);
  ASSERT_TRUE(baseline.ok());
  const SnapshotDigest want = DigestOf(*baseline);

  for (size_t offset : FuzzOffsets(pristine.size(), 200, 0xF00D)) {
    std::string bytes = pristine;
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x5A);
    DumpFile(mutated, bytes);
    SCOPED_TRACE("offset " + std::to_string(offset));
    auto opened = storage::ReadSnapshot(mutated);
    if (opened.ok()) {
      // The flip landed in unchecksummed padding/reserved space —
      // acceptable only if nothing observable changed.
      ExpectDigestEqual(want, DigestOf(*opened));
    } else {
      EXPECT_TRUE(IsTypedStorageError(opened.status()))
          << opened.status().ToString();
    }
  }
}

TEST(StorageCorruptionTest, SnapshotTruncations) {
  const std::string fixture =
      ::testing::TempDir() + "/trunc_snapshot_fixture.ftk";
  const std::string mutated =
      ::testing::TempDir() + "/trunc_snapshot_mutated.ftk";
  const std::string pristine = WriteFixtureSnapshot(fixture);

  for (size_t keep : FuzzOffsets(pristine.size(), 100, 0xBEEF)) {
    if (keep >= pristine.size()) continue;
    DumpFile(mutated, pristine.substr(0, keep));
    SCOPED_TRACE("keep " + std::to_string(keep));
    auto opened = storage::ReadSnapshot(mutated);
    ASSERT_FALSE(opened.ok());
    EXPECT_TRUE(IsTypedStorageError(opened.status()))
        << opened.status().ToString();
  }
}

TEST(StorageCorruptionTest, SnapshotHeaderTruncatedAtEveryOffset) {
  // Every cut inside the fixed-size header is kTruncated, from the full
  // open and from the header-only probe alike.
  const std::string fixture =
      ::testing::TempDir() + "/header_snapshot_fixture.ftk";
  const std::string mutated =
      ::testing::TempDir() + "/header_snapshot_mutated.ftk";
  const std::string pristine = WriteFixtureSnapshot(fixture);
  for (size_t keep = 0; keep < storage::kHeaderBytes; ++keep) {
    SCOPED_TRACE("keep " + std::to_string(keep));
    DumpFile(mutated, pristine.substr(0, keep));
    EXPECT_EQ(storage::ReadSnapshot(mutated).status().code(),
              StatusCode::kTruncated);
    EXPECT_EQ(storage::ProbeSnapshot(mutated).status().code(),
              StatusCode::kTruncated);
  }
}

TEST(StorageCorruptionTest, SnapshotGarbageAndEmptyFiles) {
  const std::string path = ::testing::TempDir() + "/garbage_snapshot.ftk";
  // Empty.
  DumpFile(path, "");
  EXPECT_TRUE(IsTypedStorageError(storage::ReadSnapshot(path).status()));
  // Random noise, various sizes.
  Rng rng(42);
  for (size_t size : {1u, 63u, 64u, 65u, 4096u}) {
    std::string noise(size, '\0');
    for (char& c : noise) {
      c = static_cast<char>(rng.UniformUint64(256));
    }
    DumpFile(path, noise);
    auto opened = storage::ReadSnapshot(path);
    ASSERT_FALSE(opened.ok());
    EXPECT_TRUE(IsTypedStorageError(opened.status()))
        << "size " << size << ": " << opened.status().ToString();
  }
}

// ---------------------------------------------------------------------
// Op log fuzzing
// ---------------------------------------------------------------------

std::vector<LogRecord> FixtureRecords() {
  std::vector<LogRecord> records;
  LogRecord update;
  update.kind = LogRecord::Kind::kUpdate;
  update.edits = {{3, 1.5}, {7, -2.25}, {11, 0.0}};
  records.push_back(update);
  LogRecord append;
  append.kind = LogRecord::Kind::kAppend;
  append.rows = {{Cell::Code(1), Cell::Value(4.0)},
                 {Cell::Code(2), Cell::Value(-1.0)}};
  records.push_back(append);
  LogRecord scored;
  scored.kind = LogRecord::Kind::kAppend;
  scored.rows = {{Cell::Code(0), Cell::Value(9.0)}};
  scored.scores = {0.75};
  records.push_back(scored);
  return records;
}

std::string WriteFixtureLog(const std::string& path) {
  auto log = OpLog::Create(path, /*generation=*/1, storage::FsyncPolicy::kNever);
  EXPECT_TRUE(log.ok());
  for (const LogRecord& r : FixtureRecords()) {
    EXPECT_TRUE(log->Append(r).ok());
  }
  return SlurpFile(path);
}

bool RecordsEqual(const LogRecord& a, const LogRecord& b) {
  if (a.kind != b.kind) return false;
  if (a.edits.size() != b.edits.size()) return false;
  for (size_t i = 0; i < a.edits.size(); ++i) {
    if (a.edits[i].row != b.edits[i].row) return false;
    if (std::memcmp(&a.edits[i].score, &b.edits[i].score,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  if (a.scores.size() != b.scores.size()) return false;
  if (!a.scores.empty() &&
      std::memcmp(a.scores.data(), b.scores.data(),
                  a.scores.size() * sizeof(double)) != 0) {
    return false;
  }
  if (a.rows.size() != b.rows.size()) return false;
  for (size_t r = 0; r < a.rows.size(); ++r) {
    if (a.rows[r].size() != b.rows[r].size()) return false;
    for (size_t c = 0; c < a.rows[r].size(); ++c) {
      if (a.rows[r][c].is_code != b.rows[r][c].is_code) return false;
      if (a.rows[r][c].is_code) {
        if (a.rows[r][c].code != b.rows[r][c].code) return false;
      } else if (std::memcmp(&a.rows[r][c].value, &b.rows[r][c].value,
                             sizeof(double)) != 0) {
        return false;
      }
    }
  }
  return true;
}

TEST(StorageCorruptionTest, OpLogByteFlips) {
  const std::string fixture = ::testing::TempDir() + "/corrupt_log.ftk";
  const std::string mutated =
      ::testing::TempDir() + "/corrupt_log_mutated.ftk";
  const std::string pristine = WriteFixtureLog(fixture);
  const std::vector<LogRecord> want = FixtureRecords();

  // Every offset: the log is small enough to sweep exhaustively.
  for (size_t offset = 0; offset < pristine.size(); ++offset) {
    SCOPED_TRACE("offset " + std::to_string(offset));
    std::string bytes = pristine;
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x5A);
    DumpFile(mutated, bytes);
    OpLog::Recovered recovered;
    auto log = OpLog::Open(mutated, /*generation=*/1,
                           storage::FsyncPolicy::kNever, &recovered);
    if (!log.ok()) {
      EXPECT_TRUE(IsTypedStorageError(log.status()))
          << log.status().ToString();
      continue;
    }
    // A successful open after a flip must be explainable: either the
    // stale-generation path (flip hit the header's generation bytes),
    // or a recovered PREFIX of the original records (flip hit the
    // final frame's length field, indistinguishable from a torn tail).
    if (recovered.discarded_stale) {
      EXPECT_TRUE(recovered.records.empty());
      continue;
    }
    ASSERT_LE(recovered.records.size(), want.size());
    for (size_t i = 0; i < recovered.records.size(); ++i) {
      EXPECT_TRUE(RecordsEqual(recovered.records[i], want[i]))
          << "record " << i << " diverged";
    }
    if (recovered.records.size() < want.size()) {
      EXPECT_TRUE(recovered.dropped_torn_tail);
    }
  }
}

TEST(StorageCorruptionTest, OpLogTruncations) {
  const std::string fixture = ::testing::TempDir() + "/trunc_log.ftk";
  const std::string mutated =
      ::testing::TempDir() + "/trunc_log_mutated.ftk";
  const std::string pristine = WriteFixtureLog(fixture);
  const std::vector<LogRecord> want = FixtureRecords();

  for (size_t keep = 0; keep < pristine.size(); ++keep) {
    SCOPED_TRACE("keep " + std::to_string(keep));
    DumpFile(mutated, pristine.substr(0, keep));
    OpLog::Recovered recovered;
    auto log = OpLog::Open(mutated, /*generation=*/1,
                           storage::FsyncPolicy::kNever, &recovered);
    if (keep < storage::kOpLogHeaderBytes) {
      // Not even a header: typed error, the caller decides what to do
      // with a destroyed log (it cannot silently lose ALL ops).
      ASSERT_FALSE(log.ok());
      EXPECT_TRUE(IsTypedStorageError(log.status()))
          << log.status().ToString();
      continue;
    }
    // Torn tail: everything before the cut replays, the partial record
    // is dropped and the file truncated back.
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    ASSERT_LE(recovered.records.size(), want.size());
    for (size_t i = 0; i < recovered.records.size(); ++i) {
      EXPECT_TRUE(RecordsEqual(recovered.records[i], want[i]));
    }
    if (keep < pristine.size()) {
      EXPECT_LT(recovered.records.size(), want.size());
    }
  }
}

TEST(StorageCorruptionTest, OpLogStaleGenerationDiscarded) {
  const std::string path = ::testing::TempDir() + "/stale_log.ftk";
  WriteFixtureLog(path);  // generation 1, three records
  OpLog::Recovered recovered;
  auto log = OpLog::Open(path, /*generation=*/2,
                         storage::FsyncPolicy::kNever, &recovered);
  ASSERT_TRUE(log.ok());
  EXPECT_TRUE(recovered.discarded_stale);
  EXPECT_TRUE(recovered.records.empty());
  EXPECT_EQ(log->generation(), 2u);
  // The file on disk is now a fresh generation-2 log.
  OpLog::Recovered again;
  auto reopened = OpLog::Open(path, /*generation=*/2,
                              storage::FsyncPolicy::kNever, &again);
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE(again.discarded_stale);
  EXPECT_TRUE(again.records.empty());
}

}  // namespace
}  // namespace fairtopk
