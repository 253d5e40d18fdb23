// Deserializes and validates a snapshot written by snapshot_writer.h.
//
// The file is read() whole into one buffer and parsed from it; the
// decoded bitsets own their words. (The writer's 64-byte section
// alignment would let a future reader borrow the index words from a
// mapping instead; no reader does today.)
//
// The error surface is typed and total: hostile bytes produce
// kTruncated / kChecksumMismatch / kVersionMismatch / kCorruption,
// never a crash or out-of-bounds access. Every section is CRC-checked
// before it is parsed, every count is bounded before it drives an
// allocation, and the reassembled structures re-run the same
// invariant checks their builders enforce.
#ifndef FAIRTOPK_STORAGE_SNAPSHOT_READER_H_
#define FAIRTOPK_STORAGE_SNAPSHOT_READER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "index/bitmap_index.h"
#include "relation/table.h"

namespace fairtopk {
namespace storage {

/// Header-level facts about a snapshot, readable without parsing the
/// sections (ProbeSnapshot) and echoed by a full open.
struct SnapshotInfo {
  uint32_t version = 0;
  uint64_t generation = 0;
  uint64_t file_bytes = 0;
};

/// A fully validated snapshot: the session quadruple plus the metadata
/// needed to resume maintenance. `table` and `index` are optionals
/// only because those types have no public default constructor; a
/// successful open always populates both.
struct OpenedSnapshot {
  SnapshotInfo info;
  bool ascending = false;
  int32_t score_column = -1;
  std::vector<std::string> pattern_attributes;
  std::optional<Table> table;
  std::vector<double> scores;
  std::optional<BitmapIndex> index;  // carries the ranking
};

/// Opens, checksums, parses, and structurally validates `path`.
Result<OpenedSnapshot> ReadSnapshot(const std::string& path);

/// Validates only the 64-byte header (magic, version, CRC, length) and
/// returns its facts — the cheap path for `snapshot_info`.
Result<SnapshotInfo> ProbeSnapshot(const std::string& path);

}  // namespace storage
}  // namespace fairtopk

#endif  // FAIRTOPK_STORAGE_SNAPSHOT_READER_H_
