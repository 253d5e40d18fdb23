#include "storage/snapshot_reader.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "storage/snapshot_format.h"

namespace fairtopk {
namespace storage {

namespace {

// Hard ceilings keeping corrupt counts from driving absurd allocations
// before a later check would trip.
constexpr uint64_t kMaxRows = uint64_t{1} << 31;
constexpr uint64_t kMaxAttributes = 4096;
constexpr uint64_t kMaxLabels = 32768;  // codes are int16

struct HeaderFacts {
  SnapshotInfo info;
  uint32_t section_count = 0;
  uint64_t toc_offset = 0;
  uint64_t toc_bytes = 0;
};

Status ParseHeader(const uint8_t* data, size_t size, HeaderFacts* out) {
  if (size < kHeaderBytes) {
    return Status::Truncated("file shorter than the snapshot header (" +
                             std::to_string(size) + " bytes)");
  }
  if (std::memcmp(data, kSnapshotMagic, sizeof kSnapshotMagic) != 0) {
    return Status::Corruption("not a fairtopk snapshot (bad magic)");
  }
  Decoder dec(data, kHeaderBytes);
  uint32_t version = 0, section_count = 0, stored_crc = 0;
  uint64_t toc_offset = 0, toc_bytes = 0, file_bytes = 0, generation = 0;
  FAIRTOPK_RETURN_IF_ERROR(dec.Skip(sizeof kSnapshotMagic));
  FAIRTOPK_RETURN_IF_ERROR(dec.U32(&version));
  FAIRTOPK_RETURN_IF_ERROR(dec.U32(&section_count));
  FAIRTOPK_RETURN_IF_ERROR(dec.U64(&toc_offset));
  FAIRTOPK_RETURN_IF_ERROR(dec.U64(&toc_bytes));
  FAIRTOPK_RETURN_IF_ERROR(dec.U64(&file_bytes));
  FAIRTOPK_RETURN_IF_ERROR(dec.U64(&generation));
  FAIRTOPK_RETURN_IF_ERROR(dec.Skip(12));
  FAIRTOPK_RETURN_IF_ERROR(dec.U32(&stored_crc));
  const uint32_t actual_crc = Crc32(data, kHeaderBytes - sizeof(uint32_t));
  if (actual_crc != stored_crc) {
    return Status::ChecksumMismatch("snapshot header checksum mismatch");
  }
  if (version != kSnapshotVersion) {
    return Status::VersionMismatch(
        "snapshot format version " + std::to_string(version) +
        ", this build reads version " + std::to_string(kSnapshotVersion));
  }
  if (file_bytes > size) {
    return Status::Truncated("snapshot records " + std::to_string(file_bytes) +
                             " bytes but the file holds " +
                             std::to_string(size));
  }
  if (file_bytes < size) {
    return Status::Corruption("snapshot has trailing bytes past its recorded "
                              "length");
  }
  // Overflow-safe bounds: subtract, never add, quantities from disk.
  if (toc_bytes != uint64_t{section_count} * kTocEntryBytes ||
      toc_offset < kHeaderBytes || toc_offset > file_bytes ||
      file_bytes - toc_offset != toc_bytes) {
    return Status::Corruption("snapshot table of contents is misplaced");
  }
  out->info.version = version;
  out->info.generation = generation;
  out->info.file_bytes = file_bytes;
  out->section_count = section_count;
  out->toc_offset = toc_offset;
  out->toc_bytes = toc_bytes;
  return Status::OK();
}

Status ParseToc(const uint8_t* data, const HeaderFacts& h,
                std::vector<SectionEntry>* out) {
  if (h.section_count != 6) {
    return Status::Corruption("snapshot holds " +
                              std::to_string(h.section_count) +
                              " sections, expected 6");
  }
  Decoder dec(data + h.toc_offset, h.toc_bytes);
  uint32_t seen_mask = 0;
  for (uint32_t i = 0; i < h.section_count; ++i) {
    uint32_t id, reserved_a, crc, reserved_b;
    uint64_t offset, bytes;
    FAIRTOPK_RETURN_IF_ERROR(dec.U32(&id));
    FAIRTOPK_RETURN_IF_ERROR(dec.U32(&reserved_a));
    FAIRTOPK_RETURN_IF_ERROR(dec.U64(&offset));
    FAIRTOPK_RETURN_IF_ERROR(dec.U64(&bytes));
    FAIRTOPK_RETURN_IF_ERROR(dec.U32(&crc));
    FAIRTOPK_RETURN_IF_ERROR(dec.U32(&reserved_b));
    if (reserved_a != 0 || reserved_b != 0) {
      return Status::Corruption("snapshot TOC reserved field is non-zero");
    }
    if (id < 1 || id > 6) {
      return Status::Corruption("snapshot TOC names unknown section id " +
                                std::to_string(id));
    }
    if (seen_mask & (1u << id)) {
      return Status::Corruption("snapshot TOC repeats section id " +
                                std::to_string(id));
    }
    seen_mask |= 1u << id;
    if (offset % kSectionAlignment != 0 || offset < kHeaderBytes ||
        offset > h.toc_offset || bytes > h.toc_offset - offset) {
      return Status::Corruption("snapshot section " + std::to_string(id) +
                                " lies outside the file body");
    }
    out->push_back(
        SectionEntry{static_cast<SectionId>(id), offset, bytes, crc});
  }
  return Status::OK();
}

// Returns a CRC-verified decoder over one section's payload.
Result<Decoder> OpenSection(const uint8_t* data,
                            const std::vector<SectionEntry>& toc,
                            SectionId id) {
  for (const SectionEntry& e : toc) {
    if (e.id != id) continue;
    const uint8_t* payload = data + e.offset;
    if (Crc32(payload, e.bytes) != e.crc32) {
      return Status::ChecksumMismatch(
          "snapshot section " +
          std::to_string(static_cast<uint32_t>(id)) +
          " failed its checksum");
    }
    return Decoder(payload, e.bytes);
  }
  return Status::Corruption("snapshot is missing section " +
                            std::to_string(static_cast<uint32_t>(id)));
}

Status ExpectDrained(const Decoder& dec, const char* what) {
  if (dec.remaining() != 0) {
    return Status::Corruption(std::string("trailing bytes in snapshot ") +
                              what + " section");
  }
  return Status::OK();
}

Status ParseMeta(Decoder dec, OpenedSnapshot* out) {
  uint8_t ascending;
  FAIRTOPK_RETURN_IF_ERROR(dec.U8(&ascending));
  if (ascending > 1) {
    return Status::Corruption("snapshot meta: ascending flag is not 0/1");
  }
  out->ascending = ascending != 0;
  uint32_t score_column;
  FAIRTOPK_RETURN_IF_ERROR(dec.U32(&score_column));
  out->score_column = static_cast<int32_t>(score_column);
  uint32_t num_attrs;
  FAIRTOPK_RETURN_IF_ERROR(dec.Count(&num_attrs, kMaxAttributes));
  out->pattern_attributes.resize(num_attrs);
  for (uint32_t a = 0; a < num_attrs; ++a) {
    FAIRTOPK_RETURN_IF_ERROR(dec.Str(&out->pattern_attributes[a]));
  }
  return ExpectDrained(dec, "meta");
}

Status ParseSchema(Decoder dec, Schema* out) {
  uint32_t num_attrs;
  FAIRTOPK_RETURN_IF_ERROR(dec.Count(&num_attrs, kMaxAttributes));
  for (uint32_t a = 0; a < num_attrs; ++a) {
    std::string name;
    uint8_t type;
    FAIRTOPK_RETURN_IF_ERROR(dec.Str(&name));
    FAIRTOPK_RETURN_IF_ERROR(dec.U8(&type));
    uint32_t num_labels;
    FAIRTOPK_RETURN_IF_ERROR(dec.Count(&num_labels, kMaxLabels));
    std::vector<std::string> labels(num_labels);
    for (uint32_t l = 0; l < num_labels; ++l) {
      FAIRTOPK_RETURN_IF_ERROR(dec.Str(&labels[l]));
    }
    Status added;
    if (type == 0) {
      added = out->AddCategorical(std::move(name), std::move(labels));
    } else if (type == 1) {
      if (num_labels != 0) {
        return Status::Corruption(
            "snapshot schema: numeric attribute carries labels");
      }
      added = out->AddNumeric(std::move(name));
    } else {
      return Status::Corruption("snapshot schema: unknown attribute type " +
                                std::to_string(type));
    }
    if (!added.ok()) {
      return Status::Corruption("snapshot schema rejected: " +
                                added.message());
    }
  }
  return ExpectDrained(dec, "schema");
}

Status ParseColumns(Decoder dec, const Schema& schema, uint64_t* num_rows,
                    Table* out) {
  FAIRTOPK_RETURN_IF_ERROR(dec.U64(num_rows));
  if (*num_rows == 0 || *num_rows > kMaxRows) {
    return Status::Corruption("snapshot row count " +
                              std::to_string(*num_rows) +
                              " is outside the accepted range");
  }
  uint32_t num_cols;
  FAIRTOPK_RETURN_IF_ERROR(dec.Count(&num_cols, kMaxAttributes));
  if (num_cols != schema.size()) {
    return Status::Corruption("snapshot columns disagree with the schema on "
                              "the attribute count");
  }
  const size_t n = static_cast<size_t>(*num_rows);
  std::vector<std::vector<int16_t>> codes(num_cols);
  std::vector<std::vector<double>> values(num_cols);
  for (uint32_t c = 0; c < num_cols; ++c) {
    uint8_t type;
    FAIRTOPK_RETURN_IF_ERROR(dec.U8(&type));
    const AttributeType want = schema.attribute(c).type;
    if ((type == 0) != (want == AttributeType::kCategorical) || type > 1) {
      return Status::Corruption("snapshot column " + std::to_string(c) +
                                " has the wrong type for its attribute");
    }
    if (type == 0) {
      codes[c].resize(n);
      FAIRTOPK_RETURN_IF_ERROR(dec.Bytes(codes[c].data(),
                                         n * sizeof(int16_t)));
    } else {
      values[c].resize(n);
      FAIRTOPK_RETURN_IF_ERROR(dec.Bytes(values[c].data(),
                                         n * sizeof(double)));
    }
  }
  FAIRTOPK_RETURN_IF_ERROR(ExpectDrained(dec, "columns"));

  // Rebuild through the table's own append path so every code is
  // validated against the schema's domains exactly as at load time.
  std::vector<Cell> row(num_cols);
  for (size_t r = 0; r < n; ++r) {
    for (uint32_t c = 0; c < num_cols; ++c) {
      row[c] = schema.attribute(c).type == AttributeType::kCategorical
                   ? Cell::Code(codes[c][r])
                   : Cell::Value(values[c][r]);
    }
    Status appended = out->AppendRow(row);
    if (!appended.ok()) {
      return Status::Corruption("snapshot row " + std::to_string(r + 1) +
                                " rejected: " + appended.message());
    }
  }
  return Status::OK();
}

Status ParseScores(Decoder dec, uint64_t num_rows,
                   std::vector<double>* out) {
  uint64_t count;
  FAIRTOPK_RETURN_IF_ERROR(dec.U64(&count));
  if (count != num_rows) {
    return Status::Corruption("snapshot scores cover " +
                              std::to_string(count) + " rows, expected " +
                              std::to_string(num_rows));
  }
  out->resize(static_cast<size_t>(count));
  FAIRTOPK_RETURN_IF_ERROR(
      dec.Bytes(out->data(), out->size() * sizeof(double)));
  return ExpectDrained(dec, "scores");
}

Status ParseRanking(Decoder dec, uint64_t num_rows,
                    std::vector<uint32_t>* out) {
  uint64_t count;
  FAIRTOPK_RETURN_IF_ERROR(dec.U64(&count));
  if (count != num_rows) {
    return Status::Corruption("snapshot ranking covers " +
                              std::to_string(count) + " rows, expected " +
                              std::to_string(num_rows));
  }
  out->resize(static_cast<size_t>(count));
  FAIRTOPK_RETURN_IF_ERROR(
      dec.Bytes(out->data(), out->size() * sizeof(uint32_t)));
  return ExpectDrained(dec, "ranking");
}

Status ParseIndex(Decoder dec, const PatternSpace& space, uint64_t num_rows,
                  std::vector<std::vector<Bitset>>* value_bits,
                  std::vector<std::vector<int16_t>>* rank_codes) {
  uint32_t num_attrs;
  FAIRTOPK_RETURN_IF_ERROR(dec.Count(&num_attrs, kMaxAttributes));
  if (num_attrs != space.num_attributes()) {
    return Status::Corruption("snapshot index disagrees with the pattern "
                              "space on the attribute count");
  }
  uint64_t n;
  FAIRTOPK_RETURN_IF_ERROR(dec.U64(&n));
  if (n != num_rows) {
    return Status::Corruption("snapshot index covers " + std::to_string(n) +
                              " rows, expected " + std::to_string(num_rows));
  }
  const uint64_t words_per_bitset = (n + 63) / 64;
  value_bits->resize(num_attrs);
  rank_codes->resize(num_attrs);
  for (uint32_t a = 0; a < num_attrs; ++a) {
    uint32_t domain;
    FAIRTOPK_RETURN_IF_ERROR(dec.Count(&domain, kMaxLabels));
    if (domain != static_cast<uint32_t>(space.domain_size(a))) {
      return Status::Corruption(
          "snapshot index disagrees with the pattern space on the domain "
          "of attribute " + std::to_string(a));
    }
    (*rank_codes)[a].resize(static_cast<size_t>(n));
    FAIRTOPK_RETURN_IF_ERROR(dec.Bytes((*rank_codes)[a].data(),
                                       static_cast<size_t>(n) *
                                           sizeof(int16_t)));
    (*value_bits)[a].reserve(domain);
    for (uint32_t code = 0; code < domain; ++code) {
      uint64_t num_words;
      FAIRTOPK_RETURN_IF_ERROR(dec.U64(&num_words));
      if (num_words != words_per_bitset) {
        return Status::Corruption("snapshot bitset holds " +
                                  std::to_string(num_words) +
                                  " words, expected " +
                                  std::to_string(words_per_bitset));
      }
      std::vector<uint64_t> words(static_cast<size_t>(num_words));
      FAIRTOPK_RETURN_IF_ERROR(
          dec.Bytes(words.data(), words.size() * sizeof(uint64_t)));
      if (n % 64 != 0 && !words.empty() &&
          (words.back() & ~((uint64_t{1} << (n % 64)) - 1)) != 0) {
        return Status::Corruption(
            "snapshot bitset has set bits past the row count");
      }
      (*value_bits)[a].push_back(
          Bitset::FromWords(static_cast<size_t>(n), std::move(words)));
    }
  }
  return ExpectDrained(dec, "index");
}

Result<std::string> SlurpFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  std::string out;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      ::close(fd);
      return Status::IoError("read of " + path + " failed: " +
                             std::strerror(err));
    }
    if (n == 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

Result<OpenedSnapshot> ParseSnapshot(const uint8_t* data, size_t size) {
  HeaderFacts header;
  FAIRTOPK_RETURN_IF_ERROR(ParseHeader(data, size, &header));
  std::vector<SectionEntry> toc;
  FAIRTOPK_RETURN_IF_ERROR(ParseToc(data, header, &toc));

  OpenedSnapshot out;
  out.info = header.info;

  FAIRTOPK_ASSIGN_OR_RETURN(Decoder meta,
                            OpenSection(data, toc, SectionId::kMeta));
  FAIRTOPK_RETURN_IF_ERROR(ParseMeta(std::move(meta), &out));

  Schema schema;
  FAIRTOPK_ASSIGN_OR_RETURN(Decoder schema_dec,
                            OpenSection(data, toc, SectionId::kSchema));
  FAIRTOPK_RETURN_IF_ERROR(ParseSchema(std::move(schema_dec), &schema));

  if (out.score_column >= 0) {
    const size_t col = static_cast<size_t>(out.score_column);
    if (col >= schema.size() ||
        schema.attribute(col).type != AttributeType::kNumeric) {
      return Status::Corruption(
          "snapshot names a score column that is not a numeric attribute");
    }
  } else if (out.score_column != -1) {
    return Status::Corruption("snapshot score column index is invalid");
  }

  Result<Table> table = Table::Create(schema);
  if (!table.ok()) {
    return Status::Corruption("snapshot schema rejected: " +
                              table.status().message());
  }
  uint64_t num_rows = 0;
  FAIRTOPK_ASSIGN_OR_RETURN(Decoder columns,
                            OpenSection(data, toc, SectionId::kColumns));
  FAIRTOPK_RETURN_IF_ERROR(
      ParseColumns(std::move(columns), schema, &num_rows, &table.value()));

  FAIRTOPK_ASSIGN_OR_RETURN(Decoder scores,
                            OpenSection(data, toc, SectionId::kScores));
  FAIRTOPK_RETURN_IF_ERROR(
      ParseScores(std::move(scores), num_rows, &out.scores));

  std::vector<uint32_t> ranking;
  FAIRTOPK_ASSIGN_OR_RETURN(Decoder ranking_dec,
                            OpenSection(data, toc, SectionId::kRanking));
  FAIRTOPK_RETURN_IF_ERROR(
      ParseRanking(std::move(ranking_dec), num_rows, &ranking));

  Result<PatternSpace> space =
      PatternSpace::Create(schema, out.pattern_attributes);
  if (!space.ok()) {
    return Status::Corruption("snapshot pattern attributes rejected: " +
                              space.status().message());
  }

  std::vector<std::vector<Bitset>> value_bits;
  std::vector<std::vector<int16_t>> rank_codes;
  FAIRTOPK_ASSIGN_OR_RETURN(Decoder index_dec,
                            OpenSection(data, toc, SectionId::kIndex));
  FAIRTOPK_RETURN_IF_ERROR(ParseIndex(std::move(index_dec), space.value(),
                                      num_rows, &value_bits, &rank_codes));

  Result<BitmapIndex> index =
      BitmapIndex::FromParts(std::move(space).value(), std::move(ranking),
                             std::move(value_bits), std::move(rank_codes));
  if (!index.ok()) {
    return Status::Corruption("snapshot index rejected: " +
                              index.status().message());
  }

  out.table.emplace(std::move(table).value());
  out.index.emplace(std::move(index).value());
  return out;
}

}  // namespace

Result<OpenedSnapshot> ReadSnapshot(const std::string& path) {
  FAIRTOPK_ASSIGN_OR_RETURN(std::string bytes, SlurpFile(path));
  return ParseSnapshot(reinterpret_cast<const uint8_t*>(bytes.data()),
                       bytes.size());
}

Result<SnapshotInfo> ProbeSnapshot(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  uint8_t header[kHeaderBytes];
  size_t have = 0;
  while (have < sizeof header) {
    ssize_t n = ::read(fd, header + have, sizeof header - have);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    have += static_cast<size_t>(n);
  }
  off_t file_size = ::lseek(fd, 0, SEEK_END);
  ::close(fd);
  HeaderFacts facts;
  FAIRTOPK_RETURN_IF_ERROR(ParseHeader(
      header, have < sizeof header ? have
                                   : static_cast<size_t>(file_size),
      &facts));
  return facts.info;
}

}  // namespace storage
}  // namespace fairtopk
