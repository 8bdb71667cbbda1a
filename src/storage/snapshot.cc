#include "storage/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "stats/stats.h"
#include "storage/codec.h"
#include "storage/io.h"
#include "util/failpoint.h"

namespace iodb::storage {

namespace {

constexpr char kMagic[8] = {'I', 'O', 'D', 'B', 'S', 'N', 'A', 'P'};
// Written little-endian; a reader that decodes it as anything but this
// value is mis-decoding multi-byte integers.
constexpr uint32_t kEndianTag = 0x1A2B3C4D;

// Section ids, in file order. Ids 1-6 are the mandatory v1 set; 7 is
// the optional statistics section introduced by format v2.
enum SectionId : uint32_t {
  kSectionVocabulary = 1,
  kSectionConstants = 2,
  kSectionFactSegments = 3,
  kSectionOrderAtoms = 4,
  kSectionInequalities = 5,
  kSectionIdentity = 6,
  kSectionStatistics = 7,
};
constexpr uint32_t kNumRequiredSections = 6;
constexpr uint32_t kMaxSectionId = 7;

constexpr size_t kHeaderBytes = 8 + 4 + 4 + 4 + 8;
constexpr size_t kTableEntryBytes = 4 + 4 + 8 + 8 + 8;

Status Corrupt(const std::string& message) {
  return Status::InvalidArgument("snapshot: " + message);
}

// --- section encoders --------------------------------------------------------

std::string EncodeVocabularySection(const Vocabulary& vocab) {
  std::string out;
  AppendU64(&out, vocab.uid());
  AppendU32(&out, static_cast<uint32_t>(vocab.num_predicates()));
  for (int p = 0; p < vocab.num_predicates(); ++p) {
    const PredicateInfo& info = vocab.predicate(p);
    AppendString(&out, info.name);
    AppendU32(&out, static_cast<uint32_t>(info.arity()));
    for (Sort sort : info.arg_sorts) {
      AppendU8(&out, static_cast<uint8_t>(sort));
    }
  }
  return out;
}

std::string EncodeConstantsSection(const Database& db) {
  std::string out;
  AppendU32(&out, static_cast<uint32_t>(db.num_object_constants()));
  for (int i = 0; i < db.num_object_constants(); ++i) {
    AppendString(&out, db.object_name(i));
  }
  AppendU32(&out, static_cast<uint32_t>(db.num_order_constants()));
  for (int i = 0; i < db.num_order_constants(); ++i) {
    AppendString(&out, db.order_name(i));
  }
  return out;
}

// Predicate-bucketed flat argument segments: for each predicate, the
// tuple count followed by count*arity argument ids in signature order —
// the FactIndex bucket layout, so opening a snapshot is a straight
// decode into the shape evaluation wants.
std::string EncodeFactSegments(const Database& db) {
  const Vocabulary& vocab = *db.vocab();
  std::vector<std::vector<int>> buckets(
      static_cast<size_t>(vocab.num_predicates()));
  std::vector<uint64_t> counts(static_cast<size_t>(vocab.num_predicates()),
                               0);
  for (const ProperAtom& atom : db.proper_atoms()) {
    std::vector<int>& bucket = buckets[static_cast<size_t>(atom.pred)];
    for (const Term& term : atom.args) bucket.push_back(term.id);
    ++counts[static_cast<size_t>(atom.pred)];
  }
  std::string out;
  AppendU32(&out, static_cast<uint32_t>(vocab.num_predicates()));
  for (int p = 0; p < vocab.num_predicates(); ++p) {
    AppendU32(&out, static_cast<uint32_t>(vocab.predicate(p).arity()));
    AppendU64(&out, counts[static_cast<size_t>(p)]);
    for (int id : buckets[static_cast<size_t>(p)]) {
      AppendU32(&out, static_cast<uint32_t>(id));
    }
  }
  return out;
}

std::string EncodeOrderAtomsSection(const Database& db) {
  std::string out;
  AppendU64(&out, db.order_atoms().size());
  for (const OrderAtom& atom : db.order_atoms()) {
    AppendU32(&out, static_cast<uint32_t>(atom.lhs));
    AppendU32(&out, static_cast<uint32_t>(atom.rhs));
    AppendU8(&out, static_cast<uint8_t>(atom.rel));
  }
  return out;
}

std::string EncodeInequalitiesSection(const Database& db) {
  std::string out;
  AppendU64(&out, db.inequalities().size());
  for (const InequalityAtom& atom : db.inequalities()) {
    AppendU32(&out, static_cast<uint32_t>(atom.lhs));
    AppendU32(&out, static_cast<uint32_t>(atom.rhs));
  }
  return out;
}

std::string EncodeIdentitySection(const Database& db) {
  std::string out;
  AppendU64(&out, db.uid());
  AppendU64(&out, db.revision());
  return out;
}

std::string AssembleFile(const std::vector<std::pair<uint32_t, std::string>>&
                             sections) {
  // Compute payload offsets: header, table, then payloads in order.
  std::string table;
  uint64_t offset = kHeaderBytes + kTableEntryBytes * sections.size();
  for (const auto& [id, payload] : sections) {
    AppendU32(&table, id);
    AppendU32(&table, 0);  // reserved
    AppendU64(&table, offset);
    AppendU64(&table, payload.size());
    AppendU64(&table, Fnv1a64(payload));
    offset += payload.size();
  }
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  AppendU32(&out, kSnapshotFormatVersion);
  AppendU32(&out, kEndianTag);
  AppendU32(&out, static_cast<uint32_t>(sections.size()));
  AppendU64(&out, Fnv1a64(table));
  out += table;
  for (const auto& [id, payload] : sections) out += payload;
  return out;
}

// --- decoding ----------------------------------------------------------------

// Verified section table: id -> payload view. `present` distinguishes
// an absent optional section from a present-but-empty payload.
struct SectionMap {
  uint32_t version = 0;
  std::string_view payload[kMaxSectionId + 1];
  bool present[kMaxSectionId + 1] = {};
  std::vector<SectionInfo> infos;
};

Status ReadSectionMap(std::string_view bytes, const char expected_magic[8],
                      SectionMap* map) {
  ByteReader reader(bytes);
  std::string_view magic;
  Status status = reader.ReadBytes(8, &magic);
  if (!status.ok()) return Corrupt(status.message());
  if (magic != std::string_view(expected_magic, 8)) {
    return Corrupt("bad magic (not a snapshot file)");
  }
  uint32_t version = 0, endian = 0, count = 0;
  uint64_t table_checksum = 0;
  if (!(status = reader.ReadU32(&version)).ok() ||
      !(status = reader.ReadU32(&endian)).ok() ||
      !(status = reader.ReadU32(&count)).ok() ||
      !(status = reader.ReadU64(&table_checksum)).ok()) {
    return Corrupt(status.message());
  }
  if (version < 1 || version > kSnapshotFormatVersion) {
    return Corrupt("unsupported format version " + std::to_string(version) +
                   " (this reader understands versions 1-" +
                   std::to_string(kSnapshotFormatVersion) + ")");
  }
  if (endian != kEndianTag) {
    return Corrupt("endian tag mismatch (corrupt header)");
  }
  // v1 files carry exactly the six mandatory sections; v2 may add the
  // optional statistics section.
  const uint32_t max_id = version >= 2 ? kMaxSectionId : kNumRequiredSections;
  if (count < kNumRequiredSections || count > max_id) {
    return Corrupt("expected " + std::to_string(kNumRequiredSections) +
                   (version >= 2 ? "-" + std::to_string(max_id) : "") +
                   " sections, found " + std::to_string(count));
  }
  map->version = version;
  std::string_view table;
  status = reader.ReadBytes(kTableEntryBytes * count, &table);
  if (!status.ok()) return Corrupt(status.message());
  if (Fnv1a64(table) != table_checksum) {
    return Corrupt("section table checksum mismatch");
  }
  ByteReader table_reader(table);
  std::unordered_set<uint32_t> seen;
  for (uint32_t i = 0; i < count; ++i) {
    SectionInfo info;
    uint32_t reserved = 0;
    (void)table_reader.ReadU32(&info.id);
    (void)table_reader.ReadU32(&reserved);
    (void)table_reader.ReadU64(&info.offset);
    (void)table_reader.ReadU64(&info.length);
    (void)table_reader.ReadU64(&info.checksum);
    if (info.id < 1 || info.id > max_id) {
      return Corrupt("unknown section id " + std::to_string(info.id) +
                     " (written by a newer version?)");
    }
    if (!seen.insert(info.id).second) {
      return Corrupt("duplicate section id " + std::to_string(info.id));
    }
    if (info.offset > bytes.size() ||
        info.length > bytes.size() - info.offset) {
      return Corrupt("section " + std::string(SectionInfo::Name(info.id)) +
                     " extends past end of file");
    }
    std::string_view payload =
        bytes.substr(static_cast<size_t>(info.offset),
                     static_cast<size_t>(info.length));
    if (Fnv1a64(payload) != info.checksum) {
      return Corrupt("section " + std::string(SectionInfo::Name(info.id)) +
                     " checksum mismatch");
    }
    map->payload[info.id] = payload;
    map->present[info.id] = true;
    map->infos.push_back(info);
  }
  for (uint32_t id = 1; id <= kNumRequiredSections; ++id) {
    if (!map->present[id]) {
      return Corrupt("missing mandatory section " +
                     std::string(SectionInfo::Name(id)));
    }
  }
  return Status::Ok();
}

struct DecodedVocabulary {
  uint64_t uid = 0;
  std::vector<PredicateInfo> predicates;
};

Status DecodeVocabularySection(std::string_view payload,
                               DecodedVocabulary* out) {
  ByteReader reader(payload);
  Status status;
  uint32_t num_preds = 0;
  if (!(status = reader.ReadU64(&out->uid)).ok() ||
      !(status = reader.ReadU32(&num_preds)).ok()) {
    return Corrupt(status.message());
  }
  out->predicates.reserve(num_preds);
  std::unordered_set<std::string> names;
  for (uint32_t p = 0; p < num_preds; ++p) {
    PredicateInfo info;
    uint32_t arity = 0;
    if (!(status = reader.ReadString(&info.name)).ok() ||
        !(status = reader.ReadU32(&arity)).ok()) {
      return Corrupt(status.message());
    }
    if (!names.insert(info.name).second) {
      return Corrupt("duplicate predicate name '" + info.name + "'");
    }
    info.arg_sorts.reserve(arity);
    for (uint32_t a = 0; a < arity; ++a) {
      uint8_t sort = 0;
      if (!(status = reader.ReadU8(&sort)).ok()) {
        return Corrupt(status.message());
      }
      if (sort > 1) return Corrupt("bad sort byte");
      info.arg_sorts.push_back(static_cast<Sort>(sort));
    }
    out->predicates.push_back(std::move(info));
  }
  if (!reader.AtEnd()) return Corrupt("trailing bytes in vocabulary section");
  return Status::Ok();
}

struct DecodedConstants {
  std::vector<std::string> object_names;
  std::vector<std::string> order_names;
};

Status DecodeConstantsSection(std::string_view payload,
                              DecodedConstants* out) {
  ByteReader reader(payload);
  Status status;
  for (int sort = 0; sort < 2; ++sort) {
    std::vector<std::string>& table =
        sort == 0 ? out->object_names : out->order_names;
    uint32_t count = 0;
    if (!(status = reader.ReadU32(&count)).ok()) {
      return Corrupt(status.message());
    }
    if (count > reader.remaining() / 4) {  // each name needs >= 4 bytes
      return Corrupt("constant count extends past its section");
    }
    table.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      std::string name;
      if (!(status = reader.ReadString(&name)).ok()) {
        return Corrupt(status.message());
      }
      table.push_back(std::move(name));
    }
  }
  // Duplicate names (one name denotes one typed constant) are detected
  // by RestoreConstantTables during interning — no extra pass here.
  if (!reader.AtEnd()) return Corrupt("trailing bytes in constants section");
  return Status::Ok();
}

// The shared tail of both decode entry points: `pred_map[file_id]` is
// the id in `db->vocab()` (identity when restoring into a fresh
// vocabulary).
Status DecodeBody(const SectionMap& map, const std::vector<int>& pred_map,
                  const std::vector<PredicateInfo>& file_preds,
                  DecodedConstants constants, Database* db) {
  const uint32_t num_objects =
      static_cast<uint32_t>(constants.object_names.size());
  const uint32_t num_orders =
      static_cast<uint32_t>(constants.order_names.size());
  Status interned =
      db->RestoreConstantTables(std::move(constants.object_names),
                                std::move(constants.order_names));
  if (!interned.ok()) return Corrupt(interned.message());

  // Fact segments: each predicate bucket is one block read, decoded and
  // range-validated as a flat array, then bulk-appended — the fast path
  // that makes a snapshot open a decode instead of a parse.
  {
    ByteReader reader(map.payload[kSectionFactSegments]);
    Status status;
    uint32_t num_preds = 0;
    if (!(status = reader.ReadU32(&num_preds)).ok()) {
      return Corrupt(status.message());
    }
    if (num_preds != file_preds.size()) {
      return Corrupt("fact segment count disagrees with vocabulary");
    }
    std::vector<int> scratch;
    std::vector<uint32_t> limits;
    for (uint32_t p = 0; p < num_preds; ++p) {
      const PredicateInfo& info = file_preds[p];
      uint32_t arity = 0;
      uint64_t count = 0;
      if (!(status = reader.ReadU32(&arity)).ok() ||
          !(status = reader.ReadU64(&count)).ok()) {
        return Corrupt(status.message());
      }
      if (arity != static_cast<uint32_t>(info.arity())) {
        return Corrupt("fact segment arity disagrees with signature of '" +
                       info.name + "'");
      }
      // Bound the decode work before trusting `count`: a tuple needs
      // 4*arity payload bytes (nullary tuples need none, so cap them
      // separately rather than spin on a corrupt count).
      if (arity == 0 ? count > (uint64_t{1} << 20)
                     : count > reader.remaining() /
                                   (static_cast<uint64_t>(arity) * 4)) {
        return Corrupt("fact segment of '" + info.name +
                       "' extends past its section");
      }
      const size_t values = static_cast<size_t>(count) * arity;
      std::string_view block;
      if (!(status = reader.ReadBytes(values * 4, &block)).ok()) {
        return Corrupt(status.message());
      }
      limits.assign(arity, 0);
      for (uint32_t a = 0; a < arity; ++a) {
        limits[a] =
            info.arg_sorts[a] == Sort::kObject ? num_objects : num_orders;
      }
      scratch.resize(values);
      const unsigned char* src =
          reinterpret_cast<const unsigned char*>(block.data());
      for (size_t i = 0; i < values; ++i) {
        const uint32_t id = static_cast<uint32_t>(src[4 * i]) |
                            static_cast<uint32_t>(src[4 * i + 1]) << 8 |
                            static_cast<uint32_t>(src[4 * i + 2]) << 16 |
                            static_cast<uint32_t>(src[4 * i + 3]) << 24;
        if (id >= limits[i % arity]) {
          return Corrupt("argument id out of range in facts of '" +
                         info.name + "'");
        }
        scratch[i] = static_cast<int>(id);
      }
      db->AppendFactSegment(pred_map[p], scratch.data(),
                            static_cast<size_t>(count));
    }
    if (!reader.AtEnd()) {
      return Corrupt("trailing bytes in fact segments section");
    }
  }

  // Order atoms.
  {
    ByteReader reader(map.payload[kSectionOrderAtoms]);
    Status status;
    uint64_t count = 0;
    if (!(status = reader.ReadU64(&count)).ok()) {
      return Corrupt(status.message());
    }
    if (count > reader.remaining() / 9) {  // 9 bytes per order atom
      return Corrupt("order atom count extends past its section");
    }
    db->ReserveAtoms(0, static_cast<size_t>(count), 0);
    for (uint64_t i = 0; i < count; ++i) {
      uint32_t lhs = 0, rhs = 0;
      uint8_t rel = 0;
      if (!(status = reader.ReadU32(&lhs)).ok() ||
          !(status = reader.ReadU32(&rhs)).ok() ||
          !(status = reader.ReadU8(&rel)).ok()) {
        return Corrupt(status.message());
      }
      if (lhs >= num_orders || rhs >= num_orders || rel > 1) {
        return Corrupt("order atom out of range");
      }
      db->AddOrderAtom(static_cast<int>(lhs), static_cast<int>(rhs),
                       static_cast<OrderRel>(rel));
    }
    if (!reader.AtEnd()) {
      return Corrupt("trailing bytes in order atoms section");
    }
  }

  // Inequalities.
  {
    ByteReader reader(map.payload[kSectionInequalities]);
    Status status;
    uint64_t count = 0;
    if (!(status = reader.ReadU64(&count)).ok()) {
      return Corrupt(status.message());
    }
    for (uint64_t i = 0; i < count; ++i) {
      uint32_t lhs = 0, rhs = 0;
      if (!(status = reader.ReadU32(&lhs)).ok() ||
          !(status = reader.ReadU32(&rhs)).ok()) {
        return Corrupt(status.message());
      }
      if (lhs >= num_orders || rhs >= num_orders) {
        return Corrupt("inequality out of range");
      }
      db->AddInequality(static_cast<int>(lhs), static_cast<int>(rhs));
    }
    if (!reader.AtEnd()) {
      return Corrupt("trailing bytes in inequalities section");
    }
  }

  // Identity: adopt the persisted (uid, revision) last, after every
  // mutator above has run.
  {
    ByteReader reader(map.payload[kSectionIdentity]);
    Status status;
    uint64_t uid = 0, revision = 0;
    if (!(status = reader.ReadU64(&uid)).ok() ||
        !(status = reader.ReadU64(&revision)).ok()) {
      return Corrupt(status.message());
    }
    if (!reader.AtEnd()) {
      return Corrupt("trailing bytes in identity section");
    }
    db->RestoreIdentity(uid, revision);
  }

  // Statistics (v2+, optional): install after RestoreIdentity so the
  // freshness stamp matches the restored revision. Persisted stats
  // reference the FILE vocabulary's predicate ids, so a registry-open
  // that remapped any predicate drops them (rebuilt lazily on demand).
  if (map.present[kSectionStatistics]) {
    bool identity_map = true;
    for (size_t p = 0; p < pred_map.size(); ++p) {
      identity_map = identity_map && pred_map[p] == static_cast<int>(p);
    }
    if (identity_map) {
      Result<stats::DatabaseStats> decoded =
          stats::DecodeStats(map.payload[kSectionStatistics]);
      if (!decoded.ok()) {
        return Corrupt("statistics section: " + decoded.status().message());
      }
      // Identity mismatch (a hand-assembled file) is tolerated, not
      // fatal: statistics are advisory, so the install is skipped and
      // the stats rebuild lazily, exactly like a pre-v2 snapshot.
      (void)stats::InstallPersistedStats(*db, std::move(decoded.value()));
    }
  }
  return Status::Ok();
}

Result<Database> DecodeImpl(std::string_view bytes, VocabularyPtr vocab) {
  SectionMap map;
  Status status = ReadSectionMap(bytes, kMagic, &map);
  if (!status.ok()) return status;

  DecodedVocabulary file_vocab;
  status = DecodeVocabularySection(map.payload[kSectionVocabulary],
                                   &file_vocab);
  if (!status.ok()) return status;
  DecodedConstants constants;
  status = DecodeConstantsSection(map.payload[kSectionConstants], &constants);
  if (!status.ok()) return status;

  const bool fresh_vocab = vocab == nullptr;
  if (fresh_vocab) vocab = std::make_shared<Vocabulary>();
  std::vector<int> pred_map;
  pred_map.reserve(file_vocab.predicates.size());
  for (PredicateInfo& info : file_vocab.predicates) {
    Result<int> id = vocab->GetOrAddPredicate(info.name, info.arg_sorts);
    if (!id.ok()) {
      return Corrupt("predicate '" + info.name +
                     "' clashes with the target vocabulary: " +
                     id.status().message());
    }
    pred_map.push_back(id.value());
  }
  if (fresh_vocab) vocab->RestoreUid(file_vocab.uid);

  Database db(vocab);
  status = DecodeBody(map, pred_map, file_vocab.predicates,
                      std::move(constants), &db);
  if (!status.ok()) return status;
  return db;
}

}  // namespace

const char* SectionInfo::Name(uint32_t id) {
  switch (id) {
    case kSectionVocabulary: return "vocabulary";
    case kSectionConstants: return "constants";
    case kSectionFactSegments: return "fact-segments";
    case kSectionOrderAtoms: return "order-atoms";
    case kSectionInequalities: return "inequalities";
    case kSectionIdentity: return "identity";
    case kSectionStatistics: return "statistics";
    default: return "unknown";
  }
}

std::string SnapshotInfo::ToString() const {
  auto line = [](const char* name, uint64_t value) {
    std::string out = name;
    while (out.size() < 22) out += ' ';
    return out + std::to_string(value) + "\n";
  };
  std::string out;
  out += line("format-version", format_version);
  out += line("file-bytes", file_bytes);
  out += line("vocab-uid", vocab_uid);
  out += line("db-uid", db_uid);
  out += line("revision", revision);
  out += line("predicates", num_predicates);
  out += line("object-constants", num_object_constants);
  out += line("order-constants", num_order_constants);
  out += line("proper-atoms", num_proper_atoms);
  out += line("order-atoms", num_order_atoms);
  out += line("inequalities", num_inequalities);
  for (const SectionInfo& section : sections) {
    std::ostringstream entry;
    entry << "section " << SectionInfo::Name(section.id) << " offset="
          << section.offset << " bytes=" << section.length << " fnv1a64=0x"
          << std::hex << section.checksum << "\n";
    out += entry.str();
  }
  {
    std::string state = "statistics            ";
    state += !has_statistics ? "absent (pre-v2 snapshot; rebuilt on open)"
             : statistics_fresh
                 ? "persisted (fresh)"
                 : "persisted (STALE: identity mismatch, rebuilt on open)";
    out += state + "\n";
  }
  out += statistics;
  return out;
}

std::string EncodeSnapshot(const Database& db) {
  std::vector<std::pair<uint32_t, std::string>> sections;
  sections.emplace_back(kSectionVocabulary,
                        EncodeVocabularySection(*db.vocab()));
  sections.emplace_back(kSectionConstants, EncodeConstantsSection(db));
  sections.emplace_back(kSectionFactSegments, EncodeFactSegments(db));
  sections.emplace_back(kSectionOrderAtoms, EncodeOrderAtomsSection(db));
  sections.emplace_back(kSectionInequalities, EncodeInequalitiesSection(db));
  sections.emplace_back(kSectionIdentity, EncodeIdentitySection(db));
  // Statistics last: a pure function of content + identity, so the
  // whole file stays a pure function of the database (byte-stable
  // re-encode whether the stats were persisted or rebuilt).
  sections.emplace_back(kSectionStatistics,
                        stats::EncodeStats(*stats::StatsFor(db)));
  return AssembleFile(sections);
}

Result<Database> DecodeSnapshot(std::string_view bytes) {
  return DecodeImpl(bytes, nullptr);
}

Result<Database> DecodeSnapshotInto(std::string_view bytes,
                                    VocabularyPtr vocab) {
  IODB_CHECK(vocab != nullptr);
  return DecodeImpl(bytes, std::move(vocab));
}

Result<SnapshotInfo> InspectSnapshot(std::string_view bytes) {
  // Counts come from the decoded database, so inspect accepts exactly
  // the files OpenSnapshot accepts, through the same validation.
  Result<Database> db = DecodeSnapshot(bytes);
  if (!db.ok()) return db.status();
  SectionMap map;
  Status status = ReadSectionMap(bytes, kMagic, &map);
  if (!status.ok()) return status;

  SnapshotInfo info;
  info.format_version = map.version;
  info.file_bytes = bytes.size();
  info.vocab_uid = db.value().vocab()->uid();
  info.db_uid = db.value().uid();
  info.revision = db.value().revision();
  info.num_predicates =
      static_cast<uint32_t>(db.value().vocab()->num_predicates());
  info.num_object_constants =
      static_cast<uint32_t>(db.value().num_object_constants());
  info.num_order_constants =
      static_cast<uint32_t>(db.value().num_order_constants());
  info.num_proper_atoms = db.value().proper_atoms().size();
  info.num_order_atoms = db.value().order_atoms().size();
  info.num_inequalities = db.value().inequalities().size();
  info.sections = map.infos;
  if (map.present[kSectionStatistics]) {
    Result<stats::DatabaseStats> decoded =
        stats::DecodeStats(map.payload[kSectionStatistics]);
    if (!decoded.ok()) {
      return Corrupt("statistics section: " + decoded.status().message());
    }
    info.has_statistics = true;
    info.statistics_fresh = decoded.value().db_uid == info.db_uid &&
                            decoded.value().db_revision == info.revision;
    info.statistics = stats::RenderStats(decoded.value());
  }
  return info;
}

Status SaveSnapshot(const Database& db, const std::string& path) {
  return WriteFileAtomic(path, EncodeSnapshot(db));
}

Result<Database> OpenSnapshot(const std::string& path) {
  Result<std::string> bytes = ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();
  return DecodeSnapshot(bytes.value());
}

Result<Database> OpenSnapshotInto(const std::string& path,
                                  VocabularyPtr vocab) {
  Result<std::string> bytes = ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();
  return DecodeSnapshotInto(bytes.value(), std::move(vocab));
}

Result<SnapshotInfo> InspectSnapshotFile(const std::string& path) {
  Result<std::string> bytes = ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();
  Result<SnapshotInfo> info = InspectSnapshot(bytes.value());
  return info;
}

// --- vocabulary sidecar ------------------------------------------------------

namespace {
constexpr char kVocabMagic[8] = {'I', 'O', 'D', 'B', 'V', 'O', 'C', 'B'};
}  // namespace

std::string EncodeVocabulary(const Vocabulary& vocab) {
  std::string payload = EncodeVocabularySection(vocab);
  std::string out;
  out.append(kVocabMagic, sizeof(kVocabMagic));
  AppendU32(&out, kSnapshotFormatVersion);
  AppendU32(&out, kEndianTag);
  AppendU64(&out, payload.size());
  AppendU64(&out, Fnv1a64(payload));
  out += payload;
  return out;
}

Status SaveVocabulary(const Vocabulary& vocab, const std::string& path) {
  return WriteFileAtomic(path, EncodeVocabulary(vocab));
}

Status RestoreVocabularyInto(const std::string& path, Vocabulary* vocab) {
  Result<std::string> bytes = ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();
  ByteReader reader(bytes.value());
  std::string_view magic;
  Status status = reader.ReadBytes(8, &magic);
  if (!status.ok()) return Corrupt(status.message());
  if (magic != std::string_view(kVocabMagic, 8)) {
    return Corrupt("bad magic (not a vocabulary file)");
  }
  uint32_t version = 0, endian = 0;
  uint64_t length = 0, checksum = 0;
  if (!(status = reader.ReadU32(&version)).ok() ||
      !(status = reader.ReadU32(&endian)).ok() ||
      !(status = reader.ReadU64(&length)).ok() ||
      !(status = reader.ReadU64(&checksum)).ok()) {
    return Corrupt(status.message());
  }
  // The sidecar payload has not changed across format versions; accept
  // every version this reader knows.
  if (version < 1 || version > kSnapshotFormatVersion) {
    return Corrupt("unsupported vocabulary file version " +
                   std::to_string(version));
  }
  if (endian != kEndianTag) {
    return Corrupt("endian tag mismatch (corrupt header)");
  }
  std::string_view payload;
  status = reader.ReadBytes(static_cast<size_t>(length), &payload);
  if (!status.ok()) return Corrupt(status.message());
  if (Fnv1a64(payload) != checksum) {
    return Corrupt("vocabulary payload checksum mismatch");
  }
  DecodedVocabulary decoded;
  status = DecodeVocabularySection(payload, &decoded);
  if (!status.ok()) return status;
  // Register in persisted id order: on a fresh vocabulary this
  // reproduces the persisted ids exactly, which is what keeps plan
  // fingerprints comparable across restarts.
  for (size_t p = 0; p < decoded.predicates.size(); ++p) {
    PredicateInfo& info = decoded.predicates[p];
    Result<int> id = vocab->GetOrAddPredicate(info.name, info.arg_sorts);
    if (!id.ok()) return id.status();
    if (id.value() != static_cast<int>(p)) {
      return Corrupt("predicate '" + info.name +
                     "' restored at id " + std::to_string(id.value()) +
                     ", persisted at " + std::to_string(p) +
                     " (restore into a fresh vocabulary)");
    }
  }
  vocab->RestoreUid(decoded.uid);
  return Status::Ok();
}

// --- file helpers ------------------------------------------------------------

Result<std::string> ReadFileBytes(const std::string& path) {
  Result<int> opened = OpenFd(path, O_RDONLY | O_CLOEXEC, 0, "file");
  if (!opened.ok()) {
    return Status::InvalidArgument("cannot open '" + path + "'");
  }
  const int fd = opened.value();
  std::string bytes;
  Status status = ReadFull(fd, &bytes, "'" + path + "'");
  ::close(fd);
  if (!status.ok()) return status;
  return bytes;
}

Status WriteFileAtomic(const std::string& path, std::string_view bytes) {
  Status status = failpoint::CheckAndMaybeFail("snapshot-write-before-tmp");
  if (!status.ok()) return status;

  const std::string tmp = path + ".tmp";
  Result<int> opened = OpenFd(
      tmp, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644, "temp file");
  if (!opened.ok()) return opened.status();
  const int fd = opened.value();
  // Torn-write seam: stage a strict prefix of the temp file, then act.
  // The target file is untouched either way — that is the atomicity
  // being tested.
  const failpoint::Action torn = failpoint::Check("snapshot-write-torn");
  size_t to_write = bytes.size();
  if (torn != failpoint::Action::kOff) to_write /= 2;
  status = WriteFull(fd, bytes.substr(0, to_write), "'" + tmp + "'");
  if (!status.ok()) {
    ::close(fd);
    return status;
  }
  if (torn == failpoint::Action::kCrash) failpoint::CrashNow();
  if (torn == failpoint::Action::kError) {
    ::close(fd);
    return Status::InvalidArgument(
        "failpoint 'snapshot-write-torn' injected partial write");
  }
  // fsync BEFORE rename: without it the rename can reach the directory
  // while the data has not reached the platter, and a power cut leaves a
  // complete-looking file of garbage under the final name.
  status = FsyncFd(fd, "'" + tmp + "'");
  if (!status.ok()) {
    ::close(fd);
    return status;
  }
  if (::close(fd) != 0) {
    return Status::InvalidArgument("close of '" + tmp +
                                   "' failed: " + std::strerror(errno));
  }

  status = failpoint::CheckAndMaybeFail("snapshot-before-rename");
  if (!status.ok()) return status;
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::InvalidArgument("cannot rename '" + tmp + "' to '" + path +
                                   "': " + ec.message());
  }
  // fsync the parent directory so the rename itself is durable.
  const std::string dir =
      std::filesystem::path(path).parent_path().string();
  Result<int> dir_fd = OpenFd(dir.empty() ? "." : dir,
                              O_RDONLY | O_DIRECTORY | O_CLOEXEC, 0,
                              "parent directory");
  if (dir_fd.ok()) {
    (void)FsyncFd(dir_fd.value(), "parent directory of '" + path + "'");
    ::close(dir_fd.value());
  }
  return failpoint::CheckAndMaybeFail("snapshot-after-rename");
}

}  // namespace iodb::storage
