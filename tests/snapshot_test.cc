// Unit tests for the binary snapshot format (storage/snapshot.h): the
// codec's explicit little-endian layout, full round trips over mixed
// databases, identity restoration, vocabulary remapping, the vocabulary
// sidecar, and — because every byte of a snapshot is covered by a
// checksum or a validated header field — exhaustive single-byte
// corruption and truncation sweeps that must always come back as a
// Status, never a crash.

#include "storage/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/parser.h"
#include "core/printer.h"
#include "storage/codec.h"

namespace iodb {
namespace {

// A database exercising every section: monadic order facts, an n-ary
// mixed-sort predicate, object constants, both order relations, and an
// inequality.
Database MixedDatabase(VocabularyPtr vocab) {
  Database db(vocab);
  // Orders first, so u/v/w are interned as order constants before the
  // facts that mention them infer their sorts.
  db.AddOrder("u", OrderRel::kLt, "v");
  db.AddOrder("v", OrderRel::kLe, "w");
  EXPECT_TRUE(db.AddFact("P", {"u"}).ok());
  EXPECT_TRUE(db.AddFact("P", {"w"}).ok());
  EXPECT_TRUE(db.AddFact("Q", {"v"}).ok());
  EXPECT_TRUE(db.AddFact("IC", {"u", "w", "A"}).ok());
  EXPECT_TRUE(db.AddFact("Owns", {"A", "B"}).ok());
  db.AddNotEqual("u", "w");
  return db;
}

// Renders every proper atom as "P(name, ...)" and sorts, so fact sets
// compare across databases with different interning orders or
// vocabulary ids.
std::vector<std::string> FactNames(const Database& db) {
  std::vector<std::string> out;
  for (const ProperAtom& atom : db.proper_atoms()) {
    std::string fact = db.vocab()->predicate(atom.pred).name + "(";
    for (size_t i = 0; i < atom.args.size(); ++i) {
      if (i > 0) fact += ", ";
      fact += atom.args[i].sort == Sort::kObject
                  ? db.object_name(atom.args[i].id)
                  : db.order_name(atom.args[i].id);
    }
    fact += ")";
    out.push_back(std::move(fact));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(SnapshotCodec, LittleEndianByteLayout) {
  // The on-disk encoding is little-endian by explicit byte arithmetic;
  // these assertions hold on any host, which is the point.
  std::string bytes;
  storage::AppendU32(&bytes, 0x01020304u);
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(bytes[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(bytes[1]), 0x03);
  EXPECT_EQ(static_cast<unsigned char>(bytes[2]), 0x02);
  EXPECT_EQ(static_cast<unsigned char>(bytes[3]), 0x01);

  bytes.clear();
  storage::AppendU64(&bytes, 0x0102030405060708ull);
  ASSERT_EQ(bytes.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(static_cast<unsigned char>(bytes[static_cast<size_t>(i)]),
              8 - i);
  }

  storage::ByteReader reader(bytes);
  uint64_t decoded = 0;
  ASSERT_TRUE(reader.ReadU64(&decoded).ok());
  EXPECT_EQ(decoded, 0x0102030405060708ull);
}

TEST(SnapshotCodec, Fnv1a64KnownVectors) {
  EXPECT_EQ(storage::Fnv1a64(""), 0xCBF29CE484222325ull);
  EXPECT_EQ(storage::Fnv1a64("a"), 0xAF63DC4C8601EC8Cull);
  EXPECT_EQ(storage::Fnv1a64("foobar"), 0x85944171F73967E8ull);
}

TEST(SnapshotCodec, ByteReaderNeverReadsPastEnd) {
  std::string bytes = "abc";
  storage::ByteReader reader(bytes);
  uint32_t value = 0;
  EXPECT_FALSE(reader.ReadU32(&value).ok());
  std::string text;
  storage::ByteReader reader2(bytes);
  EXPECT_FALSE(reader2.ReadString(&text).ok());
}

TEST(Snapshot, RoundTripMixedDatabase) {
  auto vocab = std::make_shared<Vocabulary>();
  Database db = MixedDatabase(vocab);
  const std::string bytes = storage::EncodeSnapshot(db);

  Result<Database> restored = storage::DecodeSnapshot(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const Database& db2 = restored.value();

  // Identity survives.
  EXPECT_EQ(db2.uid(), db.uid());
  EXPECT_EQ(db2.revision(), db.revision());
  EXPECT_EQ(db2.vocab()->uid(), vocab->uid());

  // Symbol tables survive exactly (ids and names).
  ASSERT_EQ(db2.num_object_constants(), db.num_object_constants());
  for (int i = 0; i < db.num_object_constants(); ++i) {
    EXPECT_EQ(db2.object_name(i), db.object_name(i));
  }
  ASSERT_EQ(db2.num_order_constants(), db.num_order_constants());
  for (int i = 0; i < db.num_order_constants(); ++i) {
    EXPECT_EQ(db2.order_name(i), db.order_name(i));
  }
  ASSERT_EQ(db2.vocab()->num_predicates(), vocab->num_predicates());
  for (int p = 0; p < vocab->num_predicates(); ++p) {
    EXPECT_EQ(db2.vocab()->predicate(p).name, vocab->predicate(p).name);
    EXPECT_EQ(db2.vocab()->predicate(p).arg_sorts,
              vocab->predicate(p).arg_sorts);
  }

  // Content survives (facts compared as a set: decoding re-buckets by
  // predicate; order atoms and inequalities keep their exact order).
  EXPECT_EQ(FactNames(db2), FactNames(db));
  EXPECT_EQ(db2.order_atoms(), db.order_atoms());
  EXPECT_EQ(db2.inequalities(), db.inequalities());

  // Re-serialization is byte-stable.
  EXPECT_EQ(storage::EncodeSnapshot(db2), bytes);

  // The normalized views agree.
  Result<const NormDb*> norm1 = db.NormView();
  Result<const NormDb*> norm2 = db2.NormView();
  ASSERT_TRUE(norm1.ok());
  ASSERT_TRUE(norm2.ok());
  EXPECT_EQ(DotOfDb(*norm2.value()), DotOfDb(*norm1.value()));
}

TEST(Snapshot, RoundTripEmptyDatabase) {
  auto vocab = std::make_shared<Vocabulary>();
  Database db(vocab);
  const std::string bytes = storage::EncodeSnapshot(db);
  Result<Database> restored = storage::DecodeSnapshot(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().SizeAtoms(), 0);
  EXPECT_EQ(restored.value().uid(), db.uid());
  EXPECT_EQ(storage::EncodeSnapshot(restored.value()), bytes);
}

TEST(Snapshot, DecodeIntoSharedVocabularyRemapsPredicates) {
  auto vocab = std::make_shared<Vocabulary>();
  Database db = MixedDatabase(vocab);
  const std::string bytes = storage::EncodeSnapshot(db);

  // The shared vocabulary already has predicates at the low ids, so the
  // persisted ids must be remapped by name.
  auto shared = std::make_shared<Vocabulary>();
  shared->MustAddPredicate("Zeta", {Sort::kOrder});
  shared->MustAddPredicate("Q", {Sort::kOrder});
  const uint64_t shared_uid = shared->uid();

  Result<Database> restored = storage::DecodeSnapshotInto(bytes, shared);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().vocab().get(), shared.get());
  // The shared vocabulary keeps its own identity.
  EXPECT_EQ(shared->uid(), shared_uid);
  // Same facts by name, same database identity.
  EXPECT_EQ(FactNames(restored.value()), FactNames(db));
  EXPECT_EQ(restored.value().uid(), db.uid());
  EXPECT_EQ(restored.value().revision(), db.revision());
}

TEST(Snapshot, DecodeIntoVocabularyWithSignatureClashFails) {
  auto vocab = std::make_shared<Vocabulary>();
  Database db = MixedDatabase(vocab);
  const std::string bytes = storage::EncodeSnapshot(db);

  auto shared = std::make_shared<Vocabulary>();
  shared->MustAddPredicate("P", {Sort::kObject, Sort::kObject});
  Result<Database> restored = storage::DecodeSnapshotInto(bytes, shared);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().message().find("clashes"), std::string::npos);
}

TEST(Snapshot, RestoredUidAdvancesTheCounter) {
  auto vocab = std::make_shared<Vocabulary>();
  Database db = MixedDatabase(vocab);
  const std::string bytes = storage::EncodeSnapshot(db);
  Result<Database> restored = storage::DecodeSnapshot(bytes);
  ASSERT_TRUE(restored.ok());
  // A database constructed after the restore must get a fresh uid above
  // the restored one — identities never collide.
  Database fresh(vocab);
  EXPECT_GT(fresh.uid(), restored.value().uid());
}

TEST(Snapshot, InspectReportsCountsAndSections) {
  auto vocab = std::make_shared<Vocabulary>();
  Database db = MixedDatabase(vocab);
  const std::string bytes = storage::EncodeSnapshot(db);
  Result<storage::SnapshotInfo> info = storage::InspectSnapshot(bytes);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().format_version, storage::kSnapshotFormatVersion);
  EXPECT_EQ(info.value().db_uid, db.uid());
  EXPECT_EQ(info.value().revision, db.revision());
  EXPECT_EQ(info.value().num_predicates, 4u);
  EXPECT_EQ(info.value().num_object_constants, 2u);
  EXPECT_EQ(info.value().num_order_constants, 3u);
  EXPECT_EQ(info.value().num_proper_atoms, 5u);
  EXPECT_EQ(info.value().num_order_atoms, 2u);
  EXPECT_EQ(info.value().num_inequalities, 1u);
  EXPECT_EQ(info.value().file_bytes, bytes.size());
  EXPECT_EQ(info.value().sections.size(), 7u);
  EXPECT_TRUE(info.value().has_statistics);
  EXPECT_TRUE(info.value().statistics_fresh);
  const std::string rendered = info.value().ToString();
  EXPECT_NE(rendered.find("section fact-segments"), std::string::npos);
  EXPECT_NE(rendered.find("statistics            persisted (fresh)"),
            std::string::npos);
  EXPECT_NE(rendered.find("order-graph"), std::string::npos);
}

// Rewrites the payload of section `id` with `edit` and re-stamps its
// checksum and the section-table checksum, so only the decoder's own
// validation of the payload can catch the change.
std::string WithSectionEdited(std::string bytes, uint32_t id,
                              void (*edit)(char* payload)) {
  auto read_u64 = [&](size_t at) {
    uint64_t value = 0;
    for (int i = 7; i >= 0; --i) {
      value = (value << 8) | static_cast<uint8_t>(bytes[at + i]);
    }
    return value;
  };
  auto write_u64 = [&](size_t at, uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      bytes[at + i] = static_cast<char>(value >> (8 * i));
    }
  };
  const size_t kHeader = 28, kEntry = 32;
  const uint32_t count = static_cast<uint8_t>(bytes[16]);
  for (size_t e = 0; e < count; ++e) {
    const size_t entry = kHeader + e * kEntry;
    if (static_cast<uint8_t>(bytes[entry]) != id) continue;
    const size_t offset = read_u64(entry + 8);
    const size_t length = read_u64(entry + 16);
    edit(&bytes[offset]);
    write_u64(entry + 24, storage::Fnv1a64(
                              std::string_view(bytes).substr(offset, length)));
  }
  write_u64(20, storage::Fnv1a64(
                    std::string_view(bytes).substr(kHeader, count * kEntry)));
  return bytes;
}

TEST(Snapshot, InspectAcceptsExactlyWhatDecodeAccepts) {
  auto vocab = std::make_shared<Vocabulary>();
  Database db = MixedDatabase(vocab);
  const std::string bytes = storage::EncodeSnapshot(db);
  // Correctly checksummed, but the inequalities section claims one atom
  // more than it holds: decoding rejects it, so inspecting must too.
  const std::string overcount = WithSectionEdited(
      bytes, /*inequalities=*/5, [](char* payload) { ++payload[0]; });
  EXPECT_FALSE(storage::DecodeSnapshot(overcount).ok());
  EXPECT_FALSE(storage::InspectSnapshot(overcount).ok());
  // The same re-stamping with no edit keeps the file valid for both.
  const std::string restamped = WithSectionEdited(bytes, 5, [](char*) {});
  EXPECT_TRUE(storage::DecodeSnapshot(restamped).ok());
  EXPECT_TRUE(storage::InspectSnapshot(restamped).ok());
}

TEST(Snapshot, EverySingleByteCorruptionIsDetected) {
  // Every byte of the file is covered by a checksum or a validated
  // header field, so ANY single-byte corruption must surface as an
  // error — silent acceptance would be data corruption.
  auto vocab = std::make_shared<Vocabulary>();
  Database db = MixedDatabase(vocab);
  const std::string bytes = storage::EncodeSnapshot(db);
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x5A);
    Result<Database> restored = storage::DecodeSnapshot(corrupt);
    EXPECT_FALSE(restored.ok()) << "flip at byte " << i << " was accepted";
  }
}

TEST(Snapshot, EveryTruncationIsAnErrorNotACrash) {
  auto vocab = std::make_shared<Vocabulary>();
  Database db = MixedDatabase(vocab);
  const std::string bytes = storage::EncodeSnapshot(db);
  for (size_t length = 0; length < bytes.size(); ++length) {
    Result<Database> restored =
        storage::DecodeSnapshot(std::string_view(bytes.data(), length));
    EXPECT_FALSE(restored.ok()) << "prefix of " << length << " accepted";
  }
}

TEST(Snapshot, RejectsOtherFormatVersions) {
  auto vocab = std::make_shared<Vocabulary>();
  Database db(vocab);
  std::string bytes = storage::EncodeSnapshot(db);
  for (uint8_t version : {0, 3}) {  // below and above the known range
    std::string patched = bytes;
    patched[8] = static_cast<char>(version);  // follows the 8-byte magic
    Result<Database> restored = storage::DecodeSnapshot(patched);
    ASSERT_FALSE(restored.ok());
    EXPECT_NE(restored.status().message().find("version"),
              std::string::npos);
  }
}

TEST(Snapshot, RejectsForeignBytes) {
  EXPECT_FALSE(storage::DecodeSnapshot("not a snapshot at all").ok());
  EXPECT_FALSE(storage::InspectSnapshot("").ok());
}

TEST(VocabularyFile, RoundTripRestoresIdsAndUid) {
  auto vocab = std::make_shared<Vocabulary>();
  vocab->MustAddPredicate("P", {Sort::kOrder});
  vocab->MustAddPredicate("IC", {Sort::kOrder, Sort::kOrder, Sort::kObject});
  const std::string path = testing::TempDir() + "/vocab_roundtrip.iodb";
  ASSERT_TRUE(storage::SaveVocabulary(*vocab, path).ok());

  auto restored = std::make_shared<Vocabulary>();
  Status status = storage::RestoreVocabularyInto(path, restored.get());
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(restored->uid(), vocab->uid());
  ASSERT_EQ(restored->num_predicates(), 2);
  EXPECT_EQ(restored->predicate(0).name, "P");
  EXPECT_EQ(restored->predicate(1).name, "IC");
  EXPECT_EQ(restored->predicate(1).arg_sorts,
            (std::vector<Sort>{Sort::kOrder, Sort::kOrder, Sort::kObject}));
}

TEST(VocabularyFile, RestoreIntoMismatchedVocabularyFails) {
  auto vocab = std::make_shared<Vocabulary>();
  vocab->MustAddPredicate("P", {Sort::kOrder});
  const std::string path = testing::TempDir() + "/vocab_mismatch.iodb";
  ASSERT_TRUE(storage::SaveVocabulary(*vocab, path).ok());

  auto other = std::make_shared<Vocabulary>();
  other->MustAddPredicate("Q", {Sort::kOrder});  // occupies id 0
  Status status = storage::RestoreVocabularyInto(path, other.get());
  EXPECT_FALSE(status.ok());
}

TEST(Snapshot, ParsedDatabaseRoundTripsThroughFile) {
  auto vocab = std::make_shared<Vocabulary>();
  Result<Database> db = ParseDatabase(
      "pred IC(order, order, object)\n"
      "P(u); Q(v); IC(z1, z2, A)\n"
      "u < v <= z1\n"
      "z1 != z2\n",
      vocab);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const std::string path = testing::TempDir() + "/parsed_roundtrip.snap";
  ASSERT_TRUE(storage::SaveSnapshot(db.value(), path).ok());
  Result<Database> restored = storage::OpenSnapshot(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(FactNames(restored.value()), FactNames(db.value()));
  EXPECT_EQ(restored.value().uid(), db.value().uid());
  EXPECT_EQ(restored.value().revision(), db.value().revision());
}

}  // namespace
}  // namespace iodb
