// Table, hash index, datum and schema behaviour of the embedded engine.

#include <gtest/gtest.h>

#include "storage/hash_index.h"
#include "storage/table.h"

namespace provlin::storage {
namespace {

Schema TestSchema() {
  return Schema({{"run", DatumKind::kString},
                 {"proc", DatumKind::kString},
                 {"idx", DatumKind::kString},
                 {"val", DatumKind::kInt}});
}

TEST(Datum, KindsAndOrdering) {
  EXPECT_TRUE(Datum::Null().is_null());
  EXPECT_LT(Datum::Null(), Datum(int64_t{0}));  // null sorts first
  EXPECT_LT(Datum(int64_t{1}), Datum(int64_t{2}));
  EXPECT_LT(Datum("a"), Datum("b"));
  EXPECT_EQ(Datum("x"), Datum("x"));
  EXPECT_NE(Datum("x"), Datum("y"));
}

TEST(Datum, CompareKeysLexicographic) {
  EXPECT_EQ(CompareKeys({Datum("a")}, {Datum("a")}), 0);
  EXPECT_LT(CompareKeys({Datum("a")}, {Datum("b")}), 0);
  EXPECT_LT(CompareKeys({Datum("a")}, {Datum("a"), Datum("x")}), 0);
  EXPECT_GT(CompareKeys({Datum("b")}, {Datum("a"), Datum("z")}), 0);
}

TEST(Datum, KeyHasPrefix) {
  Key key{Datum("a"), Datum("b"), Datum("c")};
  EXPECT_TRUE(KeyHasPrefix(key, {}));
  EXPECT_TRUE(KeyHasPrefix(key, {Datum("a")}));
  EXPECT_TRUE(KeyHasPrefix(key, {Datum("a"), Datum("b")}));
  EXPECT_FALSE(KeyHasPrefix(key, {Datum("b")}));
  EXPECT_FALSE(KeyHasPrefix({Datum("a")}, key));
}

TEST(Schema, ColumnLookup) {
  Schema s = TestSchema();
  EXPECT_EQ(s.num_columns(), 4u);
  EXPECT_EQ(*s.ColumnIndex("proc"), 1u);
  EXPECT_FALSE(s.ColumnIndex("nope").ok());
  auto idx = s.ColumnIndices({"idx", "run"});
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, (std::vector<size_t>{2, 0}));
}

TEST(Schema, ValidateRow) {
  Schema s = TestSchema();
  EXPECT_TRUE(
      s.ValidateRow({Datum("r"), Datum("p"), Datum("i"), Datum(int64_t{1})})
          .ok());
  // NULL allowed anywhere.
  EXPECT_TRUE(
      s.ValidateRow({Datum("r"), Datum::Null(), Datum("i"), Datum::Null()})
          .ok());
  // Wrong arity.
  EXPECT_FALSE(s.ValidateRow({Datum("r")}).ok());
  // Wrong kind.
  EXPECT_FALSE(
      s.ValidateRow({Datum("r"), Datum("p"), Datum("i"), Datum("not-int")})
          .ok());
}

TEST(HashIndex, InsertLookupErase) {
  HashIndex idx;
  idx.Insert({Datum("a")}, 1);
  idx.Insert({Datum("a")}, 2);
  idx.Insert({Datum("b")}, 3);
  EXPECT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx.Lookup({Datum("a")}), (std::vector<uint64_t>{1, 2}));
  EXPECT_TRUE(idx.Erase({Datum("a")}, 1));
  EXPECT_FALSE(idx.Erase({Datum("a")}, 1));
  EXPECT_FALSE(idx.Erase({Datum("z")}, 9));
  EXPECT_EQ(idx.Lookup({Datum("a")}), (std::vector<uint64_t>{2}));
}

TEST(HashIndex, DuplicateInsertIgnored) {
  HashIndex idx;
  idx.Insert({Datum("a")}, 1);
  idx.Insert({Datum("a")}, 1);
  EXPECT_EQ(idx.size(), 1u);
}

TEST(Table, InsertGetDelete) {
  Table t("t", TestSchema());
  auto rid = t.Insert({Datum("r0"), Datum("P"), Datum("i"), Datum(int64_t{7})});
  ASSERT_TRUE(rid.ok());
  auto row = t.Get(*rid);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[3].AsInt(), 7);
  EXPECT_EQ(t.num_rows(), 1u);
  ASSERT_TRUE(t.Delete(*rid).ok());
  EXPECT_FALSE(t.Get(*rid).ok());
  EXPECT_FALSE(t.Delete(*rid).ok());
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST(Table, InsertValidatesSchema) {
  Table t("t", TestSchema());
  EXPECT_FALSE(t.Insert({Datum("r0")}).ok());
  EXPECT_FALSE(
      t.Insert({Datum("r0"), Datum(int64_t{1}), Datum("i"), Datum(int64_t{1})})
          .ok());
}

TEST(Table, SecondaryBTreeIndexMaintained) {
  Table t("t", TestSchema());
  ASSERT_TRUE(
      t.CreateIndex({"by_proc", {"run", "proc"}, IndexType::kBTree}).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.Insert({Datum("r0"), Datum("P" + std::to_string(i % 3)),
                          Datum("i"), Datum(int64_t{i})})
                    .ok());
  }
  auto rids = t.IndexLookup("by_proc", {Datum("r0"), Datum("P1")});
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(rids->size(), 3u);  // i = 1, 4, 7
  EXPECT_TRUE(t.CheckIndexConsistency().ok());
  // Delete updates the index.
  ASSERT_TRUE(t.Delete(rids->front()).ok());
  EXPECT_EQ(t.IndexLookup("by_proc", {Datum("r0"), Datum("P1")})->size(), 2u);
  EXPECT_TRUE(t.CheckIndexConsistency().ok());
}

TEST(Table, IndexBackfillsExistingRows) {
  Table t("t", TestSchema());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(t.Insert({Datum("r0"), Datum("P"), Datum("i"),
                          Datum(int64_t{i})})
                    .ok());
  }
  ASSERT_TRUE(t.CreateIndex({"by_run", {"run"}, IndexType::kHash}).ok());
  auto rids = t.IndexLookup("by_run", {Datum("r0")});
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(rids->size(), 5u);
}

TEST(Table, DuplicateIndexNameRejected) {
  Table t("t", TestSchema());
  ASSERT_TRUE(t.CreateIndex({"i1", {"run"}, IndexType::kBTree}).ok());
  EXPECT_FALSE(t.CreateIndex({"i1", {"proc"}, IndexType::kBTree}).ok());
}

TEST(Table, IndexOnUnknownColumnRejected) {
  Table t("t", TestSchema());
  EXPECT_FALSE(t.CreateIndex({"i1", {"nope"}, IndexType::kBTree}).ok());
  EXPECT_FALSE(t.CreateIndex({"i1", {}, IndexType::kBTree}).ok());
}

TEST(Table, PrefixAndRangeLookupRequireBTree) {
  Table t("t", TestSchema());
  ASSERT_TRUE(t.CreateIndex({"h", {"run"}, IndexType::kHash}).ok());
  EXPECT_FALSE(t.IndexPrefixLookup("h", {Datum("r0")}).ok());
  EXPECT_FALSE(t.IndexRangeLookup("h", {Datum("a")}, {Datum("b")}).ok());
}

TEST(Table, IndexLookupArityChecked) {
  Table t("t", TestSchema());
  ASSERT_TRUE(t.CreateIndex({"b", {"run", "proc"}, IndexType::kBTree}).ok());
  EXPECT_FALSE(t.IndexLookup("b", {Datum("r0")}).ok());
  EXPECT_FALSE(t.IndexLookup("nonexistent", {Datum("r0")}).ok());
}

TEST(Table, FullScanSkipsTombstones) {
  Table t("t", TestSchema());
  std::vector<uint64_t> rids;
  for (int i = 0; i < 4; ++i) {
    rids.push_back(*t.Insert(
        {Datum("r"), Datum("P"), Datum("i"), Datum(int64_t{i})}));
  }
  ASSERT_TRUE(t.Delete(rids[1]).ok());
  EXPECT_EQ(t.FullScan(), (std::vector<uint64_t>{rids[0], rids[2], rids[3]}));
  EXPECT_EQ(t.num_slots(), 4u);
}

TEST(Table, StatsCountAccessPaths) {
  Table t("t", TestSchema());
  ASSERT_TRUE(t.CreateIndex({"b", {"run"}, IndexType::kBTree}).ok());
  ASSERT_TRUE(
      t.Insert({Datum("r"), Datum("P"), Datum("i"), Datum(int64_t{0})}).ok());
  const ThreadStats before = ThisThreadStats();
  (void)t.IndexLookup("b", {Datum("r")});
  (void)t.FullScan();
  EXPECT_EQ(ThisThreadStats().index_probes - before.index_probes, 1u);
  EXPECT_EQ(ThisThreadStats().full_scans - before.full_scans, 1u);
}

}  // namespace
}  // namespace provlin::storage
