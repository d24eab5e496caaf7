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

// --- deferred indexing ------------------------------------------------------

Row PendingRow(int i) {
  return {Datum("r1"), Datum("P" + std::to_string(i % 2)),
          Datum("i" + std::to_string(i)), Datum(int64_t{i})};
}

TEST(Table, AppendedRowsAreRefusedByIndexReadsUntilIndexed) {
  Table t("t", TestSchema());
  ASSERT_TRUE(t.CreateIndex({"b", {"run", "proc"}, IndexType::kBTree}).ok());
  ASSERT_TRUE(t.CreateIndex({"h", {"run"}, IndexType::kHash}).ok());
  ASSERT_TRUE(
      t.Insert({Datum("r0"), Datum("P"), Datum("i"), Datum(int64_t{0})}).ok());
  EXPECT_FALSE(t.has_pending());
  std::vector<uint64_t> appended;
  for (int i = 0; i < 3; ++i) appended.push_back(*t.Append(PendingRow(i)));
  EXPECT_FALSE(t.Append({Datum("r1")}).ok());  // schema still checked
  EXPECT_TRUE(t.has_pending());
  EXPECT_EQ(t.pending_begin(), appended.front());
  EXPECT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.num_indexed_rows(), 1u);

  // Every index read refuses while rows are pending...
  const Key r1{Datum("r1")};
  for (const Status& st :
       {t.IndexLookup("h", r1).status(), t.IndexPrefixLookup("b", r1).status(),
        t.IndexHasPrefix("b", r1).status(),
        t.IndexRangeLookup("b", r1, {Datum("r2")}).status(),
        t.IndexMultiSeek("b", {}).status(), t.CheckIndexConsistency()}) {
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
  }
  // ...while the heap paths see pending rows as live rows.
  EXPECT_EQ(t.FullScan(), (std::vector<uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ((*t.Get(appended[1]))[3].AsInt(), 1);
  ASSERT_NE(t.PeekRow(appended[2]), nullptr);
  size_t visited = 0;
  t.ForEachLiveRow([&](uint64_t, const Row&) { ++visited; });
  EXPECT_EQ(visited, 4u);

  t.IndexPending();
  EXPECT_FALSE(t.has_pending());
  EXPECT_EQ(t.num_indexed_rows(), 4u);
  EXPECT_EQ(*t.IndexLookup("h", r1), appended);
  EXPECT_EQ(t.IndexPrefixLookup("b", r1)->size(), 3u);
  EXPECT_TRUE(*t.IndexHasPrefix("b", r1));
  EXPECT_FALSE(*t.IndexHasPrefix("b", {Datum("r9")}));
  EXPECT_TRUE(t.CheckIndexConsistency().ok());
}

TEST(Table, TakeTailReturnsTheAppendedRowsAndRestoresTheTable) {
  Table t("t", TestSchema());
  ASSERT_TRUE(t.CreateIndex({"b", {"run", "proc"}, IndexType::kBTree}).ok());
  std::vector<uint64_t> kept;
  for (int i = 0; i < 4; ++i) {
    kept.push_back(*t.Insert(
        {Datum("r0"), Datum("P"), Datum("i"), Datum(int64_t{i})}));
  }
  ASSERT_TRUE(t.Delete(kept[1]).ok());
  const size_t slots = t.num_slots();
  const size_t rows = t.num_rows();
  ASSERT_TRUE(t.CheckIndexConsistency().ok());

  std::vector<Row> appended;
  for (int i = 0; i < 5; ++i) {
    appended.push_back(PendingRow(i));
    ASSERT_TRUE(t.Append(PendingRow(i)).ok());
  }
  // Only pending rows can be taken.
  EXPECT_EQ(t.TakeTail(slots - 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t.TakeTail(t.num_slots() + 1).status().code(),
            StatusCode::kInvalidArgument);
  auto taken = t.TakeTail(t.pending_begin());
  ASSERT_TRUE(taken.ok()) << taken.status().ToString();
  EXPECT_EQ(*taken, appended);
  EXPECT_EQ(t.num_slots(), slots);
  EXPECT_EQ(t.num_rows(), rows);
  EXPECT_FALSE(t.has_pending());
  EXPECT_TRUE(t.CheckIndexConsistency().ok());
  EXPECT_EQ(t.IndexPrefixLookup("b", {Datum("r0")})->size(), 3u);
  EXPECT_TRUE(t.IndexPrefixLookup("b", {Datum("r1")})->empty());

  // A deleted pending row is skipped; a partial tail leaves the rest
  // pending.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(t.Append(PendingRow(i)).ok());
  ASSERT_TRUE(t.Delete(slots + 2).ok());
  EXPECT_EQ(t.num_indexed_rows(), rows);
  auto tail = t.TakeTail(slots + 1);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(*tail, (std::vector<Row>{PendingRow(1), PendingRow(3)}));
  EXPECT_EQ(t.num_slots(), slots + 1);
  EXPECT_EQ(t.num_rows(), rows + 1);
  EXPECT_TRUE(t.has_pending());
  t.IndexPending();
  EXPECT_TRUE(t.CheckIndexConsistency().ok());
}

TEST(Table, InsertAfterAppendIndexesThePendingRowsFirst) {
  Table t("t", TestSchema());
  ASSERT_TRUE(t.CreateIndex({"b", {"run", "proc"}, IndexType::kBTree}).ok());
  ASSERT_TRUE(t.Append(PendingRow(0)).ok());
  ASSERT_TRUE(t.Append(PendingRow(1)).ok());
  auto rid = t.Insert(PendingRow(2));
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ(*rid, 2u);
  EXPECT_FALSE(t.has_pending());
  EXPECT_EQ(t.IndexPrefixLookup("b", {Datum("r1")})->size(), 3u);
  EXPECT_TRUE(t.CheckIndexConsistency().ok());

  // CreateIndex catches pending rows up in every index, not only its own.
  ASSERT_TRUE(t.Append(PendingRow(3)).ok());
  ASSERT_TRUE(t.CreateIndex({"h", {"run"}, IndexType::kHash}).ok());
  EXPECT_EQ(t.IndexLookup("h", {Datum("r1")})->size(), 4u);
  EXPECT_EQ(t.IndexPrefixLookup("b", {Datum("r1")})->size(), 4u);
  EXPECT_TRUE(t.CheckIndexConsistency().ok());
}

}  // namespace
}  // namespace provlin::storage
