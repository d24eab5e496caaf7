// Catalog + persistence behaviour, including corruption handling.

#include "storage/database.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace provlin::storage {
namespace {

Schema SmallSchema() {
  return Schema({{"k", DatumKind::kString}, {"v", DatumKind::kInt}});
}

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(Database, CreateGetDrop) {
  Database db;
  auto t = db.CreateTable("t1", SmallSchema());
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(db.GetTable("t1").ok());
  EXPECT_FALSE(db.GetTable("t2").ok());
  EXPECT_FALSE(db.CreateTable("t1", SmallSchema()).ok());
  EXPECT_TRUE(db.DropTable("t1").ok());
  EXPECT_FALSE(db.DropTable("t1").ok());
  EXPECT_FALSE(db.GetTable("t1").ok());
}

TEST(Database, TableNamesSorted) {
  Database db;
  ASSERT_TRUE(db.CreateTable("zeta", SmallSchema()).ok());
  ASSERT_TRUE(db.CreateTable("alpha", SmallSchema()).ok());
  EXPECT_EQ(db.TableNames(), (std::vector<std::string>{"alpha", "zeta"}));
}

TEST(Database, TotalRowsAggregates) {
  Database db;
  Table* a = *db.CreateTable("a", SmallSchema());
  Table* b = *db.CreateTable("b", SmallSchema());
  ASSERT_TRUE(a->Insert({Datum("x"), Datum(int64_t{1})}).ok());
  ASSERT_TRUE(b->Insert({Datum("y"), Datum(int64_t{2})}).ok());
  ASSERT_TRUE(b->Insert({Datum("z"), Datum(int64_t{3})}).ok());
  EXPECT_EQ(db.TotalRows(), 3u);
}

TEST(Database, SaveLoadRoundTripsRowsAndIndexes) {
  std::string path = TempPath("db_roundtrip.bin");
  {
    Database db;
    Table* t = *db.CreateTable("t", SmallSchema());
    ASSERT_TRUE(t->CreateIndex({"by_k", {"k"}, IndexType::kBTree}).ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(
          t->Insert({Datum("k" + std::to_string(i % 10)), Datum(int64_t{i})})
              .ok());
    }
    // Tombstoned rows must not be persisted.
    ASSERT_TRUE(t->Delete(0).ok());
    ASSERT_TRUE(db.Save(path).ok());
  }
  Database db;
  ASSERT_TRUE(db.Load(path).ok());
  Table* t = *db.GetTable("t");
  EXPECT_EQ(t->num_rows(), 99u);
  auto rids = t->IndexLookup("by_k", {Datum("k3")});
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(rids->size(), 10u);
  EXPECT_TRUE(t->CheckIndexConsistency().ok());
}

TEST(Database, PendingRowsSurviveSaveLoad) {
  std::string path = TempPath("db_pending.bin");
  {
    Database db;
    Table* t = *db.CreateTable("t", SmallSchema());
    ASSERT_TRUE(t->CreateIndex({"by_k", {"k"}, IndexType::kBTree}).ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(t->Insert({Datum("k" + std::to_string(i)), Datum(int64_t{i})})
                      .ok());
    }
    for (int i = 3; i < 8; ++i) {
      ASSERT_TRUE(t->Append({Datum("k" + std::to_string(i % 4)),
                             Datum(int64_t{i})})
                      .ok());
    }
    ASSERT_TRUE(t->has_pending());
    ASSERT_TRUE(db.Save(path).ok());
  }
  Database db;
  ASSERT_TRUE(db.Load(path).ok());
  Table* t = *db.GetTable("t");
  EXPECT_EQ(t->num_rows(), 8u);
  EXPECT_FALSE(t->has_pending());
  EXPECT_TRUE(t->CheckIndexConsistency().ok());
  // Rows come back in rid order, pending ones after the indexed ones.
  for (uint64_t rid = 0; rid < 8; ++rid) {
    EXPECT_EQ((*t->Get(rid))[1].AsInt(), static_cast<int64_t>(rid));
  }
  EXPECT_EQ(t->IndexLookup("by_k", {Datum("k3")})->size(), 2u);
  std::remove(path.c_str());
}

TEST(Database, SaveLoadPreservesNulls) {
  std::string path = TempPath("db_nulls.bin");
  {
    Database db;
    Table* t = *db.CreateTable("t", SmallSchema());
    ASSERT_TRUE(t->Insert({Datum::Null(), Datum(int64_t{1})}).ok());
    ASSERT_TRUE(db.Save(path).ok());
  }
  Database db;
  ASSERT_TRUE(db.Load(path).ok());
  auto row = (*db.GetTable("t"))->Get(0);
  ASSERT_TRUE(row.ok());
  EXPECT_TRUE((*row)[0].is_null());
  EXPECT_EQ((*row)[1].AsInt(), 1);
}

TEST(Database, LoadRejectsMissingFile) {
  Database db;
  EXPECT_FALSE(db.Load(TempPath("no_such_file.bin")).ok());
}

TEST(Database, LoadRejectsBadMagic) {
  std::string path = TempPath("db_badmagic.bin");
  std::ofstream out(path, std::ios::binary);
  out << "garbage data that is not a provlin database";
  out.close();
  Database db;
  auto st = db.Load(path);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
}

TEST(Database, LoadRejectsTruncatedFile) {
  std::string path = TempPath("db_trunc.bin");
  {
    Database db;
    Table* t = *db.CreateTable("t", SmallSchema());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(t->Insert({Datum("k"), Datum(int64_t{i})}).ok());
    }
    ASSERT_TRUE(db.Save(path).ok());
  }
  // Truncate the file to half its size.
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size() / 2));
  out.close();

  Database db;
  auto st = db.Load(path);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
}

TEST(Database, FailedLoadLeavesCatalogUntouched) {
  Database db;
  ASSERT_TRUE(db.CreateTable("keep_me", SmallSchema()).ok());
  EXPECT_FALSE(db.Load(TempPath("no_such_file2.bin")).ok());
  EXPECT_TRUE(db.GetTable("keep_me").ok());
}

}  // namespace
}  // namespace provlin::storage
