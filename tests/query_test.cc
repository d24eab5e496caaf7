// The declarative select layer: planning (index selection), access-path
// reporting, and residual filtering.

#include "storage/query.h"

#include <gtest/gtest.h>

namespace provlin::storage {
namespace {

class QueryTest : public ::testing::Test {
 protected:
  QueryTest()
      : table_("xform", Schema({{"run", DatumKind::kString},
                                {"proc", DatumKind::kString},
                                {"idx", DatumKind::kString},
                                {"val", DatumKind::kInt}})) {
    EXPECT_TRUE(table_
                    .CreateIndex({"by_proc_idx",
                                  {"run", "proc", "idx"},
                                  IndexType::kBTree})
                    .ok());
    EXPECT_TRUE(
        table_.CreateIndex({"by_val", {"run", "val"}, IndexType::kHash}).ok());
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE(table_
                      .Insert({Datum("r0"), Datum("P" + std::to_string(i % 4)),
                               Datum("0000" + std::to_string(i % 10)),
                               Datum(int64_t{i})})
                      .ok());
    }
  }

  Table table_;
};

TEST_F(QueryTest, FullEqualityUsesIndexEq) {
  SelectQuery q;
  q.equals = {{"run", Datum("r0")}, {"proc", Datum("P1")},
              {"idx", Datum("00001")}};
  auto r = ExecuteSelect(table_, q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->access_path, AccessPath::kIndexEq);
  EXPECT_EQ(r->index_used, "by_proc_idx");
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][3].AsInt(), 1);
}

TEST_F(QueryTest, LeadingEqualityUsesIndexRange) {
  SelectQuery q;
  q.equals = {{"run", Datum("r0")}, {"proc", Datum("P2")}};
  auto r = ExecuteSelect(table_, q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->access_path, AccessPath::kIndexRange);
  EXPECT_EQ(r->rows.size(), 5u);  // i = 2, 6, 10, 14, 18
}

TEST_F(QueryTest, StringPrefixTurnsIntoRangeScan) {
  SelectQuery q;
  q.equals = {{"run", Datum("r0")}, {"proc", Datum("P1")}};
  q.string_prefix = SelectQuery::StringPrefix{"idx", "0000"};
  auto r = ExecuteSelect(table_, q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->access_path, AccessPath::kIndexRange);
  EXPECT_EQ(r->rows.size(), 5u);  // all P1 rows share the 0000 prefix
}

TEST_F(QueryTest, HashIndexNeedsExactColumnSet) {
  SelectQuery q;
  q.equals = {{"run", Datum("r0")}, {"val", Datum(int64_t{7})}};
  auto r = ExecuteSelect(table_, q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->access_path, AccessPath::kIndexEq);
  EXPECT_EQ(r->index_used, "by_val");
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][3].AsInt(), 7);
}

TEST_F(QueryTest, NoUsableIndexFallsBackToFullScan) {
  SelectQuery q;
  q.equals = {{"val", Datum(int64_t{3})}};  // by_val needs run too
  auto r = ExecuteSelect(table_, q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->access_path, AccessPath::kFullScan);
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][3].AsInt(), 3);
}

TEST_F(QueryTest, ResidualPredicatesFilterIndexResults) {
  SelectQuery q;
  q.equals = {{"run", Datum("r0")},
              {"proc", Datum("P1")},
              {"val", Datum(int64_t{13})}};
  auto r = ExecuteSelect(table_, q);
  ASSERT_TRUE(r.ok());
  // Planner picks an index on (run, proc[, idx]); val filters residually.
  EXPECT_NE(r->access_path, AccessPath::kFullScan);
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][3].AsInt(), 13);
}

TEST_F(QueryTest, EmptyQueryScansEverything) {
  SelectQuery q;
  auto r = ExecuteSelect(table_, q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->access_path, AccessPath::kFullScan);
  EXPECT_EQ(r->rows.size(), 20u);
}

TEST_F(QueryTest, UnknownColumnRejected) {
  SelectQuery q;
  q.equals = {{"nope", Datum("x")}};
  EXPECT_FALSE(ExecuteSelect(table_, q).ok());
  SelectQuery q2;
  q2.string_prefix = SelectQuery::StringPrefix{"nope", "x"};
  EXPECT_FALSE(ExecuteSelect(table_, q2).ok());
}

TEST_F(QueryTest, NoMatchesIsEmptyNotError) {
  SelectQuery q;
  q.equals = {{"run", Datum("r9")}, {"proc", Datum("P1")},
              {"idx", Datum("00001")}};
  auto r = ExecuteSelect(table_, q);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());
}

TEST_F(QueryTest, AccessPathNames) {
  EXPECT_EQ(AccessPathName(AccessPath::kIndexEq), "index-eq");
  EXPECT_EQ(AccessPathName(AccessPath::kIndexRange), "index-range");
  EXPECT_EQ(AccessPathName(AccessPath::kFullScan), "full-scan");
}

// ---------------------------------------------------------------------------
// String-prefix successor: the upper bound of a prefix range scan.
// ---------------------------------------------------------------------------

TEST(StringPrefixSuccessor, BumpsLastByte) {
  EXPECT_EQ(StringPrefixSuccessor("0000"), "0001");
  EXPECT_EQ(StringPrefixSuccessor("abc"), "abd");
}

TEST(StringPrefixSuccessor, DropsTrailingMaxBytes) {
  EXPECT_EQ(StringPrefixSuccessor(std::string("a\xff", 2)), "b");
  EXPECT_EQ(StringPrefixSuccessor(std::string("ab\xff\xff", 4)), "ac");
}

TEST(StringPrefixSuccessor, NoFiniteSuccessor) {
  EXPECT_FALSE(StringPrefixSuccessor("").has_value());
  EXPECT_FALSE(StringPrefixSuccessor(std::string("\xff", 1)).has_value());
  EXPECT_FALSE(StringPrefixSuccessor(std::string("\xff\xff\xff", 3)).has_value());
}

// Regression: the old upper bound was prefix + "\xff\xff\xff\xff", which
// silently *excludes* keys extending the prefix with five or more 0xFF
// bytes. The successor bound covers every extension.
TEST_F(QueryTest, PrefixScanCoversAdversarialHighByteKeys) {
  std::string evil = "0000" + std::string(6, '\xff');
  ASSERT_TRUE(
      table_.Insert({Datum("r0"), Datum("P1"), Datum(evil), Datum(int64_t{99})})
          .ok());
  SelectQuery q;
  q.equals = {{"run", Datum("r0")}, {"proc", Datum("P1")}};
  q.string_prefix = SelectQuery::StringPrefix{"idx", "0000"};
  auto r = ExecuteSelect(table_, q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->access_path, AccessPath::kIndexRange);
  EXPECT_EQ(r->rows.size(), 6u);  // the 5 seed P1 rows plus the evil key
  bool found = false;
  for (const Row& row : r->rows) found |= row[3].AsInt() == 99;
  EXPECT_TRUE(found);
}

// An all-0xFF prefix has no finite successor; the planner must degrade
// to a bounded-by-equality scan with a residual filter, never drop rows.
TEST_F(QueryTest, UnboundablePrefixFallsBackToResidualFilter) {
  std::string all_ff(4, '\xff');
  ASSERT_TRUE(table_
                  .Insert({Datum("r0"), Datum("P1"), Datum(all_ff + "tail"),
                           Datum(int64_t{123})})
                  .ok());
  SelectQuery q;
  q.equals = {{"run", Datum("r0")}, {"proc", Datum("P1")}};
  q.string_prefix = SelectQuery::StringPrefix{"idx", all_ff};
  auto r = ExecuteSelect(table_, q);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][3].AsInt(), 123);
}

// ---------------------------------------------------------------------------
// Zero-copy mode and batched execution.
// ---------------------------------------------------------------------------

TEST_F(QueryTest, ZeroCopyReturnsBorrowedRows) {
  SelectQuery q;
  q.equals = {{"run", Datum("r0")}, {"proc", Datum("P1")},
              {"idx", Datum("00001")}};
  SelectOptions opts;
  opts.zero_copy = true;
  auto r = ExecuteSelect(table_, q, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->zero_copy);
  EXPECT_TRUE(r->rows.empty());
  ASSERT_EQ(r->num_rows(), 1u);
  ASSERT_EQ(r->rids.size(), 1u);
  ASSERT_EQ(r->row_ptrs.size(), 1u);
  RowView view = r->ViewAt(0);
  ASSERT_TRUE(view.valid());
  EXPECT_EQ(view[3].AsInt(), 1);
  EXPECT_EQ(view.size(), 4u);
  // The borrowed pointer is the table's own row.
  const Row* peek = table_.PeekRow(r->rids[0]);
  EXPECT_EQ(r->row_ptrs[0], peek);
}

TEST_F(QueryTest, MultiSelectAnswersEachQueryIdentically) {
  std::vector<SelectQuery> queries;
  for (int p = 0; p < 4; ++p) {
    SelectQuery q;
    q.equals = {{"run", Datum("r0")}, {"proc", Datum("P" + std::to_string(p))}};
    queries.push_back(q);
  }
  // Mix in a different shape (full scan) and a prefix shape.
  queries.push_back({});
  {
    SelectQuery q;
    q.equals = {{"run", Datum("r0")}, {"proc", Datum("P1")}};
    q.string_prefix = SelectQuery::StringPrefix{"idx", "0000"};
    queries.push_back(q);
  }
  auto batched = ExecuteMultiSelect(table_, queries);
  ASSERT_TRUE(batched.ok());
  ASSERT_EQ(batched->size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto single = ExecuteSelect(table_, queries[i]);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ((*batched)[i].rows, single->rows) << i;
    EXPECT_EQ((*batched)[i].access_path, single->access_path) << i;
    EXPECT_EQ((*batched)[i].index_used, single->index_used) << i;
  }
}

TEST_F(QueryTest, MultiSelectAmortizesDescents) {
  const ThreadStats before = ThisThreadStats();
  std::vector<SelectQuery> queries;
  for (int i = 0; i < 10; ++i) {
    SelectQuery q;
    q.equals = {{"run", Datum("r0")},
                {"proc", Datum("P" + std::to_string(i % 4))},
                {"idx", Datum("0000" + std::to_string(i))}};
    queries.push_back(q);
  }
  auto r = ExecuteMultiSelect(table_, queries);
  ASSERT_TRUE(r.ok());
  const ThreadStats& after = ThisThreadStats();
  // Logical probe accounting is untouched by batching...
  EXPECT_EQ(after.index_probes - before.index_probes, 10u);
  EXPECT_EQ(after.batched_probes - before.batched_probes, 10u);
  // ...but the whole sorted batch descends far fewer than 10 times.
  EXPECT_LT(after.descents - before.descents, 10u);
  EXPECT_GE(after.descents - before.descents, 1u);
}

}  // namespace
}  // namespace provlin::storage
