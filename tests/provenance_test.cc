// Trace capture: recorder semantics, trace-store probes, record counts.

#include <gtest/gtest.h>

#include "provenance/recorder.h"
#include "provenance/schema.h"
#include "storage/query.h"
#include "testbed/workbench.h"

namespace provlin::provenance {
namespace {

using storage::Datum;
using testbed::Workbench;

TEST(Schema, CreatesAllTablesAndIndexes) {
  storage::Database db;
  ASSERT_TRUE(CreateProvenanceSchema(&db).ok());
  EXPECT_EQ(db.TableNames(),
            (std::vector<std::string>{"runs", "val", "xfer", "xform"}));
  EXPECT_TRUE((*db.GetTable(tables::kXform))->HasIndex(indexes::kXformOut));
  EXPECT_TRUE((*db.GetTable(tables::kXform))->HasIndex(indexes::kXformIn));
  EXPECT_TRUE((*db.GetTable(tables::kXfer))->HasIndex(indexes::kXferDst));
  EXPECT_TRUE((*db.GetTable(tables::kVal))->HasIndex(indexes::kValById));
}

TEST(TraceStore, OpenIsIdempotent) {
  storage::Database db;
  ASSERT_TRUE(TraceStore::Open(&db).ok());
  ASSERT_TRUE(TraceStore::Open(&db).ok());  // schema already present
}

TEST(TraceStore, RunRegistrationRejectsDuplicates) {
  storage::Database db;
  auto store = *TraceStore::Open(&db);
  ASSERT_TRUE(store.InsertRun("r1", "wf").ok());
  EXPECT_FALSE(store.InsertRun("r1", "wf").ok());
  ASSERT_TRUE(store.InsertRun("r2", "wf").ok());
  EXPECT_EQ(*store.ListRuns(), (std::vector<std::string>{"r1", "r2"}));
}

TEST(TraceStore, ValueInterningDedups) {
  storage::Database db;
  auto store = *TraceStore::Open(&db);
  int64_t a = *store.InternValue("r1", "\"x\"");
  int64_t b = *store.InternValue("r1", "\"x\"");
  int64_t c = *store.InternValue("r1", "\"y\"");
  int64_t d = *store.InternValue("r2", "\"x\"");  // separate run namespace
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(d, 0);  // ids restart per run
  EXPECT_EQ(*store.GetValueRepr("r1", a), "\"x\"");
  EXPECT_EQ(*store.GetValue("r1", c), Value::Str("y"));
  EXPECT_FALSE(store.GetValueRepr("r1", 99).ok());
}

TEST(Recorder, CapturesSyntheticRunFaithfully) {
  auto wb = std::move(*Workbench::Synthetic(2));
  ASSERT_TRUE((*wb).RunSynthetic(3, "r0").ok());
  TraceStore* store = (*wb).store();

  // LISTGEN_1 ran once, coarse.
  auto gen = *store->FindProducing("r0", "LISTGEN_1", "list", Index());
  ASSERT_EQ(gen.size(), 1u);
  EXPECT_EQ(gen[0].out_index, Index());
  EXPECT_EQ(*store->GetValue("r0", gen[0].out_value),
            Value::StringList({"e0", "e1", "e2"}));

  // CHAINA_1 ran 3 times, fine-grained.
  auto chain = *store->FindProducing("r0", "CHAINA_1", "y", Index());
  EXPECT_EQ(chain.size(), 3u);

  // Final cross product: 3x3 events, 2 dependency rows each.
  auto fin =
      *store->FindProducing("r0", "TWO_TO_ONE_FINAL", "Y", Index());
  EXPECT_EQ(fin.size(), 18u);

  // Workflow-input source row exists with NULL in-side.
  auto src = *store->FindProducing("r0", "workflow", "ListSize", Index());
  ASSERT_EQ(src.size(), 1u);
  EXPECT_FALSE(src[0].has_in);
  EXPECT_TRUE(src[0].has_out);
}

TEST(Recorder, FineGrainedProbeFindsExactElement) {
  auto wb = std::move(*Workbench::Synthetic(2));
  ASSERT_TRUE((*wb).RunSynthetic(4, "r0").ok());
  auto rows =
      *(*wb).store()->FindProducing("r0", "CHAINA_2", "y", Index({2}));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].out_index, Index({2}));
  EXPECT_EQ(rows[0].in_index, Index({2}));
}

TEST(Recorder, OverlapProbeFindsCoarserAndFinerBindings) {
  auto wb = std::move(*Workbench::Synthetic(1));
  ASSERT_TRUE((*wb).RunSynthetic(2, "r0").ok());
  TraceStore* store = (*wb).store();

  // LISTGEN out is coarse []; a fine query [1] must still find it.
  auto coarse = *store->FindProducing("r0", "LISTGEN_1", "list", Index({1}));
  ASSERT_EQ(coarse.size(), 1u);
  EXPECT_EQ(coarse[0].out_index, Index());

  // CHAINA_1 out is fine; the whole-value query [] must find all rows.
  auto fine = *store->FindProducing("r0", "CHAINA_1", "y", Index());
  EXPECT_EQ(fine.size(), 2u);
}

TEST(Recorder, XferRowsRecordArcsAtProducerGranularity) {
  auto wb = std::move(*Workbench::Synthetic(2));
  ASSERT_TRUE((*wb).RunSynthetic(3, "r0").ok());
  TraceStore* store = (*wb).store();

  // Into CHAINA_2:x — producer CHAINA_1 is fine-grained: 3 rows.
  auto fine = *store->FindXfersInto("r0", "CHAINA_2", "x", Index());
  EXPECT_EQ(fine.size(), 3u);
  for (const auto& row : fine) {
    EXPECT_EQ(store->NameOf(row.src_proc), "CHAINA_1");
    EXPECT_EQ(row.src_index, row.dst_index);
  }

  // Into CHAINA_1:x — producer LISTGEN_1 is coarse: 1 row.
  auto coarse = *store->FindXfersInto("r0", "CHAINA_1", "x", Index({1}));
  ASSERT_EQ(coarse.size(), 1u);
  EXPECT_EQ(coarse[0].dst_index, Index());

  // Into the workflow output — coarse by the boundary rule.
  auto out = *store->FindXfersInto("r0", "workflow", "RESULT", Index({0, 0}));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(store->NameOf(out[0].src_proc), "TWO_TO_ONE_FINAL");
}

TEST(Recorder, CountsMatchClosedForm) {
  // Our recorder's record count is 4*d*l + 2*d^2 + 6 (DESIGN.md §5).
  for (auto [l, d] : {std::pair{3, 4}, std::pair{5, 2}, std::pair{10, 10}}) {
    auto wb = std::move(*Workbench::Synthetic(l));
    ASSERT_TRUE((*wb).RunSynthetic(d, "r0").ok());
    auto counts = *(*wb).store()->CountRecords("r0");
    EXPECT_EQ(counts.TotalDependencyRecords(),
              static_cast<size_t>(4 * d * l + 2 * d * d + 6))
        << "l=" << l << " d=" << d;
  }
}

TEST(Recorder, MultipleRunsShareTheStore) {
  auto wb = std::move(*Workbench::Synthetic(2));
  ASSERT_TRUE((*wb).RunSynthetic(2, "r0").ok());
  ASSERT_TRUE((*wb).RunSynthetic(3, "r1").ok());
  EXPECT_EQ(*(*wb).store()->ListRuns(),
            (std::vector<std::string>{"r0", "r1"}));
  auto c0 = *(*wb).store()->CountRecords("r0");
  auto c1 = *(*wb).store()->CountRecords("r1");
  auto all = *(*wb).store()->CountAllRecords();
  EXPECT_EQ(all.TotalDependencyRecords(),
            c0.TotalDependencyRecords() + c1.TotalDependencyRecords());
  // Probes scoped by run id never see the other run.
  auto rows = *(*wb).store()->FindProducing("r0", "CHAINA_1", "y", Index());
  EXPECT_EQ(rows.size(), 2u);
}

TEST(Recorder, DuplicateRunIdSurfacesAsError) {
  auto wb = std::move(*Workbench::Synthetic(1));
  ASSERT_TRUE((*wb).RunSynthetic(2, "r0").ok());
  auto second = (*wb).RunSynthetic(2, "r0");
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kAlreadyExists);
}

TEST(TraceStore, ProbesNeverFullScan) {
  // The paper's performance argument requires every trace query to be an
  // index access ("none requiring full table scans").
  auto wb = std::move(*Workbench::Synthetic(3));
  ASSERT_TRUE((*wb).RunSynthetic(4, "r0").ok());
  TraceStore* store = (*wb).store();
  const storage::ThreadStats before = storage::ThisThreadStats();
  ASSERT_TRUE(
      store->FindProducing("r0", "CHAINA_2", "y", Index({1})).ok());
  ASSERT_TRUE(store->FindConsuming("r0", "CHAINA_2", "x", Index({1})).ok());
  ASSERT_TRUE(store->FindXfersInto("r0", "CHAINA_2", "x", Index({1})).ok());
  const storage::ThreadStats& after = storage::ThisThreadStats();
  EXPECT_GT(after.index_probes - before.index_probes, 0u);
  EXPECT_EQ(after.full_scans - before.full_scans, 0u);
}

}  // namespace
}  // namespace provlin::provenance
