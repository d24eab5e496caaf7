// Trace maintenance: pruning runs, run metadata.

#include <gtest/gtest.h>

#include "testbed/synthetic.h"
#include "testbed/workbench.h"

namespace provlin::provenance {
namespace {

using testbed::Workbench;

class TraceMaintenanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wb_ = std::move(*Workbench::Synthetic(3));
    ASSERT_TRUE(wb_->RunSynthetic(3, "keep").ok());
    ASSERT_TRUE(wb_->RunSynthetic(4, "prune").ok());
  }
  std::unique_ptr<Workbench> wb_;
};

TEST_F(TraceMaintenanceTest, RunWorkflowMetadata) {
  EXPECT_EQ(*wb_->store()->RunWorkflow("keep"), "synthetic_l3");
  EXPECT_FALSE(wb_->store()->RunWorkflow("ghost").ok());
}

TEST_F(TraceMaintenanceTest, DeleteRunRemovesAllItsRows) {
  auto before_all = *wb_->store()->CountAllRecords();
  auto prune_counts = *wb_->store()->CountRecords("prune");

  auto removed = wb_->store()->DeleteRun("prune");
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  // Dependency rows + value rows + the runs row itself.
  EXPECT_EQ(*removed, prune_counts.TotalDependencyRecords() +
                          prune_counts.value_rows + 1);

  EXPECT_EQ(*wb_->store()->ListRuns(), (std::vector<std::string>{"keep"}));
  auto after_all = *wb_->store()->CountAllRecords();
  EXPECT_EQ(after_all.TotalDependencyRecords() + after_all.value_rows,
            before_all.TotalDependencyRecords() + before_all.value_rows -
                (*removed - 1));
  // The pruned run's rows are gone from probes too.
  auto rows = *wb_->store()->FindProducing("prune", "CHAINA_1", "y", Index());
  EXPECT_TRUE(rows.empty());
  // The surviving run is untouched.
  auto kept = *wb_->store()->FindProducing("keep", "CHAINA_1", "y", Index());
  EXPECT_EQ(kept.size(), 3u);
}

TEST_F(TraceMaintenanceTest, DeleteRunMaintainsIndexConsistency) {
  // Under a sealing mode a shard's latest run may still be unindexed
  // (DESIGN.md §13), which the check reports; a read indexes it, so what
  // is checked below is what DeleteRun itself left behind.
  ASSERT_TRUE(wb_->store()->CountAllRecords().ok());
  ASSERT_TRUE(wb_->store()->DeleteRun("prune").ok());
  for (const std::string& name : wb_->db()->TableNames()) {
    EXPECT_TRUE((*wb_->db()->GetTable(name))->CheckIndexConsistency().ok())
        << name;
  }
}

TEST_F(TraceMaintenanceTest, DeleteUnknownRunFails) {
  auto removed = wb_->store()->DeleteRun("ghost");
  EXPECT_FALSE(removed.ok());
  EXPECT_EQ(removed.status().code(), StatusCode::kNotFound);
}

TEST_F(TraceMaintenanceTest, RunIdIsReusableAfterDelete) {
  ASSERT_TRUE(wb_->store()->DeleteRun("prune").ok());
  ASSERT_TRUE(wb_->RunSynthetic(5, "prune").ok());
  auto rows = *wb_->store()->FindProducing("prune", "CHAINA_1", "y", Index());
  EXPECT_EQ(rows.size(), 5u);
  // Lineage over the re-recorded run works end to end.
  auto answer = wb_->IndexProj()->Query(lineage::LineageRequest::SingleRun("prune", {workflow::kWorkflowProcessor, "RESULT"}, Index({0, 0}),
      {testbed::kListGen}));
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ASSERT_EQ(answer->bindings.size(), 1u);
  EXPECT_EQ(answer->bindings[0].value_repr, "5");
}

}  // namespace
}  // namespace provlin::provenance
