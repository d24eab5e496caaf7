// Write-ahead log: framing, CRC protection, torn-write recovery, and
// end-to-end crash-safe provenance capture.

#include "storage/wal.h"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <set>
#include <thread>

#include "lineage/naive_lineage.h"
#include "provenance/schema.h"
#include "provenance/trace_store.h"
#include "testbed/synthetic.h"
#include "testbed/workbench.h"

namespace provlin::storage {
namespace {

std::string TempPath(const char* name) {
  std::string path = std::string(::testing::TempDir()) + "/" + name;
  std::remove(path.c_str());
  return path;
}

TEST(Crc32, KnownVectors) {
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);  // standard check value
  EXPECT_NE(Crc32("abc"), Crc32("abd"));
}

TEST(Wal, AppendAndReplay) {
  std::string path = TempPath("wal_basic.log");
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append("first").ok());
    ASSERT_TRUE(wal->Append("").ok());  // empty payloads are legal
    ASSERT_TRUE(wal->Append("third record").ok());
    EXPECT_EQ(wal->records_appended(), 3u);
  }
  auto records = WriteAheadLog::Replay(path);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(*records,
            (std::vector<std::string>{"first", "", "third record"}));
}

TEST(Wal, AppendIsDurableAcrossReopen) {
  std::string path = TempPath("wal_reopen.log");
  {
    auto wal = *WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.Append("one").ok());
  }
  {
    auto wal = *WriteAheadLog::Open(path);  // append mode
    ASSERT_TRUE(wal.Append("two").ok());
  }
  auto records = *WriteAheadLog::Replay(path);
  EXPECT_EQ(records, (std::vector<std::string>{"one", "two"}));
}

TEST(Wal, TornTailRecordIsDropped) {
  std::string path = TempPath("wal_torn.log");
  {
    auto wal = *WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.Append("intact").ok());
    ASSERT_TRUE(wal.Append("to be torn").ok());
  }
  // Simulate a crash mid-append: cut the last 4 bytes.
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size() - 4));
  out.close();

  auto records = *WriteAheadLog::Replay(path);
  EXPECT_EQ(records, (std::vector<std::string>{"intact"}));
}

TEST(Wal, CorruptPayloadIsRejectedByCrc) {
  std::string path = TempPath("wal_corrupt.log");
  {
    auto wal = *WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.Append("good one").ok());
    ASSERT_TRUE(wal.Append("bad one!").ok());
  }
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  // Flip a byte inside the second payload.
  f.seekp(-3, std::ios::end);
  f.put('X');
  f.close();

  auto records = *WriteAheadLog::Replay(path);
  EXPECT_EQ(records, (std::vector<std::string>{"good one"}));
}

TEST(Wal, ReplayMissingFileFails) {
  EXPECT_FALSE(WriteAheadLog::Replay(TempPath("wal_missing.log")).ok());
}

/// Base + every per-shard file + manifest for a fresh test.
std::string TempWalBase(const char* name, size_t max_shards = 8) {
  std::string base = TempPath(name);
  for (size_t k = 1; k < max_shards; ++k) {
    std::remove(ShardWalPath(base, k).c_str());
  }
  std::remove(WalManifestPath(base).c_str());
  return base;
}

size_t FileSize(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  return f.good() ? static_cast<size_t>(f.tellg()) : 0;
}

/// A one-shard store, so AttachWalFiles(base) writes the single log
/// file at `base` itself.
provenance::TraceStoreOptions OneShard() {
  provenance::TraceStoreOptions options;
  options.shards = 1;
  return options;
}

TEST(WalDurability, CrashedCaptureSessionIsRecoverable) {
  std::string path = TempWalBase("wal_capture.log");

  // Capture a synthetic run with the WAL attached, then "crash": throw
  // the in-memory database away and rebuild everything from the log.
  {
    auto wb = std::move(*testbed::Workbench::Synthetic(3, OneShard()));
    ASSERT_TRUE(wb->store()->AttachWalFiles(path).ok());
    ASSERT_TRUE(wb->RunSynthetic(4, "r0").ok());
    EXPECT_GT(FileSize(path), 0u);
  }  // workbench (and its database) destroyed here

  Database recovered;
  auto applied = provenance::TraceStore::ReplayWal(path, &recovered);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_GT(*applied, 0u);

  // The recovered trace answers the same lineage queries.
  auto store = *provenance::TraceStore::Open(&recovered);
  lineage::NaiveLineage naive(&store);
  auto answer = naive.Query(lineage::LineageRequest::SingleRun("r0", {workflow::kWorkflowProcessor, "RESULT"}, Index({1, 2}),
      {testbed::kListGen}));
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ASSERT_EQ(answer->bindings.size(), 1u);
  EXPECT_EQ(answer->bindings[0].value_repr, "4");

  // And the recovered row counts match a clean capture of the same run.
  auto wb2 = std::move(*testbed::Workbench::Synthetic(3));
  ASSERT_TRUE(wb2->RunSynthetic(4, "r0").ok());
  auto clean = *wb2->store()->CountRecords("r0");
  auto replayed = *store.CountRecords("r0");
  EXPECT_EQ(replayed.xform_rows, clean.xform_rows);
  EXPECT_EQ(replayed.xfer_rows, clean.xfer_rows);
  EXPECT_EQ(replayed.value_rows, clean.value_rows);
}

TEST(WalDurability, TornCaptureKeepsCommittedPrefix) {
  std::string path = TempWalBase("wal_capture_torn.log");
  {
    auto wb = std::move(*testbed::Workbench::Synthetic(2, OneShard()));
    ASSERT_TRUE(wb->store()->AttachWalFiles(path).ok());
    ASSERT_TRUE(wb->RunSynthetic(3, "r0").ok());
  }
  // Tear the file mid-way.
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size() / 2));
  out.close();

  Database recovered;
  auto applied = provenance::TraceStore::ReplayWal(path, &recovered);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_GT(*applied, 0u);  // a committed prefix survives
  // The recovered tables are internally consistent.
  for (const std::string& name : recovered.TableNames()) {
    EXPECT_TRUE((*recovered.GetTable(name))->CheckIndexConsistency().ok());
  }
}

// ---------------------------------------------------------------------------
// Sharded WAL layout (DESIGN.md §11): per-shard files + manifest,
// replay-merge, DeleteRun replay-skip confined to the owning shard's
// log, and recovery after a real SIGKILL mid-ingest.
// ---------------------------------------------------------------------------

TEST(ShardedWal, PerShardFilesReplayIntoOneDatabase) {
  std::string base = TempWalBase("wal_sharded.log");
  constexpr size_t kShards = 4;
  std::vector<std::string> runs;
  for (int r = 0; r < 8; ++r) runs.push_back("sw" + std::to_string(r));

  {
    provenance::TraceStoreOptions options;
    options.shards = kShards;
    auto wb = std::move(*testbed::Workbench::Synthetic(3, options));
    ASSERT_TRUE(wb->store()->AttachWalFiles(base).ok());
    for (const std::string& run : runs) {
      ASSERT_TRUE(wb->RunSynthetic(3, run).ok()) << run;
    }
    // Every shard that owns a run logged to its own file; the manifest
    // records the count.
    std::set<size_t> owners;
    for (const std::string& run : runs) {
      owners.insert(wb->store()->ShardOfRun(run));
    }
    ASSERT_GE(owners.size(), 2u) << "test ids all hash alike; pick others";
    for (size_t k : owners) {
      std::string path = k == 0 ? base : ShardWalPath(base, k);
      EXPECT_GT(FileSize(path), 0u) << "shard " << k;
    }
    auto manifest = ReadWalManifest(base);
    ASSERT_TRUE(manifest.ok());
    EXPECT_EQ(*manifest, kShards);
  }  // crash: the in-memory database dies with the workbench

  Database recovered;
  auto applied = provenance::TraceStore::ReplayWal(base, &recovered);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_GT(*applied, 0u);
  auto store = *provenance::TraceStore::Open(&recovered);
  EXPECT_EQ(store.shard_count(), kShards);
  EXPECT_EQ(store.ListRuns()->size(), runs.size());

  // The recovered trace answers lineage identically to a clean capture.
  auto clean_wb = std::move(*testbed::Workbench::Synthetic(3));
  ASSERT_TRUE(clean_wb->RunSynthetic(3, runs[0]).ok());
  auto want = clean_wb->Naive().Query(lineage::LineageRequest::SingleRun(runs[0], {workflow::kWorkflowProcessor, "RESULT"}, Index({1}),
      {testbed::kListGen}));
  ASSERT_TRUE(want.ok());
  lineage::NaiveLineage naive(&store);
  for (const std::string& run : runs) {
    auto got = naive.Query(lineage::LineageRequest::SingleRun(run, {workflow::kWorkflowProcessor, "RESULT"},
                           Index({1}), {testbed::kListGen}));
    ASSERT_TRUE(got.ok()) << run;
    ASSERT_EQ(got->bindings.size(), want->bindings.size()) << run;
    for (size_t i = 0; i < want->bindings.size(); ++i) {
      EXPECT_EQ(got->bindings[i].value_repr, want->bindings[i].value_repr);
    }
  }

  // Replaying into an explicitly different shard count reshards on the
  // fly — the logical trace is unchanged.
  Database resharded;
  ASSERT_TRUE(
      provenance::TraceStore::ReplayWal(base, &resharded, 2).ok());
  auto store2 = *provenance::TraceStore::Open(&resharded);
  EXPECT_EQ(store2.shard_count(), 2u);
  EXPECT_EQ(store2.ListRuns()->size(), runs.size());
  auto counts4 = *store.CountAllRecords();
  auto counts2 = *store2.CountAllRecords();
  EXPECT_EQ(counts2.xform_rows, counts4.xform_rows);
  EXPECT_EQ(counts2.xfer_rows, counts4.xfer_rows);
  EXPECT_EQ(counts2.value_rows, counts4.value_rows);
}

TEST(ShardedWal, DeleteRunLogsOnlyToOwningShardAndReplaySkips) {
  std::string base = TempWalBase("wal_sharded_delete.log");
  provenance::TraceStoreOptions options;
  options.shards = 4;

  std::vector<std::string> runs = {"del0", "del1", "del2", "del3", "del4"};
  size_t victim_shard = 0;
  std::vector<size_t> sizes_before(4, 0);
  {
    auto wb = std::move(*testbed::Workbench::Synthetic(2, options));
    ASSERT_TRUE(wb->store()->AttachWalFiles(base).ok());
    for (const std::string& run : runs) {
      ASSERT_TRUE(wb->RunSynthetic(2, run).ok());
    }
    victim_shard = wb->store()->ShardOfRun("del2");
    for (size_t k = 0; k < 4; ++k) {
      sizes_before[k] = FileSize(k == 0 ? base : ShardWalPath(base, k));
    }
    ASSERT_TRUE(wb->store()->DeleteRun("del2").ok());
    // The deletion record landed in the owning shard's log only.
    for (size_t k = 0; k < 4; ++k) {
      size_t now = FileSize(k == 0 ? base : ShardWalPath(base, k));
      if (k == victim_shard) {
        EXPECT_GT(now, sizes_before[k]) << "owner shard " << k;
      } else {
        EXPECT_EQ(now, sizes_before[k]) << "bystander shard " << k;
      }
    }
  }

  Database recovered;
  ASSERT_TRUE(provenance::TraceStore::ReplayWal(base, &recovered).ok());
  auto store = *provenance::TraceStore::Open(&recovered);
  auto listed = *store.ListRuns();
  EXPECT_EQ(listed.size(), runs.size() - 1);
  for (const std::string& run : listed) EXPECT_NE(run, "del2");
  // The deleted run's rows are gone, the survivors' rows are intact.
  EXPECT_FALSE(store.RunWorkflow("del2").ok());
  for (const char* run : {"del0", "del1", "del3", "del4"}) {
    EXPECT_GT(store.CountRecords(run)->TotalDependencyRecords(), 0u) << run;
  }
}

TEST(ShardedWalCrash, SigkillMidIngestKeepsCommittedPrefix) {
  std::string base = TempWalBase("wal_sharded_kill.log");
  constexpr size_t kShards = 4;

  pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    // Child: a 4-shard store with async writer threads and per-shard
    // WALs, ingesting xform rows across many runs until killed. Exit
    // codes mark setup failures; the parent SIGKILLs us mid-loop.
    Database db;
    provenance::TraceStoreOptions options;
    options.shards = kShards;
    options.async_ingest = true;
    auto store = provenance::TraceStore::Open(&db, options);
    if (!store.ok()) _exit(2);
    if (!store->AttachWalFiles(base).ok()) _exit(3);
    for (int64_t i = 0;; ++i) {
      provenance::XformRecord rec;
      rec.run = store->Intern("kill" + std::to_string(i % 16));
      rec.event_id = i;
      rec.processor = store->Intern("P" + std::to_string(i % 3));
      rec.has_out = true;
      rec.out_port = store->Intern("y");
      rec.out_index = Index({static_cast<int32_t>(i % 5)});
      rec.out_value = i;
      if (!store->InsertXform(rec).ok()) _exit(4);
    }
  }

  // Parent: wait for every shard the child's run ids hash to (all 4 of
  // kill0..kill15, checked below) to have durable records, then kill.
  std::set<size_t> owners;
  for (int i = 0; i < 16; ++i) {
    owners.insert(provenance::RunShardHash("kill" + std::to_string(i)) %
                  kShards);
  }
  auto covered = [&] {
    for (size_t k : owners) {
      if (FileSize(k == 0 ? base : ShardWalPath(base, k)) == 0) return false;
    }
    return true;
  };
  // Cross-process: the only observable signal is the child's WAL files
  // growing on disk, so polling is the synchronization.
  for (int spins = 0; !covered() && spins < 2000; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));  // lint: allow(sleep)
  }
  EXPECT_TRUE(covered()) << "child never populated every shard WAL";
  kill(pid, SIGKILL);
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus)) << "child exited on its own: setup "
                                    << "failure code "
                                    << (WIFEXITED(wstatus)
                                            ? WEXITSTATUS(wstatus)
                                            : -1);

  // Recovery: every shard file replays its committed prefix (torn tail
  // records are dropped per file), the merged database is internally
  // consistent, and the recorded rows are queryable.
  Database recovered;
  auto applied = provenance::TraceStore::ReplayWal(base, &recovered);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_GT(*applied, 0u);
  for (const std::string& name : recovered.TableNames()) {
    EXPECT_TRUE((*recovered.GetTable(name))->CheckIndexConsistency().ok())
        << name;
  }
  auto store = *provenance::TraceStore::Open(&recovered);
  EXPECT_EQ(store.shard_count(), kShards);
  auto counts = *store.CountAllRecords();
  EXPECT_GT(counts.xform_rows, 0u);
}

}  // namespace
}  // namespace provlin::storage
