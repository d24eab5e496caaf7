// Ingest throughput across run shards: producer threads stream
// pre-built xform rows into a TraceStore at 1/2/4/8 shards with async
// per-shard writer threads (DESIGN.md §11), against the synchronous
// unsharded legacy path. Every configuration ingests the identical row
// stream, so the BENCH JSON "probes" column carries the deterministic
// total row count — the baseline check proves no configuration drops
// rows. Wall time is the measurement: with one shard every B+-tree
// insert serializes on one writer; with N shards the writers apply in
// parallel and throughput should scale until insert cost stops
// dominating.
//
// One more configuration measures sealed capture (DESIGN.md §13): one
// producer writes the runs one at a time, synchronously, into a
// 4-shard --compress seal store, opening each run with InsertRun just
// before its rows as the recorder does. Each run is appended unindexed
// and sealed straight from the table tail when the next run on its
// shard opens.

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "provenance/store_open.h"
#include "provenance/trace_store.h"

int main() {
  using namespace provlin;
  using bench::CheckResult;
  using provenance::TraceStore;
  using provenance::XformRecord;

  constexpr size_t kProducers = 4;
  constexpr size_t kRunsTotal = 64;
  constexpr int kRowsPerRun = 2000;
  constexpr int kReps = 3;  // best-of over fresh stores
  const uint64_t kTotalRows =
      static_cast<uint64_t>(kRunsTotal) * kRowsPerRun;

  unsigned cores = std::thread::hardware_concurrency();
  std::printf(
      "Trace ingest throughput (%zu runs x %d rows, %zu producer "
      "threads, best of %d)\nhardware threads: %u%s\n\n",
      kRunsTotal, kRowsPerRun, kProducers, kReps, cores,
      cores <= 1 ? "  (single-core host: expect speedup ~1.0x)" : "");

  // One timed ingest into a fresh store: rows are built (and symbols
  // interned) outside the timer, producers split the runs round-robin,
  // and the clock stops after Flush() — every row applied, not merely
  // enqueued.
  auto ingest_once = [&](size_t shards, bool async,
                         bool seal) -> Result<double> {
    provenance::StoreOptions options;  // empty db_path = in-memory
    options.shards = shards;
    options.async_ingest = async;
    if (seal) options.compress = provenance::CompressMode::kSeal;
    PROVLIN_ASSIGN_OR_RETURN(provenance::OpenedStore opened,
                             provenance::OpenStore(options));
    TraceStore& store = opened.store();

    std::vector<std::vector<XformRecord>> streams(kRunsTotal);
    std::vector<std::string> run_ids(kRunsTotal);
    const common::SymbolId port_x = store.Intern("x");
    const common::SymbolId port_y = store.Intern("y");
    std::vector<common::SymbolId> procs;
    for (int p = 0; p < 8; ++p) {
      procs.push_back(store.Intern("P" + std::to_string(p)));
    }
    for (size_t r = 0; r < kRunsTotal; ++r) {
      run_ids[r] = "ingest" + std::to_string(r);
      const common::SymbolId run = store.Intern(run_ids[r]);
      streams[r].reserve(kRowsPerRun);
      for (int i = 0; i < kRowsPerRun; ++i) {
        XformRecord rec;
        rec.run = run;
        rec.event_id = i;
        rec.processor = procs[static_cast<size_t>(i) % procs.size()];
        rec.has_in = true;
        rec.in_port = port_x;
        rec.in_index = Index({static_cast<int32_t>(i % 50)});
        rec.in_value = i;
        rec.has_out = true;
        rec.out_port = port_y;
        rec.out_index =
            Index({static_cast<int32_t>(i % 50), static_cast<int32_t>(i % 3)});
        rec.out_value = i;
        streams[r].push_back(std::move(rec));
      }
    }

    // Takes the elapsed time, then checks outside the timed span that
    // every row landed.
    auto verified = [&](double ms) -> Result<double> {
      PROVLIN_ASSIGN_OR_RETURN(provenance::TraceCounts counts,
                               store.CountAllRecords());
      if (counts.xform_rows != kTotalRows) {
        return Status::Internal("ingest dropped rows: " +
                                std::to_string(counts.xform_rows) + " of " +
                                std::to_string(kTotalRows));
      }
      return ms;
    };

    WallTimer timer;
    if (seal) {
      for (size_t r = 0; r < kRunsTotal; ++r) {
        PROVLIN_RETURN_IF_ERROR(store.InsertRun(run_ids[r], "bench"));
        for (const XformRecord& rec : streams[r]) {
          PROVLIN_RETURN_IF_ERROR(store.InsertXform(rec));
        }
      }
      PROVLIN_RETURN_IF_ERROR(store.Flush());
      return verified(timer.ElapsedMillis());
    }
    for (size_t r = 0; r < kRunsTotal; ++r) {
      PROVLIN_RETURN_IF_ERROR(store.InsertRun(run_ids[r], "bench"));
    }
    std::vector<std::thread> producers;
    std::vector<Status> outcomes(kProducers);
    for (size_t t = 0; t < kProducers; ++t) {
      producers.emplace_back([&, t] {
        for (size_t r = t; r < kRunsTotal; r += kProducers) {
          for (const XformRecord& rec : streams[r]) {
            Status st = store.InsertXform(rec);
            if (!st.ok()) {
              outcomes[t] = st;
              return;
            }
          }
        }
      });
    }
    for (std::thread& t : producers) t.join();
    for (const Status& st : outcomes) PROVLIN_RETURN_IF_ERROR(st);
    PROVLIN_RETURN_IF_ERROR(store.Flush());
    return verified(timer.ElapsedMillis());
  };

  auto best_of = [&](size_t shards, bool async, bool seal = false) -> double {
    double best = -1.0;
    for (int i = 0; i < kReps; ++i) {
      double ms = CheckResult(ingest_once(shards, async, seal), "ingest");
      if (best < 0 || ms < best) best = ms;
    }
    return best;
  };

  bench::TablePrinter table(
      {"mode", "shards", "best_ms", "rows_per_s", "speedup"});
  bench::JsonWriter json("ingest");
  auto row = [&](const char* mode, size_t shards, double ms, double base_ms) {
    char rate[32], speedup[32];
    std::snprintf(rate, sizeof(rate), "%.0f",
                  static_cast<double>(kTotalRows) / (ms / 1000.0));
    std::snprintf(speedup, sizeof(speedup), "%.2fx", base_ms / ms);
    table.AddRow({mode, std::to_string(shards), bench::Ms(ms), rate, speedup});
  };

  // Legacy reference: synchronous single-shard ingest on the callers.
  double sync_ms = best_of(1, /*async=*/false);

  double async1_ms = best_of(1, /*async=*/true);
  row("sync", 1, sync_ms, async1_ms);
  row("async", 1, async1_ms, async1_ms);
  json.Add("sync_shards1", sync_ms, kTotalRows, 0);
  json.Add("async_shards1", async1_ms, kTotalRows, 0);
  for (size_t shards : {size_t{2}, size_t{4}, size_t{8}}) {
    double ms = best_of(shards, /*async=*/true);
    row("async", shards, ms, async1_ms);
    json.Add("async_shards" + std::to_string(shards), ms, kTotalRows, 0);
  }
  double seal_ms = best_of(4, /*async=*/false, /*seal=*/true);
  row("sync+seal", 4, seal_ms, async1_ms);
  json.Add("sync_seal_shards4", seal_ms, kTotalRows, 0);
  table.Print();
  json.Write();
  return 0;
}
