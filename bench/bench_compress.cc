// Compressed trace segments (DESIGN.md §13) at ~10x the paper's trace
// scale: 100k xform + 100k xfer rows across eight runs on a four-shard
// store, measured hot (B+tree tier) and then sealed in place. Four
// measurements:
//
//   footprint — resident bytes of the identical rows in each tier
//               (the headline: sealed should be well under 1/4 of hot),
//   probe     — a sorted multi-run probe batch answered by the B+tree
//               MultiSeek path before sealing vs in situ on compressed
//               blocks after (best-of-five each; sealed must stay
//               within 2x). One large batch spreads each block decode
//               over hundreds of probes;
//   served    — the shape of served focused queries instead: each
//               request's overlap probes (8 logical probes on one run)
//               form their own small batch, so every request pays a
//               fresh Scratch and its own block decodes;
//   seal      — SealAllRuns throughput, rows/s and encoded bytes/row.
//
// One store serves both phases so the process-wide accounting the
// --compress-ratios check validates stays exact: at exit,
// sum(provenance/shard<k>/segment_rows) + sum(.../hot_rows) must equal
// provenance/rows_ingested, the per-shard segments counters must be
// gapless, and the footprint entries must show ratio >= 1. The logical
// probe counts are deterministic and MUST be identical across tiers —
// sealing is purely physical.

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "provenance/store_open.h"
#include "provenance/trace_store.h"

int main() {
  using namespace provlin;
  using bench::CheckOk;
  using bench::CheckResult;
  using provenance::CompressMode;
  using provenance::PortProbe;
  using provenance::TraceStore;
  using provenance::XferRecord;
  using provenance::XformRecord;

  constexpr size_t kShards = 4;
  constexpr size_t kRuns = 8;
  constexpr int kRowsPerRun = 12500;  // x8 runs = 100k rows per table
  constexpr int kProcs = 32;
  constexpr int kFanout = 50;  // distinct top-level indices per run

  std::printf(
      "Compressed segment tier vs hot B+tree tier "
      "(%zu runs x %d xform + %d xfer rows, %zu shards)\n\n",
      kRuns, kRowsPerRun, kRowsPerRun, kShards);

  // Build the store hot: sealing is done explicitly (and timed) after
  // the hot-tier measurements, hence compress stays pinned off.
  provenance::StoreOptions options;  // empty db_path = in-memory
  options.shards = kShards;
  options.compress = CompressMode::kOff;
  provenance::OpenedStore opened =
      CheckResult(provenance::OpenStore(options), "open store");
  TraceStore& store = opened.store();

  const common::SymbolId port_x = store.Intern("x");
  const common::SymbolId port_y = store.Intern("y");
  std::vector<common::SymbolId> procs;
  for (int p = 0; p < kProcs; ++p) {
    procs.push_back(store.Intern("P" + std::to_string(p)));
  }
  for (size_t r = 0; r < kRuns; ++r) {
    const std::string run_id = "cmp" + std::to_string(r);
    CheckOk(store.InsertRun(run_id, "bench"), "InsertRun");
    const common::SymbolId run = store.Intern(run_id);
    for (int i = 0; i < kRowsPerRun; ++i) {
      const auto proc = procs[static_cast<size_t>(i) % procs.size()];
      const auto next = procs[static_cast<size_t>(i + 1) % procs.size()];
      XformRecord rec;
      rec.run = run;
      rec.event_id = i;
      rec.processor = proc;
      rec.has_in = true;
      rec.in_port = port_x;
      rec.in_index = Index({static_cast<int32_t>(i % kFanout)});
      rec.in_value = i;
      rec.has_out = true;
      rec.out_port = port_y;
      rec.out_index = Index({static_cast<int32_t>(i % kFanout),
                             static_cast<int32_t>(i % 3)});
      rec.out_value = i;
      CheckOk(store.InsertXform(rec), "InsertXform");
      XferRecord arc;
      arc.run = run;
      arc.src_proc = proc;
      arc.src_port = port_y;
      arc.src_index = rec.out_index;
      arc.dst_proc = next;
      arc.dst_port = port_x;
      arc.dst_index = rec.out_index;
      arc.value_id = i;
      CheckOk(store.InsertXfer(arc), "InsertXfer");
    }
  }
  CheckOk(store.Flush(), "Flush");

  // One trace-shaped probe batch spanning all runs and processors —
  // the sorted multi-probe shape the batched lineage levels issue.
  std::vector<PortProbe> out_probes;
  std::vector<PortProbe> into_probes;
  for (size_t r = 0; r < kRuns; ++r) {
    const common::SymbolId run = store.Intern("cmp" + std::to_string(r));
    for (int p = 0; p < kProcs; ++p) {
      const common::SymbolId proc = procs[static_cast<size_t>(p)];
      for (int k = 0; k < kFanout; k += 5) {
        out_probes.push_back(
            {run, proc, port_y, Index({static_cast<int32_t>(k)})});
        into_probes.push_back(
            {run, proc, port_x, Index({static_cast<int32_t>(k)})});
      }
    }
  }

  auto run_batch = [&]() -> Status {
    PROVLIN_ASSIGN_OR_RETURN(auto produced,
                             store.FindProducingBatch(out_probes));
    PROVLIN_ASSIGN_OR_RETURN(auto arcs, store.FindXfersIntoBatch(into_probes));
    if (produced.size() != out_probes.size() ||
        arcs.size() != into_probes.size()) {
      return Status::Internal("batch result shape mismatch");
    }
    return Status::OK();
  };

  // Served-shaped traffic: kRequests focused requests, each one
  // producer probe and one xfer-into probe on a single run with a
  // two-part index (4 logical overlap probes each), issued as that
  // request's own batch. The producer of (proc, y, idx) sends it on to
  // (next, x, idx), so both probes find the same few rows.
  constexpr int kRequests = 256;
  std::vector<std::pair<PortProbe, PortProbe>> requests;
  for (int q = 0; q < kRequests; ++q) {
    const common::SymbolId run =
        store.Intern("cmp" + std::to_string(static_cast<size_t>(q) % kRuns));
    const auto p = static_cast<size_t>(q * 5) % procs.size();
    const Index idx({static_cast<int32_t>((q * 7) % kFanout),
                     static_cast<int32_t>(q % 3)});
    requests.push_back({{run, procs[p], port_y, idx},
                        {run, procs[(p + 1) % procs.size()], port_x, idx}});
  }
  auto run_served = [&]() -> Status {
    for (const auto& [out, into] : requests) {
      PROVLIN_ASSIGN_OR_RETURN(auto produced, store.FindProducingBatch({out}));
      PROVLIN_ASSIGN_OR_RETURN(auto arcs, store.FindXfersIntoBatch({into}));
      if (produced.size() != 1 || arcs.size() != 1) {
        return Status::Internal("served result shape mismatch");
      }
    }
    return Status::OK();
  };

  auto* probes_ctr = common::metrics::GetCounter("storage/index_probes");
  auto* descents_ctr = common::metrics::GetCounter("storage/descents");
  auto* decodes_ctr =
      common::metrics::GetCounter("storage/segment_block_decodes");
  auto* built_ctr =
      common::metrics::GetCounter("storage/segment_rows_materialized");
  // Deterministic work of one pass of `fn`.
  struct Work {
    uint64_t probes = 0, descents = 0, block_decodes = 0, rows_built = 0;
  };
  auto counted = [&](const std::function<Status()>& fn, const char* what) {
    const Work before{probes_ctr->Value(), descents_ctr->Value(),
                      decodes_ctr->Value(), built_ctr->Value()};
    CheckOk(fn(), what);
    return Work{probes_ctr->Value() - before.probes,
                descents_ctr->Value() - before.descents,
                decodes_ctr->Value() - before.block_decodes,
                built_ctr->Value() - before.rows_built};
  };

  // --- hot phase -----------------------------------------------------------
  TraceStore::TierBytes hot_tiers = store.ApproxMemory();
  double hot_ms = CheckResult(bench::BestOfFive(run_batch), "hot batch");
  const Work hot = counted(run_batch, "hot batch");
  double hot_served_ms =
      CheckResult(bench::BestOfFive(run_served), "hot served");
  const Work hot_served = counted(run_served, "hot served");

  // --- seal in place -------------------------------------------------------
  WallTimer seal_timer;
  CheckOk(store.SealAllRuns(), "SealAllRuns");
  double seal_ms = seal_timer.ElapsedMillis();
  TraceStore::TierBytes sealed_tiers = store.ApproxMemory();

  // --- sealed phase --------------------------------------------------------
  double sealed_ms = CheckResult(bench::BestOfFive(run_batch), "sealed batch");
  const Work sealed = counted(run_batch, "sealed batch");
  double sealed_served_ms =
      CheckResult(bench::BestOfFive(run_served), "sealed served");
  const Work sealed_served = counted(run_served, "sealed served");

  // --- report --------------------------------------------------------------
  double bytes_per_row =
      sealed_tiers.sealed_rows > 0
          ? static_cast<double>(sealed_tiers.sealed_bytes) /
                static_cast<double>(sealed_tiers.sealed_rows)
          : 0.0;

  auto x_ratio = [](double num, double den) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2fx", den > 0 ? num / den : 0.0);
    return std::string(buf);
  };
  auto us_per_probe = [](double ms, uint64_t probes) {
    return bench::Ms(probes > 0 ? ms * 1000.0 / static_cast<double>(probes)
                                : 0.0);
  };
  bench::TablePrinter table({"measure", "hot", "sealed", "ratio"});
  table.AddRow({"resident_bytes", bench::Num(hot_tiers.hot_bytes),
                bench::Num(sealed_tiers.sealed_bytes),
                x_ratio(static_cast<double>(hot_tiers.hot_bytes),
                        static_cast<double>(sealed_tiers.sealed_bytes))});
  table.AddRow({"batch_ms", bench::Ms(hot_ms), bench::Ms(sealed_ms),
                x_ratio(sealed_ms, hot_ms)});
  table.AddRow({"batch_us_per_probe", us_per_probe(hot_ms, hot.probes),
                us_per_probe(sealed_ms, sealed.probes),
                x_ratio(sealed_ms, hot_ms)});
  table.AddRow({"batch_descents", bench::Num(hot.descents),
                bench::Num(sealed.descents), "-"});
  table.AddRow({"batch_block_decodes", "-", bench::Num(sealed.block_decodes),
                "-"});
  table.AddRow({"batch_rows_built", "-", bench::Num(sealed.rows_built), "-"});
  table.AddRow({"served_us_per_probe",
                us_per_probe(hot_served_ms, hot_served.probes),
                us_per_probe(sealed_served_ms, sealed_served.probes),
                x_ratio(sealed_served_ms, hot_served_ms)});
  table.AddRow({"served_descents", bench::Num(hot_served.descents),
                bench::Num(sealed_served.descents), "-"});
  table.AddRow({"served_block_decodes", "-",
                bench::Num(sealed_served.block_decodes), "-"});
  table.AddRow({"served_rows_built", "-",
                bench::Num(sealed_served.rows_built), "-"});
  table.Print();
  std::printf("\nserved: %d requests x %llu logical probes per pass\n",
              kRequests,
              static_cast<unsigned long long>(hot_served.probes / kRequests));
  std::printf(
      "\nseal: %zu rows in %.1f ms (%.0f rows/s), %.2f bytes/row encoded\n",
      sealed_tiers.sealed_rows, seal_ms,
      static_cast<double>(sealed_tiers.sealed_rows) / (seal_ms / 1000.0),
      bytes_per_row);

  // The footprint entries carry bytes in the probes column (their
  // timings are meaningless and never compared); deterministic=false
  // keeps them out of the exact-match check while --compress-ratios
  // reads them for the hot/sealed ratio.
  // The *_block_decodes entries likewise carry a count in the probes
  // column, but it is deterministic and checked exactly: a probe path
  // that decodes more blocks than before fails the baseline.
  bench::JsonWriter json("compress");
  json.Add("probe_hot", hot_ms, hot.probes, hot.descents);
  json.Add("probe_sealed", sealed_ms, sealed.probes, sealed.descents);
  json.Add("seal_rows", seal_ms, sealed_tiers.sealed_rows, 0);
  json.Add("probe_sealed_block_decodes", 0.0, sealed.block_decodes, 0);
  json.Add("served_probe_hot", hot_served_ms, hot_served.probes,
           hot_served.descents);
  json.Add("served_probe_sealed", sealed_served_ms, sealed_served.probes,
           sealed_served.descents);
  json.Add("served_sealed_block_decodes", 0.0, sealed_served.block_decodes,
           0);
  json.Add("footprint_hot_bytes", 0.0, hot_tiers.hot_bytes, 0,
           /*deterministic=*/false);
  json.Add("footprint_sealed_bytes", 0.0, sealed_tiers.sealed_bytes, 0,
           /*deterministic=*/false);
  json.Write();

  if (hot.probes != sealed.probes ||
      hot_served.probes != sealed_served.probes) {
    std::fprintf(stderr,
                 "FATAL: logical probe counts diverge across tiers (batch "
                 "hot %llu, sealed %llu; served hot %llu, sealed %llu)\n",
                 static_cast<unsigned long long>(hot.probes),
                 static_cast<unsigned long long>(sealed.probes),
                 static_cast<unsigned long long>(hot_served.probes),
                 static_cast<unsigned long long>(sealed_served.probes));
    return 1;
  }
  return 0;
}
