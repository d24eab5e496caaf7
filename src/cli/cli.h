#ifndef PROVLIN_CLI_CLI_H_
#define PROVLIN_CLI_CLI_H_

#include <ostream>
#include <string>
#include <vector>

namespace provlin::cli {

/// The provlin command-line tool, factored as a library so tests can
/// drive it in-process. Commands:
///
///   run      --workflow W --db FILE --run ID --input port=literal ...
///            [--wal FILE] [--shards N] [--async-ingest true]
///            [--compress off|seal|always]
///            Execute a workflow with provenance capture and persist the
///            trace database. --shards N partitions the trace store into
///            N run shards (per-shard tables, B+trees, and — with --wal —
///            per-shard WAL files + a manifest); --async-ingest true
///            moves WAL appends and B+-tree inserts to per-shard writer
///            threads.
///   runs     --db FILE
///            List recorded runs.
///   lineage  --db FILE --workflow W --run ID [--run ID]* --target P:X
///            [--index 1,2] [--focus P]* [--engine naive|indexproj]
///            [--forward] [--explain true] [--threads N] [--shards N]
///            [--trace-out FILE.json] [--stats true]
///            Answer a (backward or forward) lineage query. With
///            --threads N the runs are answered as a concurrent batch on
///            an N-worker LineageService (one request per run, shared
///            plan cache) and the service metrics are printed.
///            --trace-out captures the query as Chrome trace-event JSON
///            (open in Perfetto); --stats true appends the Prometheus
///            metrics exposition after the answer.
///   explain  --db FILE --workflow W --run ID [--run ID]* --target P:X
///            [--index 1,2] [--focus P]* [--shards N]
///            [--trace-out FILE.json]
///            EXPLAIN an IndexProj query: print the generated trace
///            queries with the probes, rows and bindings each step cost
///            the batched execution that answered it, and the descents
///            and s2 time the batch shared across all steps.
///   serve    --workflow W --db FILE [--port N] [--port-file FILE]
///            [--shards N] [--async-ingest true] [--max-connections N]
///            [--slow-request-ms N] [--slow-log FILE]
///            [--slow-log-max-bytes N] [--trace true] [--stats true]
///            Serve lineage queries over loopback TCP (DESIGN.md §12):
///            length-prefixed wire-protocol frames carrying
///            LineageRequest envelopes, answered by both engines
///            ("naive", "indexproj" — the request names one). Each
///            connection is served on its own thread, which executes
///            its requests in order; --max-connections (default 64)
///            bounds the threads, and connections beyond it are closed
///            at accept. --port 0 (default) binds an ephemeral port;
///            --port-file writes the bound port once the server is
///            accepting.
///            --slow-request-ms N appends a structured JSON-lines record
///            (phase timeline, shard fan-out, probe counts, and the
///            EXPLAIN the request's own execution recorded — DESIGN.md
///            §14) for every served request at or over N ms to
///            --slow-log (default slow_requests.jsonl, rotated at
///            --slow-log-max-bytes); N=0 logs everything.
///            --trace true keeps the tracer ring live so remote scrapes
///            can pull it. Stop with SIGINT/SIGTERM; a served-traffic
///            summary (and with --stats true the metrics exposition)
///            prints on shutdown. Drive it with tools/loadgen.
///   stats    [--db FILE] [--format prometheus|json] [--reset true]
///            [--connect HOST:PORT] [--trace-out FILE.json]
///            Dump the process metrics registry (counters, gauges,
///            latency histograms across storage, provenance, lineage,
///            and service tiers), including the tracer ring's health
///            gauges (tracing/ring_events, ring_dropped). With
///            --connect the registry of a *live server* is scraped over
///            the wire's STATS message instead (answered on the
///            scraping connection's own thread, so it works while other
///            connections are busy); --trace-out additionally pulls the
///            server's tracer ring as Chrome trace-event JSON.
///   sql      --db FILE "SELECT ..."
///            Run a SQL query against the trace database.
///   dot      --db FILE --run ID
///            Emit the run's provenance graph in Graphviz format.
///   export   --db FILE --run ID
///            Emit the run's trace as an OPM-style JSON document.
///   counts   --db FILE [--run ID]
///            Trace record statistics.
///   workflow --workflow W
///            Print the (flattened) workflow definition and port depths.
///   diff     --workflow BEFORE --workflow AFTER
///            Structural diff between two workflow versions.
///   prune    --db FILE --run ID
///            Delete a run and all of its trace rows.
///
/// Workflow specifier W is either a path to a text definition
/// (workflow_io format) or one of the builtins: "builtin:gk",
/// "builtin:pd", "builtin:synthetic:<l>". Query indices are 1-based, as
/// in the paper's notation.
///
/// --shards (run/lineage/explain; DESIGN.md §11) defaults to 0 = auto:
/// a database that already records a shard count keeps it, otherwise the
/// store is unsharded. An explicit count that differs from the image's
/// reshards the database on open. `stats` surfaces per-shard
/// provenance/shard<k>/{rows,probes} counters once a sharded store has
/// been opened in the process.
///
/// --compress (every command that opens a store; DESIGN.md §13) selects
/// the segment sealing policy: "off" keeps all runs in the mutable
/// B+tree tier (and decodes any sealed segments back on open), "seal"
/// seals every run except the latest per shard into compressed
/// immutable segments probed in place, "always" also seals the latest.
/// Default: the PROVLIN_TEST_COMPRESS environment variable, else off.
/// `stats` surfaces provenance/shard<k>/{segments,segment_rows,
/// segment_bytes,hot_rows} and the storage/segment_* probe counters.
///
/// Returns a process exit code; output goes to `out`, diagnostics to
/// `err`.
int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err);

}  // namespace provlin::cli

#endif  // PROVLIN_CLI_CLI_H_
