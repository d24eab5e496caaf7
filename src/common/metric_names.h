#ifndef PROVLIN_COMMON_METRIC_NAMES_H_
#define PROVLIN_COMMON_METRIC_NAMES_H_

#include <string_view>

namespace provlin::common::metrics::names {

/// The one authoritative list of registry instrument names (DESIGN.md
/// §9). Every string-literal name passed to GetCounter / GetGauge /
/// GetHistogram anywhere under src/ or tools/ must appear in one of the
/// arrays below — enforced by tools/lint_provlin.py (rule
/// "metric-name") — so the schema `provlin stats` exposes, the names
/// DESIGN.md documents, and the names call sites bump cannot drift
/// apart. Tests are exempt (they register throwaway instruments on
/// purpose).
///
/// Dynamic names are the one sanctioned exception: per-shard
/// instruments follow the pattern `provenance/shard<k>/<what>` with
/// <what> ∈ {rows, probes, segments, segment_rows, segment_bytes,
/// hot_rows} (see trace_store.cc), and per-engine query counts follow
/// `lineage/queries_<engine>` (see lineage/query.cc); the lint only
/// checks complete literals, and the patterns are documented here and
/// in DESIGN.md instead.

/// Monotonic counters, `<tier>/<what>`.
inline constexpr std::string_view kCounterNames[] = {
    // storage: B+-tree and segment physical probe work
    "storage/inserts",
    "storage/deletes",
    "storage/index_probes",
    "storage/full_scans",
    "storage/rows_examined",
    "storage/batched_probes",
    "storage/descents",
    "storage/segment_probes",
    "storage/segment_entries_examined",
    "storage/segment_searches",
    "storage/segment_block_decodes",
    "storage/segment_rows_materialized",
    "storage/segment_view_blocks_scanned",
    // write-ahead log
    "wal/appends",
    "wal/bytes",
    "wal/flushes",
    // provenance capture + probe memo
    "provenance/xform_rows",
    "provenance/xfer_rows",
    "provenance/rows_ingested",
    "provenance/memo_hits",
    "provenance/memo_lookups",
    // lineage engines
    "lineage/queries",
    "lineage/trace_probes",
    "lineage/trace_descents",
    "lineage/graph_steps",
    "lineage/plan_builds",
    "lineage/plan_cache_hits",
    // batch service
    "service/batches",
    "service/requests",
    "service/failed_requests",
    // network server
    "server/connections_accepted",
    "server/connections_rejected",
    "server/requests",
    "server/responses_ok",
    "server/responses_error",
    "server/bad_frames",
    "server/stats_requests",
    "server/slow_requests_logged",
    // frame transport
    "net/frames_in",
    "net/frames_out",
    "net/bytes_in",
    "net/bytes_out",
};

/// Last-write-wins gauges.
inline constexpr std::string_view kGaugeNames[] = {
    "provenance/shards",
    // tracer ring-sink health (published by PublishTracingStats)
    "tracing/enabled",
    "tracing/ring_events",
    "tracing/ring_capacity",
    "tracing/ring_dropped",
};

/// Latency histograms (DefaultLatencyBoundsMs buckets).
inline constexpr std::string_view kLatencyHistogramNames[] = {
    "lineage/t1_ms",
    "lineage/t2_ms",
    "service/queue_wait_ms",
    "service/batch_wall_ms",
    "server/request_ms",
    // per-phase served-request decomposition (DESIGN.md §14)
    "server/execute_ms",
    "server/serialize_ms",
    "server/write_ms",
};

/// Size histograms (DefaultSizeBounds buckets).
inline constexpr std::string_view kSizeHistogramNames[] = {
    "storage/multiseek_batch_size",
};

/// Names owned by tools/loadgen — not pre-registered by the CLI (a
/// provlin process never bumps them) but part of the authoritative
/// schema for the lint and for BENCH_served.json consumers.
inline constexpr std::string_view kLoadgenCounterNames[] = {
    "loadgen/sent",
    "loadgen/ok",
    "loadgen/overloaded",
    "loadgen/errors",
};

inline constexpr std::string_view kLoadgenHistogramNames[] = {
    "loadgen/latency_ms",
    // per-phase aggregates scraped from --timelines answers
    "loadgen/timeline_queue_ms",
    "loadgen/timeline_dispatch_ms",
    "loadgen/timeline_execute_ms",
    "loadgen/timeline_total_ms",
};

}  // namespace provlin::common::metrics::names

#endif  // PROVLIN_COMMON_METRIC_NAMES_H_
