#include "lineage/query.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string_view>

#include "common/metrics.h"
#include "common/string_util.h"

namespace provlin::lineage {

void NormalizeBindings(std::vector<LineageBinding>* bindings) {
  std::sort(bindings->begin(), bindings->end());
  bindings->erase(std::unique(bindings->begin(), bindings->end()),
                  bindings->end());

  // Drop bindings covered by a strictly coarser binding on the same run
  // and port. After sorting, a coarser binding precedes its extensions,
  // but not necessarily adjacently, so test against all kept bindings of
  // the same (run, port) group.
  std::vector<LineageBinding> kept;
  kept.reserve(bindings->size());
  for (const LineageBinding& b : *bindings) {
    bool covered = false;
    for (const LineageBinding& k : kept) {
      if (k.run_id == b.run_id && k.port == b.port &&
          k.index.length() < b.index.length() &&
          k.index.IsPrefixOf(b.index)) {
        covered = true;
        break;
      }
    }
    if (!covered) kept.push_back(b);
  }
  *bindings = std::move(kept);
}

void PublishTiming(std::string_view engine, const LineageTiming& timing) {
  namespace metrics = common::metrics;
  static auto* queries = metrics::GetCounter("lineage/queries");
  static auto* probes = metrics::GetCounter("lineage/trace_probes");
  static auto* descents = metrics::GetCounter("lineage/trace_descents");
  static auto* steps = metrics::GetCounter("lineage/graph_steps");
  static auto* cache_hits = metrics::GetCounter("lineage/plan_cache_hits");
  static auto* t1 = metrics::GetHistogram("lineage/t1_ms");
  static auto* t2 = metrics::GetHistogram("lineage/t2_ms");
  queries->Increment();
  probes->Add(timing.trace_probes);
  descents->Add(timing.trace_descents);
  steps->Add(timing.graph_steps);
  if (timing.plan_cache_hit) cache_hits->Increment();
  t1->Observe(timing.t1_ms);
  t2->Observe(timing.t2_ms);
  // Per-engine query counts. The engine set is tiny and fixed per
  // process, so a thread-local cache keeps the registry's string build
  // and shared lock off the per-query path.
  thread_local std::map<std::string, metrics::Counter*, std::less<>>
      per_engine;
  auto it = per_engine.find(engine);
  if (it == per_engine.end()) {
    it = per_engine
             .emplace(std::string(engine),
                      metrics::GetCounter("lineage/queries_" +
                                          std::string(engine)))
             .first;
  }
  it->second->Increment();
}

namespace {

thread_local std::optional<ExplainResult>* g_active_explain = nullptr;

}  // namespace

ExplainScope::ExplainScope(std::optional<ExplainResult>* out)
    : prev_(g_active_explain) {
  g_active_explain = out;
}

ExplainScope::~ExplainScope() { g_active_explain = prev_; }

std::optional<ExplainResult>* ExplainScope::Active() {
  return g_active_explain;
}

std::string ExplainResult::ToString() const {
  char buf[160];
  std::string out = "IndexProj plan: " + std::to_string(steps.size()) +
                    " trace queries, " + std::to_string(plan.graph_steps) +
                    " graph steps, s1 ";
  std::snprintf(buf, sizeof(buf), "%.3f ms (%s)\n", plan.t1_ms,
                plan.plan_cache_hit ? "plan cache hit" : "plan built");
  out += buf;
  for (size_t i = 0; i < steps.size(); ++i) {
    const ExplainStep& s = steps[i];
    std::snprintf(buf, sizeof(buf),
                  "  step %2zu  %-10s %-40s probes=%llu rows=%llu "
                  "bindings=%llu\n",
                  i, s.kind.c_str(), s.query.c_str(),
                  static_cast<unsigned long long>(s.trace_probes),
                  static_cast<unsigned long long>(s.rows),
                  static_cast<unsigned long long>(s.bindings));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "  s2 (batched, shared by all steps): probes=%llu "
                "descents=%llu %.3f ms\n",
                static_cast<unsigned long long>(plan.trace_probes),
                static_cast<unsigned long long>(plan.trace_descents),
                plan.t2_ms);
  out += buf;
  return out;
}

std::string ExplainResult::ToJson() const {
  std::string out = "{";
  out += "\"plan_cache_hit\":" +
         std::string(plan.plan_cache_hit ? "true" : "false");
  out += ",\"t1_ms\":" + std::to_string(plan.t1_ms);
  out += ",\"graph_steps\":" + std::to_string(plan.graph_steps);
  out += ",\"trace_probes\":" + std::to_string(plan.trace_probes);
  out += ",\"trace_descents\":" + std::to_string(plan.trace_descents);
  out += ",\"t2_ms\":" + std::to_string(plan.t2_ms);
  out += ",\"steps\":[";
  for (size_t i = 0; i < steps.size(); ++i) {
    const ExplainStep& s = steps[i];
    if (i > 0) out += ",";
    out += "{\"kind\":\"" + JsonEscape(s.kind) + "\"";
    out += ",\"query\":\"" + JsonEscape(s.query) + "\"";
    out += ",\"trace_probes\":" + std::to_string(s.trace_probes);
    out += ",\"rows\":" + std::to_string(s.rows);
    out += ",\"bindings\":" + std::to_string(s.bindings);
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace provlin::lineage
