#include "provenance/opm_export.h"

#include <map>
#include <set>
#include <sstream>

#include "common/string_util.h"
#include "provenance/schema.h"

namespace provlin::provenance {
namespace {

struct Artifact {
  std::string processor;
  std::string port;
  Index index;
  int64_t value_id = -1;

  std::string Key() const {
    return processor + ":" + port + index.ToString();
  }
  bool operator<(const Artifact& o) const { return Key() < o.Key(); }
};

}  // namespace

Result<std::string> ExportOpmJson(const TraceStore& store,
                                  const std::string& run) {
  std::set<Artifact> artifacts;
  // (process id, artifact key, role) triples.
  std::vector<std::tuple<std::string, std::string, std::string>> used;
  std::vector<std::tuple<std::string, std::string, std::string>> generated;
  std::vector<std::pair<std::string, std::string>> derived;
  std::map<std::string, std::string> processes;  // id -> processor

  // Records carry interned ids; the export is a render boundary, so
  // resolve names once per record here.
  PROVLIN_ASSIGN_OR_RETURN(std::vector<XformRecord> xforms,
                           store.ScanXforms(run));
  for (const XformRecord& rec : xforms) {
    std::string proc = store.NameOf(rec.processor);
    std::string pid = "p" + std::to_string(rec.event_id);
    processes[pid] = proc;
    if (rec.has_in) {
      std::string port = store.NameOf(rec.in_port);
      Artifact a{proc, port, rec.in_index, rec.in_value};
      used.emplace_back(pid, a.Key(), port);
      artifacts.insert(std::move(a));
    }
    if (rec.has_out) {
      std::string port = store.NameOf(rec.out_port);
      Artifact a{proc, port, rec.out_index, rec.out_value};
      generated.emplace_back(a.Key(), pid, port);
      artifacts.insert(std::move(a));
    }
  }
  PROVLIN_ASSIGN_OR_RETURN(std::vector<XferRecord> xfers,
                           store.ScanXfers(run));
  for (const XferRecord& rec : xfers) {
    Artifact src{store.NameOf(rec.src_proc), store.NameOf(rec.src_port),
                 rec.src_index, rec.value_id};
    Artifact dst{store.NameOf(rec.dst_proc), store.NameOf(rec.dst_port),
                 rec.dst_index, rec.value_id};
    derived.emplace_back(dst.Key(), src.Key());
    artifacts.insert(src);
    artifacts.insert(dst);
  }
  if (processes.empty() && artifacts.empty()) {
    return Status::NotFound("run '" + run + "' has no trace records");
  }

  std::ostringstream out;
  out << "{\n  \"opm\": \"1.1\",\n  \"run\": \"" << JsonEscape(run)
      << "\",\n";

  out << "  \"artifacts\": {\n";
  bool first = true;
  for (const Artifact& a : artifacts) {
    if (!first) out << ",\n";
    first = false;
    std::string repr;
    if (a.value_id >= 0) {
      auto value = store.GetValueRepr(run, a.value_id);
      if (value.ok()) repr = *value;
    }
    out << "    \"" << JsonEscape(a.Key()) << "\": {\"processor\": \""
        << JsonEscape(a.processor) << "\", \"port\": \""
        << JsonEscape(a.port) << "\", \"index\": \""
        << JsonEscape(a.index.ToString()) << "\", \"value\": \""
        << JsonEscape(repr) << "\"}";
  }
  out << "\n  },\n";

  out << "  \"processes\": {\n";
  first = true;
  for (const auto& [pid, proc] : processes) {
    if (!first) out << ",\n";
    first = false;
    out << "    \"" << pid << "\": {\"processor\": \"" << JsonEscape(proc)
        << "\"}";
  }
  out << "\n  },\n";

  auto emit_edges =
      [&](const char* name,
          const std::vector<std::tuple<std::string, std::string,
                                       std::string>>& edges,
          const char* from_field, const char* to_field) {
        out << "  \"" << name << "\": [\n";
        for (size_t i = 0; i < edges.size(); ++i) {
          out << "    {\"" << from_field << "\": \""
              << JsonEscape(std::get<0>(edges[i])) << "\", \"" << to_field
              << "\": \"" << JsonEscape(std::get<1>(edges[i]))
              << "\", \"role\": \"" << JsonEscape(std::get<2>(edges[i]))
              << "\"}" << (i + 1 < edges.size() ? "," : "") << "\n";
        }
        out << "  ],\n";
      };
  emit_edges("used", used, "process", "artifact");
  emit_edges("wasGeneratedBy", generated, "artifact", "process");

  out << "  \"wasDerivedFrom\": [\n";
  for (size_t i = 0; i < derived.size(); ++i) {
    out << "    {\"artifact\": \"" << JsonEscape(derived[i].first)
        << "\", \"source\": \"" << JsonEscape(derived[i].second) << "\"}"
        << (i + 1 < derived.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

}  // namespace provlin::provenance
