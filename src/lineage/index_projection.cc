#include "lineage/index_projection.h"

#include <algorithm>

namespace provlin::lineage {

workflow::PortSlot ClipSlot(const workflow::ProcessorDepths& depths,
                            const std::string& port, size_t have) {
  auto it = depths.slots.find(port);
  if (it == depths.slots.end()) return {};
  const size_t begin = std::min(it->second.offset, have);
  return {begin, std::min(it->second.length, have - begin)};
}

std::vector<Index> ProjectOutputIndex(const workflow::Processor& proc,
                                      const workflow::ProcessorDepths& depths,
                                      const Index& q) {
  // The strategy layout places each port's fragment at a fixed slot in
  // the output index (cross appends siblings, dot aligns them), so
  // projection is a pure (offset, length) extraction — Def. 4
  // generalized to arbitrary strategy expressions.
  std::vector<Index> out;
  out.reserve(proc.inputs.size());
  for (const workflow::Port& in : proc.inputs) {
    const workflow::PortSlot cut = ClipSlot(depths, in.name, q.length());
    out.push_back(q.SubIndex(cut.offset, cut.length));
  }
  return out;
}

}  // namespace provlin::lineage
