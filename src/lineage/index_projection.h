#ifndef PROVLIN_LINEAGE_INDEX_PROJECTION_H_
#define PROVLIN_LINEAGE_INDEX_PROJECTION_H_

#include <string>
#include <vector>

#include "values/index.h"
#include "workflow/dataflow.h"
#include "workflow/depth_propagation.h"

namespace provlin::lineage {

/// Def. 4's cut for one input port: the part of its (offset, length)
/// slot that a `have`-component output index covers, as an (offset,
/// length) within that index. It truncates where the index runs out
/// (coarse queries) and is {0, 0} for a port without a slot. Both the
/// concrete rule below and IndexProj's slice-space plan templates cut
/// through it.
workflow::PortSlot ClipSlot(const workflow::ProcessorDepths& depths,
                            const std::string& port, size_t have);

/// The index projection rule (Def. 4 + Prop. 1): apportions an output
/// index q of processor `proc` to its input ports, in port order, by the
/// statically computed positive mismatches δs(Xi).
///
/// Under the cross strategy, input i receives the fragment of q starting
/// at offset Σ_{j<i} max(0, δs(Xj)) of length max(0, δs(Xi)); under the
/// dot ("zip") extension every iterated port receives the leading
/// max(0, δs) components of q, since all iterators advance together.
///
/// When q is shorter than the total iteration depth (a coarse or
/// whole-value query), fragments truncate gracefully to what is
/// available, which turns the corresponding trace probes into prefix
/// scans — precision degrades exactly where the requested index does.
/// Components of q beyond the iteration depth address positions *inside*
/// the value built by one elementary invocation; they are opaque under
/// the black-box assumption and are dropped.
std::vector<Index> ProjectOutputIndex(const workflow::Processor& proc,
                                      const workflow::ProcessorDepths& depths,
                                      const Index& q);

}  // namespace provlin::lineage

#endif  // PROVLIN_LINEAGE_INDEX_PROJECTION_H_
