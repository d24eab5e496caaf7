// libFuzzer harness for the sealed-segment codec
// (storage::Segment::FromBytes, src/storage/segment.h).
//
// Segment blobs are parsed back from the database file on open, so
// FromBytes must reject any corruption with a Status — never crash or
// allocate from an untrusted count. Any input that parses must also
// survive a full row decode (with the row count it promised) and a few
// view probes: parse acceptance implies decode safety. Probes build
// rows per emitted ordinal from a column decode of their block, so the
// harness also checks every (ordinal, row) they emit against the full
// decode's row at that ordinal.
//
// Built only under -DPROVLIN_FUZZ=ON; see fuzz_wire.cc for the
// clang/GCC driver split.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "storage/segment.h"

using provlin::storage::IdPair;
using provlin::storage::Row;
using provlin::storage::Segment;

namespace {

/// Aborts with the violated property and a hex dump of the input, so a
/// failure is reproducible from the log alone (libFuzzer also saves the
/// input as a crash-* file; the standalone driver does not).
[[noreturn]] void Fail(const char* property, const uint8_t* data,
                       size_t size) {
  std::fprintf(stderr, "fuzz_segment: property violated: %s\n", property);
  std::fprintf(stderr, "  input (%zu bytes):", size);
  for (size_t i = 0; i < size && i < 512; ++i) {
    std::fprintf(stderr, " %02x", data[i]);
  }
  std::fprintf(stderr, "\n");
  std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  auto bytes = std::make_shared<const std::string>(
      reinterpret_cast<const char*>(data), size);
  auto parsed = Segment::FromBytes(bytes);
  if (!parsed.ok()) return 0;

  auto rows = parsed->DecodeAllRows();
  if (rows.ok() && rows->size() != parsed->num_rows()) {
    Fail("DecodeAllRows row count != header row count", data, size);
  }

  // Prefix probes for fixed pairs (which mostly miss) and for the pairs
  // the decoded rows carry on each view's side, plus a point probe on
  // each such row's path — all on one scratch, the way a batch shares
  // it, so later probes revisit blocks and ordinals earlier ones built.
  // Each view's pair column (xform out/in, xfer src/dst, segment.h);
  // its path column follows it.
  const bool xform = parsed->kind() == Segment::Kind::kXform;
  const size_t pair_col[Segment::kNumViews] = {xform ? 5u : 1u,
                                               xform ? 2u : 3u};
  std::vector<Segment::ViewProbe> probes[Segment::kNumViews];
  for (size_t view = 0; view < Segment::kNumViews; ++view) {
    for (uint32_t p = 0; p < 4; ++p) {
      Segment::ViewProbe probe;
      probe.pair = IdPair{p, p % 2}.Packed();
      probes[view].push_back(probe);
    }
    if (!rows.ok()) continue;
    for (size_t i = 0; i < rows->size() && i < 8; ++i) {
      const Row& row = (*rows)[i * rows->size() / 8];
      if (row[pair_col[view]].is_null()) continue;
      Segment::ViewProbe prefix;
      prefix.pair = row[pair_col[view]].AsIdPair().Packed();
      Segment::ViewProbe point = prefix;
      point.has_lo = point.has_hi = true;
      point.lo = row[pair_col[view] + 1].AsIndexPath();
      point.hi = point.lo;
      probes[view].push_back(prefix);
      probes[view].push_back(point);
    }
  }

  auto check = [&](uint64_t ordinal, const Row& row) {
    if (!rows.ok()) return;
    if (ordinal >= rows->size()) {
      Fail("ProbeView emitted an ordinal past the row count", data, size);
    }
    if (row != (*rows)[ordinal]) {
      Fail("ProbeView row != DecodeAllRows()[ordinal]", data, size);
    }
  };
  Segment::Scratch scratch;
  Segment::ProbeCounts counts;
  for (size_t view = 0; view < Segment::kNumViews; ++view) {
    for (const Segment::ViewProbe& probe : probes[view]) {
      (void)parsed->ProbeView(view, probe, &scratch, &counts, check);
    }
  }
  return 0;
}
