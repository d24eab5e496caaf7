// Codec tests for compressed trace segments (storage/segment.h):
// round-trips for both table layouts, probe-vs-reference equivalence
// over randomized workloads, rejection of malformed buffers
// (truncation at every prefix length, trailing garbage, forged
// element counts), a seeded mutation-fuzz corpus, and the canonical
// re-encode property encode(decode(x)) == x — mirroring wire_test.cc.

#include "storage/segment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"

namespace provlin::storage {
namespace {

constexpr uint64_t kRun = 7;

Row XformRow(int64_t event, bool has_in, IdPair in, IndexPath in_idx,
             int64_t in_val, bool has_out, IdPair out, IndexPath out_idx,
             int64_t out_val) {
  Row row(8);
  row[0] = Datum(static_cast<int64_t>(kRun));
  row[1] = Datum(event);
  if (has_in) {
    row[2] = Datum(in);
    row[3] = Datum(std::move(in_idx));
    row[4] = Datum(in_val);
  }
  if (has_out) {
    row[5] = Datum(out);
    row[6] = Datum(std::move(out_idx));
    row[7] = Datum(out_val);
  }
  return row;
}

Row XferRow(IdPair src, IndexPath src_idx, IdPair dst, IndexPath dst_idx,
            int64_t value) {
  Row row(6);
  row[0] = Datum(static_cast<int64_t>(kRun));
  row[1] = Datum(src);
  row[2] = Datum(std::move(src_idx));
  row[3] = Datum(dst);
  row[4] = Datum(std::move(dst_idx));
  row[5] = Datum(value);
  return row;
}

/// Randomized but deterministic workload generator: repeated
/// processor/port pairs, dense index-path ranges, occasional nulls —
/// the shapes the encoder targets, sized to span several blocks.
std::vector<Row> RandomXformRows(Random& rng, size_t n) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    bool has_in = rng.Bernoulli(0.8);
    bool has_out = rng.Bernoulli(0.8);
    if (!has_in && !has_out) has_out = true;
    IdPair in{static_cast<uint32_t>(rng.Uniform(5)),
              static_cast<uint32_t>(rng.Uniform(3))};
    IdPair out{static_cast<uint32_t>(rng.Uniform(5)),
               static_cast<uint32_t>(3 + rng.Uniform(3))};
    IndexPath in_idx, out_idx;
    uint64_t depth = rng.Uniform(4);
    for (uint64_t d = 0; d < depth; ++d) {
      in_idx.push_back(static_cast<int32_t>(rng.Uniform(6)));
    }
    depth = rng.Uniform(4);
    for (uint64_t d = 0; d < depth; ++d) {
      out_idx.push_back(static_cast<int32_t>(rng.Uniform(6)));
    }
    rows.push_back(XformRow(static_cast<int64_t>(i), has_in, in,
                            std::move(in_idx), static_cast<int64_t>(100 + i),
                            has_out, out, std::move(out_idx),
                            static_cast<int64_t>(200 + i)));
  }
  return rows;
}

std::vector<Row> RandomXferRows(Random& rng, size_t n) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    IdPair src{static_cast<uint32_t>(rng.Uniform(4)),
               static_cast<uint32_t>(rng.Uniform(2))};
    IdPair dst{static_cast<uint32_t>(4 + rng.Uniform(4)),
               static_cast<uint32_t>(rng.Uniform(2))};
    IndexPath src_idx, dst_idx;
    uint64_t depth = 1 + rng.Uniform(3);
    for (uint64_t d = 0; d < depth; ++d) {
      src_idx.push_back(static_cast<int32_t>(rng.Uniform(8)));
      dst_idx.push_back(static_cast<int32_t>(rng.Uniform(8)));
    }
    rows.push_back(XferRow(src, std::move(src_idx), dst, std::move(dst_idx),
                           static_cast<int64_t>(i)));
  }
  return rows;
}

int ComparePathRef(const IndexPath& a, const IndexPath& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

bool PathExtendsRef(const IndexPath& path, const IndexPath& prefix) {
  return path.size() >= prefix.size() &&
         std::equal(prefix.begin(), prefix.end(), path.begin());
}

/// Reference probe: brute-force over the original rows, sorted the way
/// the view promises — (pair, path, ordinal).
std::vector<std::pair<uint64_t, Row>> ReferenceProbe(
    const std::vector<Row>& rows, size_t pair_col, size_t path_col,
    const Segment::ViewProbe& probe) {
  struct Entry {
    uint64_t pair;
    IndexPath path;
    uint64_t ordinal;
  };
  std::vector<Entry> entries;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i][pair_col].is_null()) continue;
    entries.push_back(Entry{rows[i][pair_col].AsIdPair().Packed(),
                            rows[i][path_col].AsIndexPath(), i});
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.pair != b.pair) return a.pair < b.pair;
    int c = ComparePathRef(a.path, b.path);
    if (c != 0) return c < 0;
    return a.ordinal < b.ordinal;
  });
  std::vector<std::pair<uint64_t, Row>> out;
  for (const Entry& e : entries) {
    if (e.pair != probe.pair) continue;
    if (probe.has_lo && ComparePathRef(e.path, probe.lo) < 0) continue;
    if (probe.has_hi && ComparePathRef(e.path, probe.hi) > 0) continue;
    if (probe.has_residual && !PathExtendsRef(e.path, probe.residual)) continue;
    out.emplace_back(e.ordinal, rows[e.ordinal]);
  }
  return out;
}

std::vector<std::pair<uint64_t, Row>> SegmentProbe(const Segment& seg,
                                                   size_t view,
                                                   const Segment::ViewProbe& p,
                                                   Segment::Scratch* scratch) {
  std::vector<std::pair<uint64_t, Row>> out;
  Segment::ProbeCounts counts;
  Status st = seg.ProbeView(
      view, p, scratch, &counts,
      [&](uint64_t ordinal, const Row& row) { out.emplace_back(ordinal, row); });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

TEST(SegmentTest, XformRoundTrip) {
  Random rng(1);
  std::vector<Row> rows = RandomXformRows(rng, 1500);
  auto seg = Segment::Build(Segment::Kind::kXform, kRun, rows);
  ASSERT_TRUE(seg.ok()) << seg.status().ToString();
  EXPECT_EQ(seg->kind(), Segment::Kind::kXform);
  EXPECT_EQ(seg->run(), kRun);
  EXPECT_EQ(seg->num_rows(), rows.size());
  auto decoded = seg->DecodeAllRows();
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ((*decoded)[i], rows[i]) << "row " << i;
  }
}

TEST(SegmentTest, XferRoundTrip) {
  Random rng(2);
  std::vector<Row> rows = RandomXferRows(rng, 1200);
  auto seg = Segment::Build(Segment::Kind::kXfer, kRun, rows);
  ASSERT_TRUE(seg.ok()) << seg.status().ToString();
  auto decoded = seg->DecodeAllRows();
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ((*decoded)[i], rows[i]) << "row " << i;
  }
}

TEST(SegmentTest, EmptySegment) {
  auto seg = Segment::Build(Segment::Kind::kXform, kRun, {});
  ASSERT_TRUE(seg.ok()) << seg.status().ToString();
  EXPECT_EQ(seg->num_rows(), 0u);
  EXPECT_EQ(seg->view_entries(Segment::kViewOut), 0u);
  auto decoded = seg->DecodeAllRows();
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
  Segment::Scratch scratch;
  Segment::ViewProbe probe;
  probe.pair = IdPair{1, 2}.Packed();
  EXPECT_TRUE(SegmentProbe(*seg, Segment::kViewOut, probe, &scratch).empty());
}

TEST(SegmentTest, BuildRejectsMalformedRows) {
  // Wrong run id in the run column.
  Row bad = XferRow(IdPair{1, 1}, {0}, IdPair{2, 2}, {1}, 5);
  bad[0] = Datum(static_cast<int64_t>(kRun + 1));
  EXPECT_FALSE(Segment::Build(Segment::Kind::kXfer, kRun, {bad}).ok());
  // Wrong width.
  EXPECT_FALSE(Segment::Build(Segment::Kind::kXform, kRun,
                              {XferRow(IdPair{1, 1}, {0}, IdPair{2, 2}, {1}, 5)})
                   .ok());
  // Xform in-side must be null or present as a whole triple.
  Row half = XformRow(0, true, IdPair{1, 1}, {0}, 1, false, {}, {}, 0);
  half[4] = Datum();  // value null while pair set
  EXPECT_FALSE(Segment::Build(Segment::Kind::kXform, kRun, {half}).ok());
  // Xfer columns are non-nullable.
  Row null_dst = XferRow(IdPair{1, 1}, {0}, IdPair{2, 2}, {1}, 5);
  null_dst[3] = Datum();
  EXPECT_FALSE(Segment::Build(Segment::Kind::kXfer, kRun, {null_dst}).ok());
}

TEST(SegmentTest, ProbesMatchReferenceAcrossWorkloads) {
  // Point, prefix, range, and residual-filtered probes on both views of
  // both layouts, randomized, against the brute-force reference.
  for (uint64_t seed : {11u, 12u, 13u}) {
    Random rng(seed);
    std::vector<Row> xform = RandomXformRows(rng, 900);
    std::vector<Row> xfer = RandomXferRows(rng, 700);
    auto xform_seg = Segment::Build(Segment::Kind::kXform, kRun, xform);
    auto xfer_seg = Segment::Build(Segment::Kind::kXfer, kRun, xfer);
    ASSERT_TRUE(xform_seg.ok() && xfer_seg.ok());

    struct ViewSpec {
      const Segment* seg;
      const std::vector<Row>* rows;
      size_t view;
      size_t pair_col;
      size_t path_col;
    };
    const ViewSpec specs[] = {
        {&*xform_seg, &xform, Segment::kViewOut, 5, 6},
        {&*xform_seg, &xform, Segment::kViewIn, 2, 3},
        {&*xfer_seg, &xfer, Segment::kViewOut, 1, 2},
        {&*xfer_seg, &xfer, Segment::kViewIn, 3, 4},
    };
    for (const ViewSpec& spec : specs) {
      for (int trial = 0; trial < 60; ++trial) {
        Segment::ViewProbe probe;
        // Mostly pairs that exist; sometimes absent ones.
        if (rng.Bernoulli(0.85) && !spec.rows->empty()) {
          const Row& r = (*spec.rows)[rng.Uniform(spec.rows->size())];
          if (r[spec.pair_col].is_null()) continue;
          probe.pair = r[spec.pair_col].AsIdPair().Packed();
        } else {
          probe.pair = IdPair{static_cast<uint32_t>(rng.Uniform(10)),
                              static_cast<uint32_t>(rng.Uniform(10))}
                           .Packed();
        }
        switch (rng.Uniform(4)) {
          case 0:  // prefix probe: whole pair
            break;
          case 1: {  // point probe
            probe.has_lo = probe.has_hi = true;
            uint64_t depth = rng.Uniform(4);
            for (uint64_t d = 0; d < depth; ++d) {
              probe.lo.push_back(static_cast<int32_t>(rng.Uniform(8)));
            }
            probe.hi = probe.lo;
            break;
          }
          case 2: {  // range probe
            probe.has_lo = probe.has_hi = true;
            probe.lo.push_back(static_cast<int32_t>(rng.Uniform(4)));
            probe.hi = probe.lo;
            probe.hi.back() += 1 + static_cast<int32_t>(rng.Uniform(3));
            break;
          }
          default: {  // residual-filtered range (the planner's shape)
            probe.has_lo = probe.has_hi = probe.has_residual = true;
            probe.lo.push_back(static_cast<int32_t>(rng.Uniform(4)));
            probe.residual = probe.lo;
            probe.hi = probe.lo;
            probe.hi.back() += 1;
            break;
          }
        }
        Segment::Scratch scratch;  // fresh: probes are independent
        auto got = SegmentProbe(*spec.seg, spec.view, probe, &scratch);
        auto want =
            ReferenceProbe(*spec.rows, spec.pair_col, spec.path_col, probe);
        ASSERT_EQ(got.size(), want.size())
            << "seed " << seed << " view " << spec.view << " trial " << trial;
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].first, want[i].first);
          EXPECT_EQ(got[i].second, want[i].second);
        }
      }
    }
  }
}

TEST(SegmentTest, SortedProbeSequenceReusesPositions) {
  // A sorted batch sharing one Scratch must produce the same answers as
  // independent probes, with fewer directory searches than probes.
  Random rng(21);
  std::vector<Row> rows = RandomXferRows(rng, 2000);
  auto seg = Segment::Build(Segment::Kind::kXfer, kRun, rows);
  ASSERT_TRUE(seg.ok());

  // Sorted probe batch over existing (pair, path) targets.
  std::vector<Segment::ViewProbe> probes;
  for (int i = 0; i < 200; ++i) {
    const Row& r = rows[rng.Uniform(rows.size())];
    Segment::ViewProbe p;
    p.pair = r[1].AsIdPair().Packed();
    p.has_lo = p.has_hi = true;
    p.lo = r[2].AsIndexPath();
    p.hi = p.lo;
    probes.push_back(std::move(p));
  }
  std::sort(probes.begin(), probes.end(),
            [](const Segment::ViewProbe& a, const Segment::ViewProbe& b) {
              if (a.pair != b.pair) return a.pair < b.pair;
              return ComparePathRef(a.lo, b.lo) < 0;
            });

  Segment::Scratch shared;
  Segment::ProbeCounts batch_counts;
  std::vector<std::vector<std::pair<uint64_t, Row>>> batch_results;
  for (const auto& p : probes) {
    std::vector<std::pair<uint64_t, Row>> out;
    Status st = seg->ProbeView(Segment::kViewOut, p, &shared, &batch_counts,
                               [&](uint64_t ordinal, const Row& row) {
                                 out.emplace_back(ordinal, row);
                               });
    ASSERT_TRUE(st.ok()) << st.ToString();
    batch_results.push_back(std::move(out));
  }
  for (size_t i = 0; i < probes.size(); ++i) {
    Segment::Scratch fresh;
    auto want = SegmentProbe(*seg, Segment::kViewOut, probes[i], &fresh);
    ASSERT_EQ(batch_results[i].size(), want.size()) << "probe " << i;
    for (size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(batch_results[i][j].first, want[j].first);
      EXPECT_EQ(batch_results[i][j].second, want[j].second);
    }
  }
  // Forward reuse must have kicked in: strictly fewer searches than
  // probes (duplicates and near-neighbours continue from position).
  EXPECT_LT(batch_counts.searches, probes.size());
  EXPECT_GT(batch_counts.entries_examined, 0u);
}

TEST(SegmentTest, ScratchRowReferencesStayValid) {
  // Rows handed to emit callbacks point into the scratch cache and must
  // stay valid across later probes on the same scratch.
  Random rng(31);
  std::vector<Row> rows = RandomXferRows(rng, 1100);
  auto seg = Segment::Build(Segment::Kind::kXfer, kRun, rows);
  ASSERT_TRUE(seg.ok());
  Segment::Scratch scratch;
  std::vector<const Row*> pinned;
  std::vector<Row> copies;
  for (int i = 0; i < 50; ++i) {
    const Row& r = rows[rng.Uniform(rows.size())];
    Segment::ViewProbe p;
    p.pair = r[1].AsIdPair().Packed();
    p.has_lo = p.has_hi = true;
    p.lo = r[2].AsIndexPath();
    p.hi = p.lo;
    Segment::ProbeCounts counts;
    Status st = seg->ProbeView(Segment::kViewOut, p, &scratch, &counts,
                               [&](uint64_t, const Row& row) {
                                 pinned.push_back(&row);
                                 copies.push_back(row);
                               });
    ASSERT_TRUE(st.ok());
  }
  for (size_t i = 0; i < pinned.size(); ++i) {
    EXPECT_EQ(*pinned[i], copies[i]) << "row reference " << i << " invalidated";
  }
}

/// Xfer rows whose src path is {i}: every (src pair, path) is unique,
/// so a point probe on row i's src side matches exactly row i.
std::vector<Row> UniqueSrcXferRows(size_t n) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(XferRow(IdPair{1, 0}, {static_cast<int32_t>(i)},
                           IdPair{2, 1}, {static_cast<int32_t>(i % 7)},
                           static_cast<int64_t>(i)));
  }
  return rows;
}

Segment::ViewProbe SrcPointProbe(const Row& row) {
  Segment::ViewProbe p;
  p.pair = row[1].AsIdPair().Packed();
  p.has_lo = p.has_hi = true;
  p.lo = row[2].AsIndexPath();
  p.hi = p.lo;
  return p;
}

TEST(SegmentTest, PointProbeMaterializesOnlyEmittedRows) {
  // A point probe into a full block decodes that block once and builds
  // a Row for the one ordinal it emits, not for the block. The same
  // ordinal emitted again on the same scratch reuses that Row.
  constexpr size_t kBlock = Segment::kRowsPerBlock;
  std::vector<Row> rows = UniqueSrcXferRows(2 * kBlock);
  auto seg = Segment::Build(Segment::Kind::kXfer, kRun, rows);
  ASSERT_TRUE(seg.ok()) << seg.status().ToString();
  Segment::Scratch scratch;
  Segment::ProbeCounts counts;
  std::vector<std::pair<uint64_t, const Row*>> emitted;
  auto probe = [&](size_t i) {
    Status st = seg->ProbeView(Segment::kViewOut, SrcPointProbe(rows[i]),
                               &scratch, &counts,
                               [&](uint64_t ordinal, const Row& row) {
                                 emitted.emplace_back(ordinal, &row);
                               });
    ASSERT_TRUE(st.ok()) << st.ToString();
  };
  const size_t mid = kBlock / 2;  // inside block 0, off its edges
  probe(mid);
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0].first, mid);
  EXPECT_EQ(*emitted[0].second, rows[mid]);
  EXPECT_EQ(counts.blocks_decoded, 1u);
  EXPECT_EQ(counts.rows_materialized, 1u);

  probe(mid);
  ASSERT_EQ(emitted.size(), 2u);
  EXPECT_EQ(emitted[1].second, emitted[0].second);
  EXPECT_EQ(counts.blocks_decoded, 1u);
  EXPECT_EQ(counts.rows_materialized, 1u);

  probe(mid + 1);  // same block: no second decode
  ASSERT_EQ(emitted.size(), 3u);
  EXPECT_EQ(*emitted[2].second, rows[mid + 1]);
  EXPECT_EQ(counts.blocks_decoded, 1u);
  EXPECT_EQ(counts.rows_materialized, 2u);
}

TEST(SegmentTest, EarlierRowsSurviveLaterBlockDecodes) {
  // Row& emitted by earlier probes on one scratch are unchanged after
  // later probes decode other blocks (and revisit the first one). The
  // targets sit in blocks 0, 0, 1, 2, 3, 3, 0, 1; block 3 is the partial
  // last one.
  constexpr size_t kBlock = Segment::kRowsPerBlock;
  std::vector<Row> rows = UniqueSrcXferRows(3 * kBlock + kBlock / 2);
  auto seg = Segment::Build(Segment::Kind::kXfer, kRun, rows);
  ASSERT_TRUE(seg.ok()) << seg.status().ToString();
  Segment::Scratch scratch;
  Segment::ProbeCounts counts;
  std::vector<std::pair<const Row*, Row>> pinned;
  const size_t targets[] = {5,
                            kBlock - 1,
                            kBlock,
                            2 * kBlock + kBlock / 2,
                            3 * kBlock,
                            rows.size() - 1,
                            kBlock / 4,
                            2 * kBlock - 1};
  for (size_t i : targets) {
    Status st = seg->ProbeView(Segment::kViewOut, SrcPointProbe(rows[i]),
                               &scratch, &counts,
                               [&](uint64_t, const Row& row) {
                                 pinned.emplace_back(&row, row);
                               });
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  ASSERT_EQ(pinned.size(), std::size(targets));
  EXPECT_EQ(counts.blocks_decoded, 4u);
  EXPECT_EQ(counts.rows_materialized, std::size(targets));
  for (size_t k = 0; k < pinned.size(); ++k) {
    EXPECT_EQ(*pinned[k].first, pinned[k].second) << "probe " << k;
    EXPECT_EQ(pinned[k].second, rows[targets[k]]) << "probe " << k;
  }
}

TEST(SegmentTest, SortedBatchStepsOverBlocksWithoutDecodingThem) {
  // Point probes ten blocks apart, in view order, on one scratch. Each
  // target sits inside its block, off the edges, so after the first
  // probe's directory search every later probe steps over the nine
  // blocks between by their directory keys: it scans only its target's
  // view block and decodes only its target's row block. The view lists
  // row i at entry i, so view and row blocks coincide.
  constexpr size_t kBlock = Segment::kRowsPerBlock;
  constexpr size_t kGapBlocks = 10;
  constexpr size_t kProbes = 16;
  std::vector<Row> rows = UniqueSrcXferRows(kGapBlocks * kProbes * kBlock);
  auto seg = Segment::Build(Segment::Kind::kXfer, kRun, rows);
  ASSERT_TRUE(seg.ok()) << seg.status().ToString();
  Segment::Scratch scratch;
  Segment::ProbeCounts counts;
  for (size_t k = 0; k < kProbes; ++k) {
    const size_t target = k * kGapBlocks * kBlock + kBlock / 2;
    std::vector<uint64_t> emitted;
    Status st = seg->ProbeView(Segment::kViewOut, SrcPointProbe(rows[target]),
                               &scratch, &counts,
                               [&](uint64_t ordinal, const Row& row) {
                                 EXPECT_EQ(row, rows[ordinal]);
                                 emitted.push_back(ordinal);
                               });
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(emitted, std::vector<uint64_t>{target});
  }
  EXPECT_EQ(counts.view_blocks_scanned, kProbes);
  EXPECT_EQ(counts.blocks_decoded, kProbes);
  EXPECT_EQ(counts.rows_materialized, kProbes);
  // One search for the whole batch. Every gap is 320 entries, which
  // the 512-row format's walk (up to eight blocks past the current
  // one) also covered, so it searched once as well.
  EXPECT_EQ(counts.searches, 1u);
}

TEST(SegmentTest, ForwardWalkReSearchesOnlyPastItsBound) {
  // The walk covers 9 * 512 entries past the current one, the farthest
  // the 512-row format's eight-block walk could reach. Two sorted
  // probes 4600 entries apart share one search; 5000 apart, the second
  // searches again — as it did in the 512-row format, whose walk from
  // block 0 stopped at block 8 (entries up to 4607).
  std::vector<Row> rows = UniqueSrcXferRows(6000);
  auto seg = Segment::Build(Segment::Kind::kXfer, kRun, rows);
  ASSERT_TRUE(seg.ok()) << seg.status().ToString();
  for (auto [gap, searches] : {std::pair<size_t, uint64_t>{4600, 1},
                               std::pair<size_t, uint64_t>{5000, 2}}) {
    Segment::Scratch scratch;
    Segment::ProbeCounts counts;
    for (size_t target : {size_t{3}, 3 + gap}) {
      size_t emitted = 0;
      Status st = seg->ProbeView(Segment::kViewOut,
                                 SrcPointProbe(rows[target]), &scratch, &counts,
                                 [&](uint64_t ordinal, const Row&) {
                                   EXPECT_EQ(ordinal, target);
                                   ++emitted;
                                 });
      ASSERT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(emitted, 1u);
    }
    EXPECT_EQ(counts.searches, searches) << "gap " << gap;
    EXPECT_LE(counts.view_blocks_scanned, 3u) << "gap " << gap;
  }
}

TEST(SegmentTest, NullSidesStraddlingBlockBoundaryDecodePerOrdinal) {
  // Xform rows around the end of block 0 (12 rows before the boundary
  // to 18 after it) alternate a null in-side and a null out-side, so
  // each block's presence slots start mid-pattern. Every (ordinal, row)
  // a probe emits must equal the full decode's row at that ordinal.
  constexpr size_t kBlock = Segment::kRowsPerBlock;
  std::vector<Row> rows;
  const size_t n = 2 * kBlock + 30;
  for (size_t i = 0; i < n; ++i) {
    const bool near_edge = i + 12 >= kBlock && i < kBlock + 18;
    const bool has_in = !near_edge || i % 2 == 0;
    const bool has_out = !near_edge || i % 2 == 1 || i % 5 == 0;
    const auto e = static_cast<int32_t>(i);
    rows.push_back(XformRow(static_cast<int64_t>(i), has_in,
                            IdPair{static_cast<uint32_t>(i % 3), 0}, {e % 11},
                            100 + e, has_out,
                            IdPair{static_cast<uint32_t>(i % 3), 1},
                            {e % 13, e % 2}, 200 + e));
  }
  auto seg = Segment::Build(Segment::Kind::kXform, kRun, rows);
  ASSERT_TRUE(seg.ok()) << seg.status().ToString();
  auto all = seg->DecodeAllRows();
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(*all, rows);

  size_t checked = 0;
  for (size_t view : {Segment::kViewOut, Segment::kViewIn}) {
    Segment::Scratch scratch;
    for (uint32_t proc = 0; proc < 3; ++proc) {
      Segment::ViewProbe probe;  // whole pair: every entry of the view
      probe.pair = IdPair{proc, view == Segment::kViewOut ? 1u : 0u}.Packed();
      Segment::ProbeCounts counts;
      Status st = seg->ProbeView(view, probe, &scratch, &counts,
                                 [&](uint64_t ordinal, const Row& row) {
                                   ASSERT_LT(ordinal, all->size());
                                   EXPECT_EQ(row, (*all)[ordinal])
                                       << "view " << view << " ordinal "
                                       << ordinal;
                                   ++checked;
                                 });
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
  }
  EXPECT_EQ(checked, seg->view_entries(Segment::kViewOut) +
                         seg->view_entries(Segment::kViewIn));
}

TEST(SegmentTest, RejectsTruncationAtEveryLength) {
  Random rng(41);
  std::vector<Row> rows = RandomXferRows(rng, 60);
  auto seg = Segment::Build(Segment::Kind::kXfer, kRun, rows);
  ASSERT_TRUE(seg.ok());
  const std::string& bytes = seg->bytes();
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto truncated = Segment::FromBytes(
        std::make_shared<const std::string>(bytes.substr(0, len)));
    EXPECT_FALSE(truncated.ok()) << "prefix of " << len << " bytes parsed";
  }
}

TEST(SegmentTest, RejectsTrailingGarbage) {
  Random rng(42);
  std::vector<Row> rows = RandomXformRows(rng, 40);
  auto seg = Segment::Build(Segment::Kind::kXform, kRun, rows);
  ASSERT_TRUE(seg.ok());
  auto bad = Segment::FromBytes(
      std::make_shared<const std::string>(seg->bytes() + "x"));
  EXPECT_FALSE(bad.ok());
}

TEST(SegmentTest, RejectsForgedElementCounts) {
  // A short buffer claiming a huge dictionary must be rejected by the
  // length check, not by attempting the allocation.
  std::string forged;
  forged += "PSEG";
  forged.push_back(2);  // version
  forged.push_back(0);  // kind
  forged.push_back(3);  // run
  forged.push_back(0);  // nrows
  // npairs = 2^35 as a varint: 0x80 0x80 0x80 0x80 0x80 0x01
  for (int i = 0; i < 5; ++i) forged.push_back(static_cast<char>(0x80));
  forged.push_back(0x01);
  auto parsed =
      Segment::FromBytes(std::make_shared<const std::string>(forged));
  EXPECT_FALSE(parsed.ok());

  // Likewise a row-block count inconsistent with nrows.
  Random rng(43);
  std::vector<Row> rows = RandomXferRows(rng, 10);
  auto seg = Segment::Build(Segment::Kind::kXfer, kRun, rows);
  ASSERT_TRUE(seg.ok());
  std::string bytes = seg->bytes();
  // nrows is a single varint byte (10) right after magic+version+kind+run.
  ASSERT_EQ(bytes[7], 10);
  bytes[7] = 11;
  EXPECT_FALSE(
      Segment::FromBytes(std::make_shared<const std::string>(bytes)).ok());
}

TEST(SegmentTest, FuzzedPayloadsNeverCrash) {
  // Mutation corpus over valid segments of both kinds: random byte
  // flips, truncations, extensions. FromBytes must return a Status —
  // never crash, hang, or allocate from an untrusted count — and any
  // mutant that still parses must also survive a full decode and a few
  // probes (parse acceptance implies decode safety).
  Random rng(20260808);
  std::vector<std::string> seeds;
  {
    Random gen(51);
    seeds.push_back(
        Segment::Build(Segment::Kind::kXform, kRun, RandomXformRows(gen, 700))
            ->bytes());
    seeds.push_back(
        Segment::Build(Segment::Kind::kXfer, kRun, RandomXferRows(gen, 600))
            ->bytes());
    seeds.push_back(Segment::Build(Segment::Kind::kXform, kRun, {})->bytes());
  }
  for (const std::string& seed : seeds) {
    for (int i = 0; i < 2000; ++i) {
      std::string mutant = seed;
      switch (rng.Uniform(3)) {
        case 0: {  // flip 1-4 bytes
          uint64_t flips = 1 + rng.Uniform(4);
          for (uint64_t f = 0; f < flips; ++f) {
            mutant[rng.Uniform(mutant.size())] =
                static_cast<char>(rng.Uniform(256));
          }
          break;
        }
        case 1:  // truncate
          mutant.resize(rng.Uniform(mutant.size()));
          break;
        default:  // extend with junk
          mutant.append(1 + rng.Uniform(16), static_cast<char>(rng.Next()));
          break;
      }
      auto parsed =
          Segment::FromBytes(std::make_shared<const std::string>(mutant));
      if (!parsed.ok()) continue;
      auto rows = parsed->DecodeAllRows();
      if (rows.ok()) {
        EXPECT_EQ(rows->size(), parsed->num_rows());
      }
      Segment::Scratch scratch;
      Segment::ViewProbe probe;
      probe.pair = IdPair{1, 1}.Packed();
      Segment::ProbeCounts counts;
      (void)parsed->ProbeView(Segment::kViewOut, probe, &scratch, &counts,
                              [](uint64_t, const Row&) {});
    }
  }
}

TEST(SegmentTest, CanonicalReencode) {
  // Build(DecodeAllRows(seg)) must reproduce the exact bytes: there is
  // one encoding per logical content, which is what makes segment blobs
  // in saved images comparable byte-for-byte.
  for (uint64_t seed : {61u, 62u}) {
    Random rng(seed);
    std::vector<Row> xform = RandomXformRows(rng, 800);
    auto seg = Segment::Build(Segment::Kind::kXform, kRun, xform);
    ASSERT_TRUE(seg.ok());
    auto rows = seg->DecodeAllRows();
    ASSERT_TRUE(rows.ok());
    auto again = Segment::Build(Segment::Kind::kXform, kRun, *rows);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->bytes(), seg->bytes());

    std::vector<Row> xfer = RandomXferRows(rng, 650);
    auto xseg = Segment::Build(Segment::Kind::kXfer, kRun, xfer);
    ASSERT_TRUE(xseg.ok());
    auto xrows = xseg->DecodeAllRows();
    ASSERT_TRUE(xrows.ok());
    auto xagain = Segment::Build(Segment::Kind::kXfer, kRun, *xrows);
    ASSERT_TRUE(xagain.ok());
    EXPECT_EQ(xagain->bytes(), xseg->bytes());
  }
}

TEST(SegmentTest, FromBytesRoundTripsSharedBuffer) {
  Random rng(71);
  std::vector<Row> rows = RandomXferRows(rng, 300);
  auto seg = Segment::Build(Segment::Kind::kXfer, kRun, rows);
  ASSERT_TRUE(seg.ok());
  auto reparsed = Segment::FromBytes(seg->shared_bytes());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->num_rows(), rows.size());
  EXPECT_EQ(reparsed->bytes(), seg->bytes());
  // Footprint is dominated by the shared buffer, far below the
  // materialized rows.
  size_t raw = 0;
  for (const Row& r : rows) raw += RowApproxBytes(r);
  EXPECT_LT(seg->ApproxMemoryUsage(), raw);
}

}  // namespace
}  // namespace provlin::storage
