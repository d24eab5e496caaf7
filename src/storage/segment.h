#ifndef PROVLIN_STORAGE_SEGMENT_H_
#define PROVLIN_STORAGE_SEGMENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/datum.h"

namespace provlin::storage {

/// Immutable compressed representation of one run's rows of a trace
/// table (DESIGN.md §13). The encoded buffer IS the resident form: a
/// sealed run keeps only this byte string in memory, and probes answer
/// directly on it — binary search over per-block first keys, then a
/// bounds-checked delta scan inside the one block (or few blocks) a
/// probe touches. Each row block a probe's matches live in is decoded
/// once into flat columns, and a Row is built only for each ordinal the
/// probe emits — both held by a caller-owned Scratch; nothing decoded
/// outlives it.
///
/// Two row layouts are supported, mirroring the provenance schema
/// (provenance/schema.cc) without depending on it:
///
///   kXform — 8 columns:
///     run INT | event INT | in IDPAIR? | in_index PATH? | in_value INT?
///     | out IDPAIR? | out_index PATH? | out_value INT?
///     The three in-side columns are null together, likewise out-side.
///   kXfer — 6 columns, all non-null:
///     run INT | src IDPAIR | src_index PATH | dst IDPAIR
///     | dst_index PATH | value INT
///
/// Encoding, per block of at most kRowsPerBlock rows (all integers are
/// LEB128 varints; signed values zigzag):
///   - event/value ids: delta from the previous row in the block;
///   - (processor, port) IdPairs: dictionary-run encoding — a sorted
///     per-segment dictionary of packed u64 pairs, blocks carrying
///     (dict_id, run_length) pairs;
///   - index paths: shared-prefix delta chains — (lcp, suffix) against
///     the previous path in the stream;
///   - nullability: one presence bitmap per optional side.
///
/// On top of the row blocks sit two sorted views per segment (xform:
/// out-side and in-side; xfer: src-side and dst-side). A view lists
/// (pair, path, ordinal) for every row whose side is non-null, sorted
/// exactly like the corresponding B+tree index key (run, pair, path) —
/// run is constant per segment — so a view scan enumerates matches in
/// the same (key, rid) order the B+tree path produces. Views use the
/// same block structure; the in-memory object keeps only a per-block
/// directory (byte range + first key) for binary search and for the
/// forward walk of sorted probe sequences, which steps over blocks by
/// their first keys without decoding them.
///
/// FromBytes() fully validates structure (bounds, counts vs payload,
/// block sortedness, dictionary references, ordinal ranges); decoding
/// after a successful parse cannot read out of bounds. Untrusted counts
/// are checked against remaining bytes before any allocation.
class Segment {
 public:
  enum class Kind : uint8_t { kXform = 0, kXfer = 1 };

  /// Rows per encoded block, for both row blocks and view blocks. The
  /// unit of transient decode: probes never decode more than the blocks
  /// their matches live in, and never build rows they do not emit. It
  /// is sized to a focused probe, which returns a few rows: after its
  /// directory search a probe decodes at most 32 rows of columns per
  /// block it emits from and scans at most 32 view entries to reach lo.
  static constexpr size_t kRowsPerBlock = 32;

  /// Per-view inclusive probe bounds over (pair, path). An unset bound
  /// extends to the pair's full extent, so
  ///   {pair}                  = all entries of the pair (prefix probe),
  ///   {pair, lo==hi}          = exact-path point probe,
  ///   {pair, lo, hi}          = inclusive path range probe,
  /// mirroring BPlusTree::Probe::{kPrefix, kPoint, kRange} with the run
  /// column implied by the segment.
  struct ViewProbe {
    uint64_t pair = 0;  // IdPair::Packed()
    bool has_lo = false;
    bool has_hi = false;
    IndexPath lo;
    IndexPath hi;
    /// When set, only entries whose path extends `residual` are emitted;
    /// entries inside the bounds still count as examined — the
    /// segment-side twin of the planner's residual row filter, which
    /// also touches every candidate before rejecting it.
    bool has_residual = false;
    IndexPath residual;
  };

  /// Physical cost of a probe, reported back to the caller (the trace
  /// store maps these onto the storage counters: searches ~ descents).
  struct ProbeCounts {
    uint64_t entries_examined = 0;     // entries inside the probe bounds
    uint64_t searches = 0;             // fresh directory binary searches
    uint64_t blocks_decoded = 0;       // row blocks decoded into columns
    uint64_t rows_materialized = 0;    // Rows built for emitted ordinals
    uint64_t view_blocks_scanned = 0;  // view blocks a scan entered
  };

  /// Per-probe-call decode workspace: the row blocks probes touched,
  /// each decoded once into flat columns, the Rows built from them for
  /// emitted ordinals, and per-view stream positions so a sorted
  /// sequence of probes continues forward instead of re-searching (the
  /// MultiSeek equivalent). Row references handed to emit callbacks
  /// point into the scratch and stay valid for the scratch's lifetime —
  /// nothing is evicted, and an ordinal emitted twice yields the same
  /// Row. Use one Scratch per logical probe batch and drop it.
  class Scratch {
   public:
    Scratch();
    ~Scratch();
    Scratch(const Scratch&) = delete;
    Scratch& operator=(const Scratch&) = delete;

   private:
    friend class Segment;
    struct Impl;
    std::unique_ptr<Impl> impl_;
  };

  /// Number of sorted views (xform: out/in; xfer: src/dst).
  static constexpr size_t kNumViews = 2;
  /// View ids by side. kViewOut doubles as src for kXfer, kViewIn as dst.
  static constexpr size_t kViewOut = 0;
  static constexpr size_t kViewIn = 1;

  /// Encodes `rows` (one run's rows of a trace table, in insertion
  /// order; ordinal i = rows[i]). Validates layout: column count and
  /// kinds, run column equal to `run` everywhere, null-triple
  /// consistency for kXform, non-null everywhere for kXfer.
  static Result<Segment> Build(Kind kind, uint64_t run,
                               const std::vector<Row>& rows);

  /// Parses and validates an encoded segment. The buffer is shared, not
  /// copied — the caller may also hand it to Database::PutBlob.
  static Result<Segment> FromBytes(std::shared_ptr<const std::string> bytes);

  Segment(Segment&&) noexcept;
  Segment& operator=(Segment&&) noexcept;
  ~Segment();

  Kind kind() const;
  uint64_t run() const;
  size_t num_rows() const;
  /// Entries in view `view` (rows whose side is non-null).
  size_t view_entries(size_t view) const;

  const std::string& bytes() const;
  std::shared_ptr<const std::string> shared_bytes() const;

  /// Resident footprint: the encoded buffer plus the block directories.
  size_t ApproxMemoryUsage() const;

  /// Decodes every row in insertion (ordinal) order — unseal, scans,
  /// and the canonical re-encode check.
  Result<std::vector<Row>> DecodeAllRows() const;

  /// Executes one probe against view `view` (kViewOut/kViewIn),
  /// emitting (ordinal, row) for every entry within bounds, in (pair,
  /// path, ordinal) order — byte-identical to the B+tree (key, rid)
  /// order for the same probe. The Row& points into `scratch`.
  /// Sorted probe sequences sharing a scratch continue forward from the
  /// previous position when possible instead of re-searching.
  Status ProbeView(size_t view, const ViewProbe& probe, Scratch* scratch,
                   ProbeCounts* counts,
                   const std::function<void(uint64_t ordinal, const Row& row)>&
                       emit) const;

  /// Parsed-directory representation; defined in segment.cc (public so
  /// file-local decode helpers there can name it; still opaque here).
  struct Rep;

 private:
  Segment();
  std::unique_ptr<Rep> rep_;
};

/// Approximate heap bytes behind one datum (the variant itself plus any
/// string/path heap allocation). Shared by the resident-footprint
/// accounting in Table, BPlusTree, and the trace store's tier report.
size_t DatumApproxBytes(const Datum& d);
/// sizeof the row vector's heap plus every datum's heap.
size_t RowApproxBytes(const Row& row);

}  // namespace provlin::storage

#endif  // PROVLIN_STORAGE_SEGMENT_H_
