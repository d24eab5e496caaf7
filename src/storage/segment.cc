#include "storage/segment.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#include <span>
#include <unordered_map>

namespace provlin::storage {

namespace {

// Column ordinals of the two trace layouts (mirrors provenance/schema).
namespace xform_col {
enum { kRun = 0, kEvent, kIn, kInIndex, kInValue, kOut, kOutIndex, kOutValue };
constexpr size_t kWidth = 8;
}  // namespace xform_col
namespace xfer_col {
enum { kRun = 0, kSrc, kSrcIndex, kDst, kDstIndex, kValue };
constexpr size_t kWidth = 6;
}  // namespace xfer_col

constexpr char kMagic[4] = {'P', 'S', 'E', 'G'};
// Version 2 has 32-row blocks; version-1 segments (512-row blocks) are
// not read.
constexpr uint8_t kVersion = 2;
constexpr size_t kBlock = Segment::kRowsPerBlock;
// Forward-walk bound for sorted probe sequences, in view entries: when
// the next probe's first match lies further ahead than this, re-search
// the directory instead of walking (the leaf-chain walk analogue). It
// is no shorter than the longest walk of the 512-row format (the rest
// of one block plus eight more), so a sorted batch searches no more
// often than it did there.
constexpr size_t kMaxWalkEntries = 9 * 512;

// Entries (or rows) in block `b` of a stream of `total`: every block
// is full except the last.
size_t BlockCount(uint64_t total, size_t b) {
  return static_cast<size_t>(std::min<uint64_t>(kBlock, total - b * kBlock));
}

// ---------------------------------------------------------------------------
// Varint codec. LEB128; signed values zigzag. Deltas are mod-2^64
// (encoded as the wrapped unsigned difference), so decode never
// overflows regardless of input.
// ---------------------------------------------------------------------------

void PutU64(std::string& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);  // arithmetic shift
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

void PutS64(std::string& out, int64_t v) { PutU64(out, ZigZag(v)); }

// Wrapped delta so arbitrary int64 sequences round-trip without UB.
int64_t WrappedDelta(int64_t cur, int64_t prev) {
  return static_cast<int64_t>(static_cast<uint64_t>(cur) -
                              static_cast<uint64_t>(prev));
}
int64_t ApplyDelta(int64_t prev, int64_t delta) {
  return static_cast<int64_t>(static_cast<uint64_t>(prev) +
                              static_cast<uint64_t>(delta));
}

/// Bounds-checked reader over a byte span. Every primitive returns
/// false on truncation or malformed varints; callers translate that
/// into Status::Corruption. Counts read from the input are validated
/// against remaining() before any allocation sized by them.
struct Dec {
  const uint8_t* p = nullptr;
  const uint8_t* end = nullptr;

  size_t remaining() const { return static_cast<size_t>(end - p); }

  bool U8(uint8_t* v) {
    if (p >= end) return false;
    *v = *p++;
    return true;
  }

  bool U64(uint64_t* v) {
    uint64_t out = 0;
    int shift = 0;
    while (p < end) {
      uint8_t b = *p++;
      if (shift == 63 && (b & 0x7Eu) != 0) return false;  // overflow
      out |= static_cast<uint64_t>(b & 0x7Fu) << shift;
      if ((b & 0x80u) == 0) {
        *v = out;
        return true;
      }
      shift += 7;
      if (shift >= 64) return false;
    }
    return false;  // truncated
  }

  bool S64(int64_t* v) {
    uint64_t raw;
    if (!U64(&raw)) return false;
    *v = UnZigZag(raw);
    return true;
  }

  bool Skip(size_t n) {
    if (remaining() < n) return false;
    p += n;
    return true;
  }
};

// Path delta chain: (shared prefix length, suffix length, suffix
// components). `path` is updated in place (the previous path in the
// stream); block starts reset it to empty.
void PutPathDelta(std::string& out, const IndexPath& prev,
                  const IndexPath& cur) {
  size_t lcp = 0;
  size_t max = std::min(prev.size(), cur.size());
  while (lcp < max && prev[lcp] == cur[lcp]) ++lcp;
  PutU64(out, lcp);
  PutU64(out, cur.size() - lcp);
  for (size_t i = lcp; i < cur.size(); ++i) PutS64(out, cur[i]);
}

bool ReadPathDelta(Dec& d, IndexPath& path) {
  uint64_t lcp, slen;
  if (!d.U64(&lcp) || lcp > path.size()) return false;
  if (!d.U64(&slen) || slen > d.remaining()) return false;
  path.resize(lcp);
  for (uint64_t i = 0; i < slen; ++i) {
    int64_t c;
    if (!d.S64(&c) || c < INT32_MIN || c > INT32_MAX) return false;
    path.push_back(static_cast<int32_t>(c));
  }
  return true;
}

// Dictionary-run encoding of a pair column: (dict_id, run_length)
// repeated until `ids` is covered; adjacent runs always differ.
void PutDictRuns(std::string& out, const std::vector<uint32_t>& ids) {
  size_t i = 0;
  while (i < ids.size()) {
    size_t j = i;
    while (j < ids.size() && ids[j] == ids[i]) ++j;
    PutU64(out, ids[i]);
    PutU64(out, j - i);
    i = j;
  }
}

/// Streaming decode state for one dict-run column within a block.
struct RunReader {
  uint64_t pair = 0;   // current packed pair
  uint64_t left = 0;   // entries remaining in the current run
  uint64_t last_id = 0;
  bool first = true;

  // Reads the next element; `used` (when non-null) marks dictionary
  // references for the canonical-usage validation pass.
  bool Next(Dec& d, const std::vector<uint64_t>& dict, uint64_t* out,
            std::vector<bool>* used) {
    if (left == 0) {
      uint64_t id, len;
      if (!d.U64(&id) || id >= dict.size()) return false;
      if (!d.U64(&len) || len == 0) return false;
      if (!first && id == last_id) return false;  // non-canonical run split
      first = false;
      last_id = id;
      pair = dict[id];
      left = len;
      if (used != nullptr) (*used)[id] = true;
    }
    --left;
    *out = pair;
    return true;
  }
};

int ComparePath(std::span<const int32_t> a, std::span<const int32_t> b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

int ComparePairPath(uint64_t pa, const IndexPath& a, uint64_t pb,
                    const IndexPath& b) {
  if (pa != pb) return pa < pb ? -1 : 1;
  return ComparePath(a, b);
}

bool PathExtends(const IndexPath& path, const IndexPath& prefix) {
  if (path.size() < prefix.size()) return false;
  return std::equal(prefix.begin(), prefix.end(), path.begin());
}

Status Corrupt(const char* what) {
  return Status::Corruption(std::string("segment: ") + what);
}

}  // namespace

// ---------------------------------------------------------------------------
// Rep: shared encoded buffer + parse-time directories.
// ---------------------------------------------------------------------------

struct Segment::Rep {
  std::shared_ptr<const std::string> bytes;
  Kind kind = Kind::kXform;
  uint64_t run = 0;
  uint64_t nrows = 0;
  std::vector<uint64_t> pair_dict;

  /// One block's payload within bytes. Block b holds rows (or view
  /// entries) [b * kBlock, b * kBlock + BlockCount(total, b)).
  struct BlockSpan {
    size_t offset = 0;
    size_t len = 0;
  };
  std::vector<BlockSpan> row_blocks;

  /// One sorted view's block directory, held in flat arrays so that a
  /// directory costs a few allocations however many blocks it has.
  /// Block b's first key is (first_pair[b], FirstPath(b)).
  struct ViewDir {
    uint64_t entries = 0;
    std::vector<BlockSpan> blocks;
    std::vector<uint64_t> first_pair;
    std::vector<int32_t> first_parts;
    std::vector<size_t> first_off;  // blocks.size() + 1 offsets

    std::span<const int32_t> FirstPath(size_t b) const {
      return std::span<const int32_t>(first_parts)
          .subspan(first_off[b], first_off[b + 1] - first_off[b]);
    }
  };
  ViewDir views[kNumViews];
};

// ---------------------------------------------------------------------------
// Scratch
// ---------------------------------------------------------------------------

namespace {

/// Streaming cursor over one sorted view: decodes (pair, path, ordinal)
/// entries in order, holding the current entry. SeekBlock resets the
/// delta chains at a block boundary.
struct ViewStream {
  const Segment::Rep* rep = nullptr;
  size_t view = 0;
  bool valid = false;      // bound to a view, position meaningful
  bool exhausted = false;  // ran off the end; cur_* hold the last entry
  size_t block = 0;
  uint32_t consumed = 0;  // entries produced from the current block
  Dec dec;
  RunReader pairs;
  uint64_t cur_pair = 0;
  IndexPath cur_path;
  int64_t cur_ord = 0;

  const Segment::Rep::ViewDir& dir() const { return rep->views[view]; }

  // Index of the current entry within the view.
  size_t Position() const { return block * kBlock + consumed - 1; }

  // Positions at the first entry of block b, counting the block as
  // scanned. Returns false on internal decode failure (cannot happen
  // after FromBytes validation).
  bool SeekBlock(size_t b, Segment::ProbeCounts* counts) {
    ++counts->view_blocks_scanned;
    const auto& vb = dir().blocks[b];
    block = b;
    consumed = 0;
    const auto* base =
        reinterpret_cast<const uint8_t*>(rep->bytes->data()) + vb.offset;
    dec = Dec{base, base + vb.len};
    pairs = RunReader{};
    cur_path.clear();
    cur_ord = 0;
    exhausted = false;
    valid = true;
    return DecodeNext();
  }

  // Decodes the next entry of the current block into cur_*.
  bool DecodeNext() {
    uint64_t pair;
    if (!pairs.Next(dec, rep->pair_dict, &pair, nullptr)) return false;
    if (!ReadPathDelta(dec, cur_path)) return false;
    int64_t delta;
    if (!dec.S64(&delta)) return false;
    cur_pair = pair;
    cur_ord = ApplyDelta(cur_ord, delta);
    ++consumed;
    return true;
  }

  // Advances to the next entry, crossing block boundaries. On
  // exhaustion keeps cur_* as the last entry and flags exhausted.
  bool Advance(Segment::ProbeCounts* counts) {
    if (consumed < BlockCount(dir().entries, block)) return DecodeNext();
    if (block + 1 < dir().blocks.size()) return SeekBlock(block + 1, counts);
    exhausted = true;
    return false;
  }
};

/// One row block decoded into flat columns: fixed arrays of a block's
/// worth of entries, plus one buffer per side for its concatenated
/// paths, so a decode allocates at most those two buffers.
/// sides[0]/sides[1] are xform in/out or xfer src/dst, in stream order;
/// a side holds one slot per row whose side is present, in row order.
struct BlockColumns {
  struct Side {
    std::array<int32_t, kBlock> slot;    // xform, per row: slot or -1
    std::array<uint64_t, kBlock> pairs;  // per slot: packed IdPair
    std::array<int64_t, kBlock> values;  // per slot; unset for xfer dst
    // Slot k's path is parts[path_off[k], path_off[k + 1]).
    std::array<size_t, kBlock + 1> path_off;
    std::vector<int32_t> parts;

    IndexPath Path(size_t k) const {
      return IndexPath(parts.begin() + static_cast<ptrdiff_t>(path_off[k]),
                       parts.begin() + static_cast<ptrdiff_t>(path_off[k + 1]));
    }
  };
  std::array<int64_t, kBlock> events;  // xform, per row
  Side sides[2];
};

}  // namespace

struct Segment::Scratch::Impl {
  const Segment::Rep* bound = nullptr;
  ViewStream streams[kNumViews];
  // Row blocks decoded into columns, keyed by block index: each block a
  // probe touches is decoded once per scratch.
  std::unordered_map<size_t, BlockColumns> blocks;
  // Rows built for emitted ordinals only, keyed by ordinal. Node-based
  // and never evicted for the scratch's lifetime, so emitted Row& stay
  // valid.
  std::unordered_map<uint64_t, Row> rows;
};

Segment::Scratch::Scratch() : impl_(std::make_unique<Impl>()) {}
Segment::Scratch::~Scratch() = default;

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

Segment::Segment() : rep_(std::make_unique<Rep>()) {}
Segment::Segment(Segment&&) noexcept = default;
Segment& Segment::operator=(Segment&&) noexcept = default;
Segment::~Segment() = default;

Segment::Kind Segment::kind() const { return rep_->kind; }
uint64_t Segment::run() const { return rep_->run; }
size_t Segment::num_rows() const { return rep_->nrows; }
size_t Segment::view_entries(size_t view) const {
  return rep_->views[view].entries;
}
const std::string& Segment::bytes() const { return *rep_->bytes; }
std::shared_ptr<const std::string> Segment::shared_bytes() const {
  return rep_->bytes;
}

size_t Segment::ApproxMemoryUsage() const {
  size_t total = sizeof(Rep) + rep_->bytes->capacity();
  total += rep_->pair_dict.capacity() * sizeof(uint64_t);
  total += rep_->row_blocks.capacity() * sizeof(Rep::BlockSpan);
  for (const auto& view : rep_->views) {
    total += view.blocks.capacity() * sizeof(Rep::BlockSpan);
    total += view.first_pair.capacity() * sizeof(uint64_t);
    total += view.first_parts.capacity() * sizeof(int32_t);
    total += view.first_off.capacity() * sizeof(size_t);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Build
// ---------------------------------------------------------------------------

namespace {

Status ValidateBuildRows(Segment::Kind kind, uint64_t run,
                         const std::vector<Row>& rows) {
  const bool xform = kind == Segment::Kind::kXform;
  const size_t width = xform ? xform_col::kWidth : xfer_col::kWidth;
  for (const Row& row : rows) {
    if (row.size() != width) {
      return Status::InvalidArgument("segment: row width mismatch");
    }
    if (row[0].kind() != DatumKind::kInt ||
        static_cast<uint64_t>(row[0].AsInt()) != run) {
      return Status::InvalidArgument("segment: run column mismatch");
    }
    auto side_ok = [&](size_t pair_c, size_t path_c, size_t val_c,
                       bool optional) {
      bool present = !row[pair_c].is_null();
      if (!present) {
        return optional && row[path_c].is_null() && row[val_c].is_null();
      }
      return row[pair_c].kind() == DatumKind::kIdPair &&
             row[path_c].kind() == DatumKind::kIndexPath &&
             row[val_c].kind() == DatumKind::kInt;
    };
    if (xform) {
      if (row[xform_col::kEvent].kind() != DatumKind::kInt ||
          !side_ok(xform_col::kIn, xform_col::kInIndex, xform_col::kInValue,
                   true) ||
          !side_ok(xform_col::kOut, xform_col::kOutIndex, xform_col::kOutValue,
                   true)) {
        return Status::InvalidArgument("segment: malformed xform row");
      }
    } else {
      if (!side_ok(xfer_col::kSrc, xfer_col::kSrcIndex, xfer_col::kValue,
                   false) ||
          row[xfer_col::kDst].kind() != DatumKind::kIdPair ||
          row[xfer_col::kDstIndex].kind() != DatumKind::kIndexPath) {
        return Status::InvalidArgument("segment: malformed xfer row");
      }
    }
  }
  return Status::OK();
}

/// One sorted-view entry during Build.
struct BuildEntry {
  uint64_t pair;
  const IndexPath* path;
  uint64_t ordinal;
};

void EncodeView(std::string& out, const std::vector<BuildEntry>& entries,
                const std::unordered_map<uint64_t, uint32_t>& dict_ids) {
  PutU64(out, entries.size());
  size_t nblocks = (entries.size() + kBlock - 1) / kBlock;
  PutU64(out, nblocks);
  std::string payload;  // reused across blocks
  for (size_t b = 0; b < nblocks; ++b) {
    size_t begin = b * kBlock;
    size_t count = std::min(kBlock, entries.size() - begin);
    PutU64(out, count);
    // Interleaved layout, matching the streaming probe decode: each
    // dict-run header (id, length) is followed by that run's
    // (path delta, ordinal delta) pairs; delta chains reset per block.
    payload.clear();
    IndexPath prev_path;
    int64_t prev_ord = 0;
    size_t i = 0;
    while (i < count) {
      uint32_t id = dict_ids.at(entries[begin + i].pair);
      size_t j = i;
      while (j < count && dict_ids.at(entries[begin + j].pair) == id) ++j;
      PutU64(payload, id);
      PutU64(payload, j - i);
      for (; i < j; ++i) {
        PutPathDelta(payload, prev_path, *entries[begin + i].path);
        prev_path = *entries[begin + i].path;
        int64_t ord = static_cast<int64_t>(entries[begin + i].ordinal);
        PutS64(payload, WrappedDelta(ord, prev_ord));
        prev_ord = ord;
      }
    }
    PutU64(out, payload.size());
    out.append(payload);
  }
}

void EncodePresence(std::string& out, const std::vector<Row>& rows,
                    size_t begin, size_t count, size_t col) {
  for (size_t byte = 0; byte * 8 < count; ++byte) {
    uint8_t b = 0;
    for (size_t bit = 0; bit < 8 && byte * 8 + bit < count; ++bit) {
      if (!rows[begin + byte * 8 + bit][col].is_null()) {
        b |= static_cast<uint8_t>(1u << bit);
      }
    }
    out.push_back(static_cast<char>(b));
  }
}

// Encodes one side's (pair, path, value) columns over the subset of
// rows in [begin, begin+count) whose pair column is non-null.
void EncodeSide(std::string& out, const std::vector<Row>& rows, size_t begin,
                size_t count, size_t pair_c, size_t path_c, size_t val_c,
                const std::unordered_map<uint64_t, uint32_t>& dict_ids) {
  std::vector<uint32_t> ids;
  ids.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const Row& row = rows[begin + i];
    if (row[pair_c].is_null()) continue;
    ids.push_back(dict_ids.at(row[pair_c].AsIdPair().Packed()));
  }
  PutDictRuns(out, ids);
  IndexPath prev_path;
  for (size_t i = 0; i < count; ++i) {
    const Row& row = rows[begin + i];
    if (row[pair_c].is_null()) continue;
    PutPathDelta(out, prev_path, row[path_c].AsIndexPath());
    prev_path = row[path_c].AsIndexPath();
  }
  int64_t prev = 0;
  for (size_t i = 0; i < count; ++i) {
    const Row& row = rows[begin + i];
    if (row[pair_c].is_null()) continue;
    PutS64(out, WrappedDelta(row[val_c].AsInt(), prev));
    prev = row[val_c].AsInt();
  }
}

}  // namespace

Result<Segment> Segment::Build(Kind kind, uint64_t run,
                               const std::vector<Row>& rows) {
  PROVLIN_RETURN_IF_ERROR(ValidateBuildRows(kind, run, rows));
  const bool xform = kind == Kind::kXform;

  // Pair dictionary: sorted unique packed pairs across all pair columns.
  std::vector<uint64_t> dict;
  auto collect = [&](size_t col) {
    for (const Row& row : rows) {
      if (!row[col].is_null()) dict.push_back(row[col].AsIdPair().Packed());
    }
  };
  if (xform) {
    collect(xform_col::kIn);
    collect(xform_col::kOut);
  } else {
    collect(xfer_col::kSrc);
    collect(xfer_col::kDst);
  }
  std::sort(dict.begin(), dict.end());
  dict.erase(std::unique(dict.begin(), dict.end()), dict.end());
  std::unordered_map<uint64_t, uint32_t> dict_ids;
  dict_ids.reserve(dict.size());
  for (size_t i = 0; i < dict.size(); ++i) {
    dict_ids.emplace(dict[i], static_cast<uint32_t>(i));
  }

  std::string out;
  out.append(kMagic, sizeof(kMagic));
  out.push_back(static_cast<char>(kVersion));
  out.push_back(static_cast<char>(kind));
  PutU64(out, run);
  PutU64(out, rows.size());
  PutU64(out, dict.size());
  uint64_t prev_pair = 0;
  for (size_t i = 0; i < dict.size(); ++i) {
    PutU64(out, i == 0 ? dict[i] : dict[i] - prev_pair);
    prev_pair = dict[i];
  }

  // Row blocks.
  size_t nblocks = (rows.size() + kBlock - 1) / kBlock;
  PutU64(out, nblocks);
  std::string payload;  // reused across blocks
  for (size_t b = 0; b < nblocks; ++b) {
    size_t begin = b * kBlock;
    size_t count = std::min(kBlock, rows.size() - begin);
    PutU64(out, count);
    payload.clear();
    if (xform) {
      int64_t prev = 0;
      for (size_t i = 0; i < count; ++i) {
        int64_t ev = rows[begin + i][xform_col::kEvent].AsInt();
        PutS64(payload, WrappedDelta(ev, prev));
        prev = ev;
      }
      EncodePresence(payload, rows, begin, count, xform_col::kIn);
      EncodePresence(payload, rows, begin, count, xform_col::kOut);
      EncodeSide(payload, rows, begin, count, xform_col::kIn,
                 xform_col::kInIndex, xform_col::kInValue, dict_ids);
      EncodeSide(payload, rows, begin, count, xform_col::kOut,
                 xform_col::kOutIndex, xform_col::kOutValue, dict_ids);
    } else {
      EncodeSide(payload, rows, begin, count, xfer_col::kSrc,
                 xfer_col::kSrcIndex, xfer_col::kValue, dict_ids);
      // Dst side has no value column of its own; reuse the pair/path
      // streams and encode the shared value column once afterwards.
      std::vector<uint32_t> ids;
      ids.reserve(count);
      for (size_t i = 0; i < count; ++i) {
        ids.push_back(
            dict_ids.at(rows[begin + i][xfer_col::kDst].AsIdPair().Packed()));
      }
      PutDictRuns(payload, ids);
      IndexPath prev_path;
      for (size_t i = 0; i < count; ++i) {
        const IndexPath& p = rows[begin + i][xfer_col::kDstIndex].AsIndexPath();
        PutPathDelta(payload, prev_path, p);
        prev_path = p;
      }
    }
    PutU64(out, payload.size());
    out.append(payload);
  }

  // Sorted views: (pair, path, ordinal), same order as the B+tree key
  // (run, pair, path) with the rid tie-break.
  auto build_view = [&](size_t pair_c, size_t path_c) {
    std::vector<BuildEntry> entries;
    for (size_t i = 0; i < rows.size(); ++i) {
      if (rows[i][pair_c].is_null()) continue;
      entries.push_back(BuildEntry{rows[i][pair_c].AsIdPair().Packed(),
                                   &rows[i][path_c].AsIndexPath(), i});
    }
    std::sort(entries.begin(), entries.end(),
              [](const BuildEntry& a, const BuildEntry& b) {
                int c = ComparePairPath(a.pair, *a.path, b.pair, *b.path);
                if (c != 0) return c < 0;
                return a.ordinal < b.ordinal;
              });
    return entries;
  };
  if (xform) {
    EncodeView(out, build_view(xform_col::kOut, xform_col::kOutIndex),
               dict_ids);
    EncodeView(out, build_view(xform_col::kIn, xform_col::kInIndex), dict_ids);
  } else {
    EncodeView(out, build_view(xfer_col::kSrc, xfer_col::kSrcIndex), dict_ids);
    EncodeView(out, build_view(xfer_col::kDst, xfer_col::kDstIndex), dict_ids);
  }

  // Round through the validating parser so Build and FromBytes can
  // never disagree about what a well-formed segment is.
  return FromBytes(std::make_shared<const std::string>(std::move(out)));
}

// ---------------------------------------------------------------------------
// FromBytes: full structural validation + directory construction.
// ---------------------------------------------------------------------------

namespace {

/// Validates one row-block payload without materializing datums.
/// Tallies the per-side presence counts (for the view cross-check) and
/// marks dictionary usage.
Status ValidateRowBlock(Segment::Kind kind, Dec d, size_t count,
                        const std::vector<uint64_t>& dict,
                        std::vector<bool>* used, uint64_t* n_in,
                        uint64_t* n_out) {
  auto side = [&](size_t n) -> Status {
    RunReader runs;
    uint64_t pair;
    for (size_t i = 0; i < n; ++i) {
      if (!runs.Next(d, dict, &pair, used)) return Corrupt("bad pair runs");
    }
    if (runs.left != 0) return Corrupt("pair run overshoots block");
    IndexPath path;
    for (size_t i = 0; i < n; ++i) {
      if (!ReadPathDelta(d, path)) return Corrupt("bad path chain");
    }
    int64_t v;
    for (size_t i = 0; i < n; ++i) {
      if (!d.S64(&v)) return Corrupt("bad value delta");
    }
    return Status::OK();
  };

  if (kind == Segment::Kind::kXform) {
    int64_t v;
    for (size_t i = 0; i < count; ++i) {
      if (!d.S64(&v)) return Corrupt("bad event delta");
    }
    size_t nbytes = (count + 7) / 8;
    uint64_t in_count = 0, out_count = 0;
    for (int s = 0; s < 2; ++s) {
      uint64_t& tally = s == 0 ? in_count : out_count;
      for (size_t i = 0; i < nbytes; ++i) {
        uint8_t b;
        if (!d.U8(&b)) return Corrupt("truncated presence bitmap");
        if (i + 1 == nbytes && count % 8 != 0 &&
            (b >> (count % 8)) != 0) {
          return Corrupt("presence bitmap spare bits set");
        }
        tally += static_cast<uint64_t>(__builtin_popcount(b));
      }
    }
    PROVLIN_RETURN_IF_ERROR(side(in_count));
    PROVLIN_RETURN_IF_ERROR(side(out_count));
    *n_in += in_count;
    *n_out += out_count;
  } else {
    PROVLIN_RETURN_IF_ERROR(side(count));  // src pairs/paths + values
    // Dst side: pairs + paths only.
    RunReader runs;
    uint64_t pair;
    for (size_t i = 0; i < count; ++i) {
      if (!runs.Next(d, dict, &pair, used)) return Corrupt("bad pair runs");
    }
    if (runs.left != 0) return Corrupt("pair run overshoots block");
    IndexPath path;
    for (size_t i = 0; i < count; ++i) {
      if (!ReadPathDelta(d, path)) return Corrupt("bad path chain");
    }
  }
  if (d.remaining() != 0) return Corrupt("row block payload not consumed");
  return Status::OK();
}

}  // namespace

Result<Segment> Segment::FromBytes(
    std::shared_ptr<const std::string> bytes) {
  if (bytes == nullptr) return Status::InvalidArgument("segment: null buffer");
  Segment seg;
  Rep& rep = *seg.rep_;
  rep.bytes = std::move(bytes);
  const auto* base = reinterpret_cast<const uint8_t*>(rep.bytes->data());
  Dec d{base, base + rep.bytes->size()};

  if (d.remaining() < sizeof(kMagic) ||
      std::memcmp(d.p, kMagic, sizeof(kMagic)) != 0) {
    return Corrupt("bad magic");
  }
  d.p += sizeof(kMagic);
  uint8_t version, kind;
  if (!d.U8(&version) || version != kVersion) {
    return Corrupt("unsupported version");
  }
  if (!d.U8(&kind) || kind > static_cast<uint8_t>(Kind::kXfer)) {
    return Corrupt("bad kind");
  }
  rep.kind = static_cast<Kind>(kind);
  if (!d.U64(&rep.run)) return Corrupt("truncated run");
  if (!d.U64(&rep.nrows)) return Corrupt("truncated row count");

  // Pair dictionary (strictly increasing deltas).
  uint64_t npairs;
  if (!d.U64(&npairs)) return Corrupt("truncated dictionary count");
  if (npairs > d.remaining()) return Corrupt("dictionary count exceeds input");
  rep.pair_dict.reserve(npairs);
  uint64_t prev_pair = 0;
  for (uint64_t i = 0; i < npairs; ++i) {
    uint64_t delta;
    if (!d.U64(&delta)) return Corrupt("truncated dictionary");
    if (i > 0 && (delta == 0 || delta > UINT64_MAX - prev_pair)) {
      return Corrupt("dictionary not strictly increasing");
    }
    prev_pair = i == 0 ? delta : prev_pair + delta;
    rep.pair_dict.push_back(prev_pair);
  }
  std::vector<bool> used(rep.pair_dict.size(), false);

  // Row blocks.
  uint64_t nrowblocks;
  if (!d.U64(&nrowblocks)) return Corrupt("truncated row block count");
  if (nrowblocks != (rep.nrows + kBlock - 1) / kBlock) {
    return Corrupt("row block count mismatch");
  }
  if (nrowblocks > d.remaining()) return Corrupt("row blocks exceed input");
  rep.row_blocks.reserve(nrowblocks);
  uint64_t n_in = 0, n_out = 0;
  for (uint64_t b = 0; b < nrowblocks; ++b) {
    uint64_t count, len;
    if (!d.U64(&count) || !d.U64(&len)) return Corrupt("truncated row block");
    if (count != BlockCount(rep.nrows, b)) {
      return Corrupt("row block size mismatch");
    }
    if (len > d.remaining()) return Corrupt("row block length exceeds input");
    rep.row_blocks.push_back({static_cast<size_t>(d.p - base),
                              static_cast<size_t>(len)});
    PROVLIN_RETURN_IF_ERROR(ValidateRowBlock(rep.kind, Dec{d.p, d.p + len},
                                             count, rep.pair_dict, &used,
                                             &n_in, &n_out));
    d.Skip(static_cast<size_t>(len));
  }

  // Views.
  for (size_t v = 0; v < kNumViews; ++v) {
    Rep::ViewDir& dir = rep.views[v];
    uint64_t nentries, nviewblocks;
    if (!d.U64(&nentries) || !d.U64(&nviewblocks)) {
      return Corrupt("truncated view header");
    }
    uint64_t expect_entries =
        rep.kind == Kind::kXfer ? rep.nrows : (v == kViewOut ? n_out : n_in);
    if (nentries != expect_entries) {
      return Corrupt("view entry count disagrees with rows");
    }
    if (nviewblocks != (nentries + kBlock - 1) / kBlock) {
      return Corrupt("view block count mismatch");
    }
    if (nviewblocks > d.remaining()) return Corrupt("view blocks exceed input");
    dir.entries = nentries;
    dir.blocks.reserve(nviewblocks);
    dir.first_pair.reserve(nviewblocks);
    dir.first_off.reserve(nviewblocks + 1);
    dir.first_off.push_back(0);

    uint64_t prev_key_pair = 0;
    IndexPath prev_key_path;
    int64_t prev_key_ord = 0;
    bool have_prev = false;
    for (uint64_t b = 0; b < nviewblocks; ++b) {
      uint64_t count, len;
      if (!d.U64(&count) || !d.U64(&len)) return Corrupt("truncated view block");
      if (count != BlockCount(nentries, b)) {
        return Corrupt("view block size mismatch");
      }
      if (len > d.remaining()) return Corrupt("view block length exceeds input");
      dir.blocks.push_back({static_cast<size_t>(d.p - base),
                            static_cast<size_t>(len)});

      // Interleaved decode mirroring ViewStream: per entry, a lazily
      // consumed dict-run header, then path delta, then ordinal delta.
      Dec bd{d.p, d.p + len};
      RunReader runs;
      IndexPath path;
      int64_t ord = 0;
      for (uint64_t i = 0; i < count; ++i) {
        uint64_t pair;
        if (!runs.Next(bd, rep.pair_dict, &pair, &used)) {
          return Corrupt("bad view pair runs");
        }
        if (!ReadPathDelta(bd, path)) return Corrupt("bad view path chain");
        int64_t delta;
        if (!bd.S64(&delta)) return Corrupt("bad view ordinal delta");
        ord = ApplyDelta(ord, delta);
        if (ord < 0 || static_cast<uint64_t>(ord) >= rep.nrows) {
          return Corrupt("view ordinal out of range");
        }
        if (i == 0) {
          dir.first_pair.push_back(pair);
          dir.first_parts.insert(dir.first_parts.end(), path.begin(),
                                 path.end());
          dir.first_off.push_back(dir.first_parts.size());
        }
        if (have_prev) {
          int c = ComparePairPath(prev_key_pair, prev_key_path, pair, path);
          if (c > 0) return Corrupt("view entries out of order");
          if (c == 0 && ord <= prev_key_ord) {
            return Corrupt("view ordinal not increasing within key");
          }
        }
        prev_key_pair = pair;
        prev_key_path = path;
        prev_key_ord = ord;
        have_prev = true;
      }
      if (runs.left != 0) return Corrupt("view pair run overshoots block");
      if (bd.remaining() != 0) return Corrupt("view payload not consumed");
      d.Skip(static_cast<size_t>(len));
    }
  }

  for (size_t i = 0; i < used.size(); ++i) {
    if (!used[i]) return Corrupt("unused dictionary entry");
  }
  if (d.remaining() != 0) return Corrupt("trailing bytes");
  return seg;
}

// ---------------------------------------------------------------------------
// Row decode
// ---------------------------------------------------------------------------

namespace {

/// The one row-block decoder: block `b` into `cols`, reusing its
/// buffers. Reads stay bounds-checked; a failure means the buffer no
/// longer matches what FromBytes validated.
Status DecodeRowBlock(const Segment::Rep& rep, size_t b, BlockColumns* cols) {
  const auto& span = rep.row_blocks[b];
  const auto* base =
      reinterpret_cast<const uint8_t*>(rep.bytes->data()) + span.offset;
  Dec d{base, base + span.len};
  const size_t n = BlockCount(rep.nrows, b);
  IndexPath path;  // previous path of the current delta chain

  auto read_side = [&](size_t count, bool with_values,
                       BlockColumns::Side* side) -> bool {
    RunReader runs;
    for (size_t k = 0; k < count; ++k) {
      if (!runs.Next(d, rep.pair_dict, &side->pairs[k], nullptr)) return false;
    }
    path.clear();
    side->parts.clear();
    side->parts.reserve(2 * count);  // trace paths are mostly 1-2 deep
    side->path_off[0] = 0;
    for (size_t k = 0; k < count; ++k) {
      if (!ReadPathDelta(d, path)) return false;
      side->parts.insert(side->parts.end(), path.begin(), path.end());
      side->path_off[k + 1] = side->parts.size();
    }
    int64_t prev = 0;
    for (size_t k = 0; with_values && k < count; ++k) {
      int64_t delta;
      if (!d.S64(&delta)) return false;
      side->values[k] = prev = ApplyDelta(prev, delta);
    }
    return true;
  };

  // Xfer sides are never null; only the src side carries values.
  const bool xform = rep.kind == Segment::Kind::kXform;
  size_t present[2] = {n, n};
  if (xform) {
    int64_t prev = 0;
    for (size_t i = 0; i < n; ++i) {
      int64_t delta;
      if (!d.S64(&delta)) return Status::Internal("segment: event decode");
      cols->events[i] = prev = ApplyDelta(prev, delta);
    }
    // Presence bitmaps become per-side slots.
    for (size_t s = 0; s < 2; ++s) {
      std::array<int32_t, kBlock>& slot = cols->sides[s].slot;
      present[s] = 0;
      uint8_t byte = 0;
      for (size_t i = 0; i < n; ++i) {
        if (i % 8 == 0 && !d.U8(&byte)) {
          return Status::Internal("segment: bitmap decode");
        }
        slot[i] = (static_cast<unsigned>(byte) >> (i % 8)) & 1u
                      ? static_cast<int32_t>(present[s]++)
                      : -1;
      }
    }
  }
  if (!read_side(present[0], true, &cols->sides[0]) ||
      !read_side(present[1], xform, &cols->sides[1])) {
    return Status::Internal("segment: side decode after validation");
  }
  if (d.remaining() != 0) {
    return Status::Internal("segment: row block not consumed");
  }
  return Status::OK();
}

/// Builds row `i` of a block decoded by DecodeRowBlock.
Row MaterializeRow(const Segment::Rep& rep, const BlockColumns& cols,
                   size_t i) {
  const Datum run(static_cast<int64_t>(rep.run));
  if (rep.kind == Segment::Kind::kXfer) {
    const BlockColumns::Side& src = cols.sides[0];
    const BlockColumns::Side& dst = cols.sides[1];
    Row row(xfer_col::kWidth);
    row[xfer_col::kRun] = run;
    row[xfer_col::kSrc] = Datum(IdPair::FromPacked(src.pairs[i]));
    row[xfer_col::kSrcIndex] = Datum(src.Path(i));
    row[xfer_col::kDst] = Datum(IdPair::FromPacked(dst.pairs[i]));
    row[xfer_col::kDstIndex] = Datum(dst.Path(i));
    row[xfer_col::kValue] = Datum(src.values[i]);
    return row;
  }
  static constexpr size_t kSideCols[2][3] = {
      {xform_col::kIn, xform_col::kInIndex, xform_col::kInValue},
      {xform_col::kOut, xform_col::kOutIndex, xform_col::kOutValue}};
  Row row(xform_col::kWidth);
  row[xform_col::kRun] = run;
  row[xform_col::kEvent] = Datum(cols.events[i]);
  for (size_t s = 0; s < 2; ++s) {
    const BlockColumns::Side& side = cols.sides[s];
    if (side.slot[i] < 0) continue;
    const auto k = static_cast<size_t>(side.slot[i]);
    row[kSideCols[s][0]] = Datum(IdPair::FromPacked(side.pairs[k]));
    row[kSideCols[s][1]] = Datum(side.Path(k));
    row[kSideCols[s][2]] = Datum(side.values[k]);
  }
  return row;
}

}  // namespace

Result<std::vector<Row>> Segment::DecodeAllRows() const {
  std::vector<Row> rows;
  rows.reserve(rep_->nrows);
  BlockColumns cols;
  for (size_t b = 0; b < rep_->row_blocks.size(); ++b) {
    PROVLIN_RETURN_IF_ERROR(DecodeRowBlock(*rep_, b, &cols));
    for (size_t i = 0; i < BlockCount(rep_->nrows, b); ++i) {
      rows.push_back(MaterializeRow(*rep_, cols, i));
    }
  }
  return rows;
}

// ---------------------------------------------------------------------------
// ProbeView
// ---------------------------------------------------------------------------

namespace {

// entry < probe's lower bound? (-inf when has_lo is unset)
bool EntryBelowLo(uint64_t pair, const IndexPath& path,
                  const Segment::ViewProbe& probe) {
  if (pair != probe.pair) return pair < probe.pair;
  if (!probe.has_lo) return false;
  return ComparePath(path, probe.lo) < 0;
}

// entry > probe's upper bound? (+inf within the pair when unset)
bool EntryAboveHi(uint64_t pair, const IndexPath& path,
                  const Segment::ViewProbe& probe) {
  if (pair != probe.pair) return pair > probe.pair;
  if (!probe.has_hi) return false;
  return ComparePath(path, probe.hi) > 0;
}

// entry <= probe's lower bound? With an unset lo the bound is the
// pair's first entry, so only entries of smaller pairs qualify —
// except that under sorted probe issuance an equal-pair position is
// also safe to resume from (nothing of this pair was consumed yet).
bool EntryAtOrBelowLo(uint64_t pair, const IndexPath& path,
                      const Segment::ViewProbe& probe) {
  if (pair != probe.pair) return pair < probe.pair;
  if (!probe.has_lo) return true;
  return ComparePath(path, probe.lo) <= 0;
}

// Block b's first key strictly below the probe's lower bound? Strict,
// so the search lands one block early when a run of keys equal to lo
// spans a block boundary — the tail of the previous block may hold
// matches too.
bool BlockFirstBelowLo(const Segment::Rep::ViewDir& dir, size_t b,
                       const Segment::ViewProbe& probe) {
  if (dir.first_pair[b] != probe.pair) return dir.first_pair[b] < probe.pair;
  if (!probe.has_lo) return false;  // any real path >= (pair, -inf)
  return ComparePath(dir.FirstPath(b), probe.lo) < 0;
}

}  // namespace

Status Segment::ProbeView(
    size_t view, const ViewProbe& probe, Scratch* scratch, ProbeCounts* counts,
    const std::function<void(uint64_t ordinal, const Row& row)>& emit) const {
  if (view >= kNumViews) {
    return Status::InvalidArgument("segment: bad view index");
  }
  const Rep::ViewDir& dir = rep_->views[view];
  if (dir.entries == 0) return Status::OK();

  Scratch::Impl* impl = scratch->impl_.get();
  if (impl->bound != rep_.get()) {
    *impl = Scratch::Impl{};
    impl->bound = rep_.get();
  }
  ViewStream& st = impl->streams[view];
  st.rep = rep_.get();
  st.view = view;

  // Position at the first entry >= lo. A sorted probe sequence
  // continues from the previous position when everything before it is
  // provably below this probe's lower bound; otherwise binary-search
  // the directory.
  bool walk = false;
  if (st.valid) {
    if (st.exhausted) {
      if (EntryBelowLo(st.cur_pair, st.cur_path, probe)) {
        return Status::OK();  // last entry below lo: nothing can match
      }
    } else {
      walk = EntryAtOrBelowLo(st.cur_pair, st.cur_path, probe);
    }
  }
  size_t scan_block = st.block;  // the view block lo can start in
  if (walk) {
    // Current entry <= lo: everything already consumed is strictly
    // below it, hence below lo. A block whose successor starts below lo
    // holds nothing >= lo, so the walk steps over it by its directory
    // key without decoding it. Bounded: a walk past kMaxWalkEntries
    // re-searches the directory instead.
    const size_t last_block = (st.Position() + kMaxWalkEntries) / kBlock;
    while (scan_block + 1 < dir.blocks.size() &&
           BlockFirstBelowLo(dir, scan_block + 1, probe)) {
      if (scan_block + 1 > last_block) {
        walk = false;  // too far
        break;
      }
      ++scan_block;
    }
  }
  if (!walk) {
    ++counts->searches;
    // Last block whose first key < lo (matches cannot start earlier).
    size_t lo_idx = 0, hi_idx = dir.blocks.size();
    while (lo_idx < hi_idx) {
      size_t mid = (lo_idx + hi_idx) / 2;
      if (BlockFirstBelowLo(dir, mid, probe)) {
        lo_idx = mid + 1;
      } else {
        hi_idx = mid;
      }
    }
    scan_block = lo_idx > 0 ? lo_idx - 1 : 0;
  }
  // A walk that stays in the current block scans on from the current
  // entry; otherwise the scan starts at the block's first entry.
  if ((!walk || scan_block != st.block) &&
      !st.SeekBlock(scan_block, counts)) {
    return Status::Internal("segment: view decode after validation");
  }
  while (!st.exhausted && EntryBelowLo(st.cur_pair, st.cur_path, probe)) {
    st.Advance(counts);
  }
  if (st.exhausted) return Status::OK();

  // Collect entries within [lo, hi] in (pair, path, ordinal) order.
  while (!st.exhausted && !EntryAboveHi(st.cur_pair, st.cur_path, probe)) {
    ++counts->entries_examined;
    if (!probe.has_residual || PathExtends(st.cur_path, probe.residual)) {
      const auto ord = static_cast<uint64_t>(st.cur_ord);
      auto row = impl->rows.find(ord);
      if (row == impl->rows.end()) {
        const size_t block = ord / kRowsPerBlock;
        auto [cols, inserted] = impl->blocks.try_emplace(block);
        if (inserted) {
          Status decoded = DecodeRowBlock(*rep_, block, &cols->second);
          if (!decoded.ok()) {
            impl->blocks.erase(cols);
            return decoded;
          }
          ++counts->blocks_decoded;
        }
        row = impl->rows
                  .emplace(ord, MaterializeRow(*rep_, cols->second,
                                               ord % kRowsPerBlock))
                  .first;
        ++counts->rows_materialized;
      }
      emit(ord, row->second);
    }
    st.Advance(counts);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Footprint accounting helpers
// ---------------------------------------------------------------------------

size_t DatumApproxBytes(const Datum& d) {
  size_t total = sizeof(Datum);
  switch (d.kind()) {
    case DatumKind::kString: {
      const std::string& s = d.AsString();
      // Small strings live inside the object; count only heap spills.
      if (s.capacity() > sizeof(std::string)) total += s.capacity();
      break;
    }
    case DatumKind::kIndexPath:
      total += d.AsIndexPath().capacity() * sizeof(int32_t);
      break;
    default:
      break;
  }
  return total;
}

size_t RowApproxBytes(const Row& row) {
  size_t total = sizeof(Row);
  for (const Datum& d : row) total += DatumApproxBytes(d);
  total += (row.capacity() - row.size()) * sizeof(Datum);
  return total;
}

}  // namespace provlin::storage
