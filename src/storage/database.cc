#include "storage/database.h"

#include <cstdio>
#include <fstream>

#include "storage/serialize.h"

namespace provlin::storage {

namespace {
constexpr uint32_t kMagic = 0x50564C42;  // "PVLB"
// v2 adds the identifier dictionaries (symbols + index paths) to the
// image, persisted before the table catalog so kIdPair cells resolve.
// v3 appends a blob section (compressed trace segments) after the
// tables; an image without blobs is still written as v2, bit for bit,
// so sealing never changes the format of stores that don't use it.
constexpr uint32_t kVersion = 2;
constexpr uint32_t kVersionBlobs = 3;
}  // namespace

Result<Table*> Database::CreateTable(const std::string& name, Schema schema) {
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  auto table = std::make_unique<Table>(name, std::move(schema));
  Table* ptr = table.get();
  tables_[name] = std::move(table);
  return ptr;
}

Result<Table*> Database::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + name + "'");
  }
  return it->second.get();
}

Result<const Table*> Database::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + name + "'");
  }
  return const_cast<const Table*>(it->second.get());
}

Status Database::DropTable(const std::string& name) {
  if (tables_.erase(name) == 0) {
    return Status::NotFound("no table named '" + name + "'");
  }
  return Status::OK();
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, _] : tables_) out.push_back(name);
  return out;
}

size_t Database::TotalRows() const {
  size_t n = 0;
  for (const auto& [_, t] : tables_) n += t->num_rows();
  return n;
}

void Database::PutBlob(const std::string& key,
                       std::shared_ptr<const std::string> bytes) {
  common::MutexLock lock(blobs_->mu);
  blobs_->map[key] = std::move(bytes);
}

std::shared_ptr<const std::string> Database::GetBlob(
    const std::string& key) const {
  common::MutexLock lock(blobs_->mu);
  auto it = blobs_->map.find(key);
  return it == blobs_->map.end() ? nullptr : it->second;
}

void Database::DropBlob(const std::string& key) {
  common::MutexLock lock(blobs_->mu);
  blobs_->map.erase(key);
}

std::vector<std::string> Database::BlobKeys() const {
  common::MutexLock lock(blobs_->mu);
  std::vector<std::string> out;
  out.reserve(blobs_->map.size());
  for (const auto& [key, _] : blobs_->map) out.push_back(key);
  return out;
}

Status Database::Save(const std::string& path) const {
  common::MutexLock blob_lock(blobs_->mu);
  BinaryWriter w;
  w.WriteU32(kMagic);
  w.WriteU32(blobs_->map.empty() ? kVersion : kVersionBlobs);
  // Identifier dictionaries: ids are vector positions, so writing the
  // vectors in order round-trips them exactly.
  const std::vector<std::string> sym_names = symbols_.names();
  w.WriteU32(static_cast<uint32_t>(sym_names.size()));
  for (const std::string& name : sym_names) w.WriteString(name);
  const std::vector<std::vector<int32_t>> ipaths = index_dict_.paths();
  w.WriteU32(static_cast<uint32_t>(ipaths.size()));
  for (const auto& ipath : ipaths) {
    w.WriteU32(static_cast<uint32_t>(ipath.size()));
    for (int32_t p : ipath) w.WriteU32(static_cast<uint32_t>(p));
  }
  w.WriteU32(static_cast<uint32_t>(tables_.size()));
  for (const auto& [name, table] : tables_) {
    w.WriteString(name);
    // Schema.
    const Schema& schema = table->schema();
    w.WriteU32(static_cast<uint32_t>(schema.num_columns()));
    for (const Column& c : schema.columns()) {
      w.WriteString(c.name);
      w.WriteU8(static_cast<uint8_t>(c.kind));
    }
    // Index specs.
    std::vector<IndexSpec> specs = table->indexes();
    w.WriteU32(static_cast<uint32_t>(specs.size()));
    for (const IndexSpec& spec : specs) {
      w.WriteString(spec.name);
      w.WriteU8(spec.type == IndexType::kBTree ? 0 : 1);
      w.WriteU32(static_cast<uint32_t>(spec.columns.size()));
      for (const std::string& c : spec.columns) w.WriteString(c);
    }
    // Live rows.
    std::vector<uint64_t> rids = table->FullScan();
    w.WriteU64(rids.size());
    for (uint64_t rid : rids) {
      auto row = table->Get(rid);
      if (!row.ok()) return row.status();
      w.WriteRow(row.value());
    }
  }
  if (!blobs_->map.empty()) {
    w.WriteU32(static_cast<uint32_t>(blobs_->map.size()));
    for (const auto& [key, bytes] : blobs_->map) {
      w.WriteString(key);
      w.WriteString(*bytes);
    }
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open '" + path + "' for write");
  out.write(w.buffer().data(),
            static_cast<std::streamsize>(w.buffer().size()));
  if (!out) return Status::IoError("short write to '" + path + "'");
  return Status::OK();
}

Status Database::Load(const std::string& path) {
  // One copy of the image: read straight into a string sized from the
  // file, which is the parse's only buffer.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open '" + path + "' for read");
  const std::streamoff size = in.tellg();
  if (size < 0) return Status::IoError("cannot size '" + path + "'");
  std::string data(static_cast<size_t>(size), '\0');
  in.seekg(0);
  if (!in.read(data.data(), size)) {
    return Status::IoError("short read from '" + path + "'");
  }

  BinaryReader r(data);
  PROVLIN_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != kMagic) return Status::Corruption("bad magic");
  PROVLIN_ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
  if (version != kVersion && version != kVersionBlobs) {
    return Status::Corruption("unsupported version " +
                              std::to_string(version));
  }
  std::vector<std::string> symbol_names;
  PROVLIN_ASSIGN_OR_RETURN(uint32_t nsyms, r.ReadU32());
  symbol_names.reserve(nsyms);
  for (uint32_t i = 0; i < nsyms; ++i) {
    PROVLIN_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    symbol_names.push_back(std::move(name));
  }
  std::vector<std::vector<int32_t>> index_paths;
  PROVLIN_ASSIGN_OR_RETURN(uint32_t npaths, r.ReadU32());
  index_paths.reserve(npaths);
  for (uint32_t i = 0; i < npaths; ++i) {
    PROVLIN_ASSIGN_OR_RETURN(uint32_t plen, r.ReadU32());
    std::vector<int32_t> ipath;
    ipath.reserve(plen);
    for (uint32_t j = 0; j < plen; ++j) {
      PROVLIN_ASSIGN_OR_RETURN(uint32_t p, r.ReadU32());
      ipath.push_back(static_cast<int32_t>(p));
    }
    index_paths.push_back(std::move(ipath));
  }
  std::map<std::string, std::unique_ptr<Table>> tables;
  PROVLIN_ASSIGN_OR_RETURN(uint32_t ntables, r.ReadU32());
  for (uint32_t t = 0; t < ntables; ++t) {
    PROVLIN_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    PROVLIN_ASSIGN_OR_RETURN(uint32_t ncols, r.ReadU32());
    std::vector<Column> cols;
    for (uint32_t c = 0; c < ncols; ++c) {
      Column col;
      PROVLIN_ASSIGN_OR_RETURN(col.name, r.ReadString());
      PROVLIN_ASSIGN_OR_RETURN(uint8_t kind, r.ReadU8());
      if (kind > static_cast<uint8_t>(DatumKind::kIndexPath)) {
        return Status::Corruption("bad column kind");
      }
      col.kind = static_cast<DatumKind>(kind);
      cols.push_back(std::move(col));
    }
    auto table = std::make_unique<Table>(name, Schema(std::move(cols)));
    PROVLIN_ASSIGN_OR_RETURN(uint32_t nidx, r.ReadU32());
    for (uint32_t i = 0; i < nidx; ++i) {
      IndexSpec spec;
      PROVLIN_ASSIGN_OR_RETURN(spec.name, r.ReadString());
      PROVLIN_ASSIGN_OR_RETURN(uint8_t type, r.ReadU8());
      if (type > 1) return Status::Corruption("bad index type");
      spec.type = type == 0 ? IndexType::kBTree : IndexType::kHash;
      PROVLIN_ASSIGN_OR_RETURN(uint32_t nic, r.ReadU32());
      for (uint32_t c = 0; c < nic; ++c) {
        PROVLIN_ASSIGN_OR_RETURN(std::string col, r.ReadString());
        spec.columns.push_back(std::move(col));
      }
      PROVLIN_RETURN_IF_ERROR(table->CreateIndex(spec));
    }
    PROVLIN_ASSIGN_OR_RETURN(uint64_t nrows, r.ReadU64());
    for (uint64_t i = 0; i < nrows; ++i) {
      PROVLIN_ASSIGN_OR_RETURN(Row row, r.ReadRow());
      PROVLIN_RETURN_IF_ERROR(table->Insert(row).status());
    }
    tables[name] = std::move(table);
  }
  std::map<std::string, std::shared_ptr<const std::string>> blobs;
  if (version == kVersionBlobs) {
    PROVLIN_ASSIGN_OR_RETURN(uint32_t nblobs, r.ReadU32());
    for (uint32_t i = 0; i < nblobs; ++i) {
      PROVLIN_ASSIGN_OR_RETURN(std::string key, r.ReadString());
      PROVLIN_ASSIGN_OR_RETURN(std::string bytes, r.ReadString());
      blobs[std::move(key)] =
          std::make_shared<const std::string>(std::move(bytes));
    }
  }
  if (!r.AtEnd()) return Status::Corruption("trailing bytes in database file");
  tables_ = std::move(tables);
  symbols_.Restore(std::move(symbol_names));
  index_dict_.Restore(std::move(index_paths));
  {
    common::MutexLock lock(blobs_->mu);
    blobs_->map = std::move(blobs);
  }
  return Status::OK();
}

}  // namespace provlin::storage
