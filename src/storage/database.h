#ifndef PROVLIN_STORAGE_DATABASE_H_
#define PROVLIN_STORAGE_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/interner.h"
#include "common/result.h"
#include "common/sync.h"
#include "storage/table.h"

namespace provlin::storage {

/// Catalog of tables — the embedded stand-in for the paper's local MySQL
/// instance. Owns all tables plus the identifier dictionaries that
/// kIdPair / kIndexPath columns refer to; supports binary save/load of
/// the full database image (indexes are rebuilt on load, dictionaries
/// are persisted verbatim so ids stay stable across save/load).
///
/// Thread safety: writes are single-threaded (one thread owns the
/// capture side, like the paper's single-user desktop setting), but the
/// read path is safe to share: const query paths only bump relaxed
/// atomic statistics counters (plus thread_local mirrors), and the
/// identifier dictionaries synchronize internally, so any number of
/// threads may query a quiescent database concurrently — the contract
/// the batch lineage service relies on. Interleaving writes with reads
/// still requires external synchronization.
class Database {
 public:
  Database() = default;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  /// Creates an empty table.
  Result<Table*> CreateTable(const std::string& name, Schema schema);

  Result<Table*> GetTable(const std::string& name);
  Result<const Table*> GetTable(const std::string& name) const;

  Status DropTable(const std::string& name);

  std::vector<std::string> TableNames() const;

  /// Total live rows across all tables.
  size_t TotalRows() const;

  /// Serializes the whole database to `path` / restores it. Load replaces
  /// the current catalog and dictionaries.
  Status Save(const std::string& path) const;
  Status Load(const std::string& path);

  /// Dictionary of interned names (processors, ports, run labels).
  /// kIdPair cells hold SymbolIds from this table.
  common::SymbolTable& symbols() { return symbols_; }
  const common::SymbolTable& symbols() const { return symbols_; }

  /// Dictionary of interned index paths. kIndexPath cells store raw
  /// paths inline (so range scans order correctly); this dictionary
  /// gives lineage plans a dense IndexId handle for cache keys.
  common::IndexDictionary& index_dict() { return index_dict_; }
  const common::IndexDictionary& index_dict() const { return index_dict_; }

  // --- blob catalog ---------------------------------------------------------
  // Named immutable byte strings riding in the image alongside the
  // table catalog — compressed trace segments, keyed
  // "segment/<table>/<run>". Internally synchronized (unlike the table
  // catalog): sealing runs on different shards holds different shard
  // locks but shares this one catalog.

  /// Stores (or replaces) a blob. The bytes are shared, not copied.
  void PutBlob(const std::string& key,
               std::shared_ptr<const std::string> bytes);
  /// The blob under `key`, or nullptr when absent.
  std::shared_ptr<const std::string> GetBlob(const std::string& key) const;
  /// Removes `key` (no-op when absent).
  void DropBlob(const std::string& key);
  /// All blob keys, sorted.
  std::vector<std::string> BlobKeys() const;

 private:
  /// The catalog lives behind a pointer so Database stays movable
  /// (common::Mutex is neither movable nor copyable).
  struct Blobs {
    mutable common::Mutex mu{common::LockRank::kDatabaseBlobs};
    std::map<std::string, std::shared_ptr<const std::string>> map
        GUARDED_BY(mu);
  };

  std::map<std::string, std::unique_ptr<Table>> tables_;
  common::SymbolTable symbols_;
  common::IndexDictionary index_dict_;
  std::unique_ptr<Blobs> blobs_ = std::make_unique<Blobs>();
};

}  // namespace provlin::storage

#endif  // PROVLIN_STORAGE_DATABASE_H_
