// Persistent on-disk artifact store: the disk tier under OperatorCache.
//
// A DiskArtifactStore is a single directory holding two files:
//
//   artifacts.data    append-only record log.  Header {magic "EKDA",
//                     format_version, generation}, then framed records:
//                     {magic "EKRC", format_version, kind, hash_version,
//                     structural_hash, payload_len, payload_checksum,
//                     payload}.  Records are immutable once written;
//                     offsets never move except across a compaction,
//                     which bumps `generation`.
//
//   artifacts.index   checkpoint of the in-memory index: a mapping
//                     {format_version, hash_version, structural_hash,
//                     artifact_kind} -> {offset, length, last_use},
//                     plus the data-file generation and the number of
//                     data bytes it covers, whole-file checksummed and
//                     replaced atomically (tmp file + rename).
//
// The data log is the source of truth; the index is a checkpoint.  On
// open, a valid index for the current generation is loaded and only the
// data tail beyond its coverage is scanned (recovering write-behind
// appends that missed an index flush); a missing/corrupt/stale index
// triggers a full scan.  Scanning stops at the first torn or corrupt
// record and drops the tail *logically* (the append offset regresses to
// the last good record; this process's next append overwrites the torn
// bytes in place).  The file is never physically truncated on open, so
// a pure reader never mutates a log a live writer may still be
// appending to; a crash mid-append costs at most the trailing record.
//
// Eviction is byte-budgeted LRU over *live* (indexed) bytes: exceeding
// the budget drops least-recently-used entries from the index.  Dead
// bytes accumulate in the log until they exceed the live bytes, at which
// point the store compacts: live records are rewritten to a fresh log
// (new generation) behind a tmp-file + rename, so concurrent readers
// holding the old file keep a consistent view and readers holding a
// stale index are protected by the per-record magic/hash/checksum
// verification on every Get.
//
// Concurrency: a store object is thread-safe (one internal mutex).
// Across processes, writer exclusion is enforced by an exclusive-create
// `artifacts.lock` file (containing the owner pid): the first opener
// becomes the writer, every later opener attaches read-only (Gets are
// served off the log; Put/Flush/Compact no-op; stats().read_only
// reports it), so two processes sharing EKTELO_CACHE_DIR degrade
// safely instead of corrupting each other's appends.  A lock whose
// recorded owner is dead (crashed writer, or the leaked env-attached
// global tier of a finished process) is reclaimed on open (POSIX).
// The rename-based index/compaction protocol keeps concurrent readers
// consistent, and per-record verification protects any reader holding
// a stale index.
#ifndef EKTELO_STORE_ARTIFACT_STORE_H_
#define EKTELO_STORE_ARTIFACT_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ektelo::store {

/// Logical identity of one cached artifact.  The kind discriminates what
/// the payload encodes (the OperatorCache's CacheKind values); the hash
/// is LinOp::StructuralHash under the hash_version the store was opened
/// with.
struct ArtifactKey {
  uint64_t hash = 0;
  uint32_t kind = 0;
};

struct DiskStoreOptions {
  /// Budget for live (indexed) record bytes; least-recently-used entries
  /// beyond it are evicted, whatever their kind or hit count.  0 means
  /// unbounded.  This is the whole eviction policy: the tier above
  /// (OperatorCache) spills through a bounded write-behind queue, so a
  /// Put never runs on a request thread.
  std::size_t max_bytes = std::size_t{1} << 30;
  /// Version of the structural-hash function the keys were computed
  /// under (kHashVersion).  Records written under any other value are
  /// invisible — a hash-algorithm change invalidates cleanly instead of
  /// serving wrong artifacts.
  uint64_t hash_version = 0;
  /// Flush the index checkpoint every this many Puts (and on close).
  std::size_t flush_every_puts = 32;
};

class DiskArtifactStore {
 public:
  struct Stats {
    std::size_t entries = 0;     // live (indexed) records
    std::size_t live_bytes = 0;  // bytes of live records in the log
    std::size_t data_bytes = 0;  // total log size incl. dead records
    std::size_t gets = 0;
    std::size_t hits = 0;
    std::size_t puts = 0;
    std::size_t evictions = 0;
    std::size_t compactions = 0;
    std::size_t corrupt_drops = 0;  // records rejected by verification
    std::size_t io_errors = 0;      // device-level failures (post-open)
    /// True when another process holds the directory's writer lock: this
    /// store serves Gets off the log but Put/Flush/Compact are no-ops.
    bool read_only = false;
    /// Sticky memory-only degradation: a post-open I/O error on the data
    /// log (failed read, failed append, failed compaction) flips this;
    /// from then on Get/Put refuse immediately and no checkpoint or
    /// compaction touches the device again.  The tier above falls back
    /// to recomputation — correctness is never at stake, only warmth.
    bool degraded = false;
  };

  /// Opens (creating if needed) the store in `dir`.  Returns nullptr when
  /// the directory cannot be created or the files cannot be opened; an
  /// unreadable/garbage data file is replaced with a fresh empty log
  /// (the store is a cache — losing it is always safe).
  static std::unique_ptr<DiskArtifactStore> Open(const std::string& dir,
                                                 const DiskStoreOptions& opts);

  /// Flushes the index checkpoint.
  ~DiskArtifactStore();

  /// Reads the payload stored under `key`.  False on miss, on checksum /
  /// version / key mismatch (the entry is dropped), or on I/O error —
  /// never throws, never crashes on hostile file contents.
  bool Get(const ArtifactKey& key, std::vector<uint8_t>* payload);

  /// Appends a record for `key` (no-op if the key is already live) and
  /// applies the byte-budget LRU policy.  False on I/O failure or when
  /// the record alone exceeds the byte budget.
  bool Put(const ArtifactKey& key, const std::vector<uint8_t>& payload);

  /// Drops `key` from the index (the record bytes become dead until
  /// compaction).  Consumers call this when a checksum-valid payload
  /// fails typed decoding — a shape-guard reject or stale encoding —
  /// so the entry can be re-stored instead of blocking warm starts
  /// forever.  No-op on absent keys.
  void Drop(const ArtifactKey& key);

  /// Atomically rewrites the index checkpoint (tmp file + rename).
  void Flush();

  /// Rewrites the log keeping only live records (new generation) and
  /// flushes a fresh index.  Called automatically when dead bytes exceed
  /// live bytes; public for tests and maintenance.
  void Compact();

  Stats stats() const;
  const std::string& dir() const { return dir_; }

  DiskArtifactStore(const DiskArtifactStore&) = delete;
  DiskArtifactStore& operator=(const DiskArtifactStore&) = delete;

 private:
  DiskArtifactStore(std::string dir, const DiskStoreOptions& opts);
  struct Impl;
  std::string dir_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ektelo::store

#endif  // EKTELO_STORE_ARTIFACT_STORE_H_
