#include "store/artifact_store.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>

#ifndef _WIN32
#include <signal.h>
#include <unistd.h>
#endif

#include "obs/log.h"
#include "obs/metrics.h"
#include "store/io.h"
#include "store/serialize.h"

namespace ektelo::store {

namespace {

namespace fs = std::filesystem;

constexpr uint32_t kDataMagic = 0x41444B45u;    // "EKDA" little-endian
constexpr uint32_t kRecordMagic = 0x43524B45u;  // "EKRC"
constexpr uint32_t kIndexMagic = 0x58494B45u;   // "EKIX"

constexpr std::size_t kDataHeaderBytes = 16;   // magic, version, generation
constexpr std::size_t kRecordHeaderBytes = 48;
// Compaction trigger floor: don't bother rewriting tiny logs.
constexpr uint64_t kCompactMinBytes = uint64_t{1} << 20;

struct RecordHeader {
  uint32_t kind = 0;
  uint64_t hash_version = 0;
  uint64_t hash = 0;
  uint64_t payload_len = 0;
  uint64_t checksum = 0;
};

void WriteRecordHeader(const RecordHeader& h, ByteWriter* w) {
  w->U32(kRecordMagic);
  w->U32(kFormatVersion);
  w->U32(h.kind);
  w->U32(0);  // reserved
  w->U64(h.hash_version);
  w->U64(h.hash);
  w->U64(h.payload_len);
  w->U64(h.checksum);
}

/// Parses and validates the fixed fields; false on bad magic/version.
bool ReadRecordHeader(ByteReader* r, RecordHeader* h) {
  uint32_t magic, version, reserved;
  if (!r->U32(&magic) || !r->U32(&version) || !r->U32(&h->kind) ||
      !r->U32(&reserved) || !r->U64(&h->hash_version) || !r->U64(&h->hash) ||
      !r->U64(&h->payload_len) || !r->U64(&h->checksum))
    return false;
  return magic == kRecordMagic && version == kFormatVersion;
}

struct MapKey {
  uint64_t hash;
  uint32_t kind;
  bool operator==(const MapKey& o) const {
    return hash == o.hash && kind == o.kind;
  }
};

struct MapKeyHash {
  std::size_t operator()(const MapKey& k) const {
    uint64_t z = k.hash + 0x9e3779b97f4a7c15ull * (k.kind + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return std::size_t(z ^ (z >> 31));
  }
};

struct IndexEntry {
  uint64_t offset = 0;  // of the record header in the data file
  uint64_t length = 0;  // header + payload
  uint64_t last_use = 0;
  // Position in the recency list (front = most recent), so touch and
  // evict are O(1) instead of a full-index min scan per eviction.
  std::list<MapKey>::iterator lru_it;
};

}  // namespace

struct DiskArtifactStore::Impl {
  DiskStoreOptions opts;
  std::string data_path, index_path;

  mutable std::mutex mu;
  std::FILE* f = nullptr;  // data file, "r+b"; guarded by mu
  // True when this process holds the directory's writer lock.  Readers
  // (lock already held elsewhere) never append, never rewrite the index
  // checkpoint and never compact — they only serve Gets off the log.
  bool writer = false;
  std::string lock_path;
  uint64_t generation = 1;
  uint64_t clock = 0;
  uint64_t append_off = kDataHeaderBytes;
  std::size_t live_bytes = 0;
  std::unordered_map<MapKey, IndexEntry, MapKeyHash> index;
  std::list<MapKey> lru;  // front = most recently used
  std::size_t puts_since_flush = 0;
  Stats st;
  bool open_ok = false;
  // Sticky memory-only degradation: a post-open I/O error on the data
  // log flips it, after which Get/Put refuse fast, checkpoints and
  // compaction stop, and the OperatorCache above simply computes as if
  // no disk tier existed.  A cache may always be abandoned; what it may
  // never do is take the process down or serve a wrong byte.
  bool degraded = false;

  /// Counts an I/O error and, when `sticky`, trips the degraded state.
  /// The degradation transition (once per store lifetime) goes through
  /// the structured log — it is the one store event an operator must
  /// see — and flips the registry gauge the Prometheus endpoint exports.
  void IoError(bool sticky) {
    static obs::Counter& io_errors = obs::Registry::Global().GetCounter(
        "ektelo_store_io_errors", "Disk-tier I/O errors observed");
    io_errors.Inc();
    ++st.io_errors;
    if (sticky && !degraded) {
      degraded = true;
      DegradedGauge().Set(1.0);
      obs::Log(obs::Severity::kError, "store_degraded",
               {{"data_path", data_path},
                {"io_errors", std::to_string(st.io_errors)},
                {"action", "memory_only"}});
    }
  }

  static obs::Gauge& DegradedGauge() {
    static obs::Gauge& g = obs::Registry::Global().GetGauge(
        "ektelo_store_degraded",
        "1 when the disk tier has tripped into sticky memory-only mode");
    return g;
  }

  // ---- index maintenance (mu held) ----

  /// Inserts (or replaces) an entry and puts it at the recency front.
  void IndexInsert(const MapKey& k, uint64_t offset, uint64_t length,
                   uint64_t last_use) {
    auto it = index.find(k);
    if (it != index.end()) {
      live_bytes -= std::size_t(it->second.length);
      lru.erase(it->second.lru_it);
      index.erase(it);
    }
    lru.push_front(k);
    index[k] = {offset, length, last_use, lru.begin()};
    live_bytes += std::size_t(length);
  }

  void Touch(
      std::unordered_map<MapKey, IndexEntry, MapKeyHash>::iterator it) {
    it->second.last_use = ++clock;
    lru.splice(lru.begin(), lru, it->second.lru_it);
  }

  void ClearIndex() {
    index.clear();
    lru.clear();
    live_bytes = 0;
  }

  ~Impl() {
    if (f) std::fclose(f);
  }

  /// Exclusive-create of the writer lock file (containing this pid).
  /// On contention, a POSIX host checks whether the recorded owner is
  /// still alive and reclaims a stale lock from a crashed writer (e.g.
  /// the leaked env-attached Global tier of a finished process); a live
  /// owner means this open degrades to read-only.  The check-then-create
  /// has a narrow race two simultaneously reclaiming processes could
  /// both win — the same unsupported two-writer case a crashed-writer
  /// directory was already in, and per-record verification keeps wrong
  /// data from ever being served.
  bool AcquireWriterLock() {
#ifdef _WIN32
    // No portable liveness check for the recorded owner here, and the
    // env-attached global tier leaks (its destructor never removes the
    // lock) — an unreclaimable lock would permanently brick the store
    // read-only after the first run.  Skip the exclusion on Windows:
    // single-writer discipline is the deployment's responsibility there,
    // exactly the pre-lock contract.
    return true;
#else
    std::FILE* lf = std::fopen(lock_path.c_str(), "wx");
    if (!lf) {
      if (std::FILE* old = std::fopen(lock_path.c_str(), "rb")) {
        long pid = 0;
        const int fields = std::fscanf(old, "%ld", &pid);
        std::fclose(old);
        const bool stale = fields == 1 && pid > 0 &&
                           kill(pid_t(pid), 0) != 0 && errno == ESRCH;
        if (stale) {
          std::remove(lock_path.c_str());
          lf = std::fopen(lock_path.c_str(), "wx");
        }
      }
    }
    if (!lf) return false;
    std::fprintf(lf, "%ld\n", long(getpid()));
    std::fflush(lf);
    std::fclose(lf);
    return true;
#endif
  }

  // ---- data-file helpers (mu held) ----

  // 64-bit-clean absolute seek (plain fseek takes long, which is 32-bit
  // on some platforms and would silently wrap past 2 GiB).
  static bool SeekTo(std::FILE* file, uint64_t off) {
#if defined(_WIN32)
    return _fseeki64(file, int64_t(off), SEEK_SET) == 0;
#else
    return fseeko(file, off_t(off), SEEK_SET) == 0;
#endif
  }

  bool ReadAt(uint64_t off, std::size_t n, std::vector<uint8_t>* out) {
    if (!f) return false;
    out->resize(n);
    if (!SeekTo(f, off)) return false;
    return io::Read(f, out->data(), n, "store.data.read");
  }

  bool WriteAt(uint64_t off, const std::vector<uint8_t>& bytes) {
    if (!f) return false;
    if (!SeekTo(f, off)) return false;
    if (!io::Write(f, bytes.data(), bytes.size(), "store.data.append"))
      return false;
    return io::Flush(f, "store.data.flush");
  }

  uint64_t FileSize() {
    std::error_code ec;
    const auto n = fs::file_size(data_path, ec);
    return ec ? 0 : uint64_t(n);
  }

  /// Creates a fresh data file containing only the header (atomically)
  /// and (re)opens the read/write handle on it.
  bool ResetDataFile(uint64_t gen) {
    ByteWriter w;
    w.U32(kDataMagic);
    w.U32(kFormatVersion);
    w.U64(gen);
    if (!io::AtomicWriteFile(data_path, w.bytes(), "store.reset"))
      return false;
    if (f) std::fclose(f);
    f = io::Open(data_path, "r+b", "store.data.open");
    generation = gen;
    append_off = kDataHeaderBytes;
    ClearIndex();
    return f != nullptr;
  }

  /// Loads the index checkpoint.  On success fills entries/clock and
  /// returns the data-byte count it covers; returns 0 (and leaves the
  /// index empty) when the checkpoint is missing, corrupt, checksum-
  /// mismatched, or was written for a different generation / format /
  /// hash version — callers then fall back to a full log scan.
  uint64_t LoadIndexCheckpoint() {
    std::vector<uint8_t> bytes;
    if (!io::ReadWholeFile(index_path, &bytes, "store.index") ||
        bytes.size() < 8)
      return 0;
    // Whole-file checksum in the trailing 8 bytes.
    ByteReader tail(bytes.data() + bytes.size() - 8, 8);
    uint64_t want;
    tail.U64(&want);
    if (Checksum64(bytes.data(), bytes.size() - 8) != want) return 0;
    ByteReader r(bytes.data(), bytes.size() - 8);
    uint32_t magic, version;
    uint64_t hash_version, gen, saved_clock, covered, n_entries;
    if (!r.U32(&magic) || !r.U32(&version) || !r.U64(&hash_version) ||
        !r.U64(&gen) || !r.U64(&saved_clock) || !r.U64(&covered) ||
        !r.U64(&n_entries))
      return 0;
    if (magic != kIndexMagic || version != kFormatVersion ||
        hash_version != opts.hash_version || gen != generation)
      return 0;
    if (n_entries > r.remaining() / 40) return 0;
    struct Loaded {
      MapKey key;
      uint64_t off, len, last_use;
    };
    std::vector<Loaded> loaded;
    loaded.reserve(std::size_t(n_entries));
    const uint64_t file_sz = FileSize();
    for (uint64_t i = 0; i < n_entries; ++i) {
      uint32_t kind, reserved;
      uint64_t hash, off, len, last_use;
      if (!r.U32(&kind) || !r.U32(&reserved) || !r.U64(&hash) ||
          !r.U64(&off) || !r.U64(&len) || !r.U64(&last_use))
        return 0;
      // Overflow-safe bounds check: off + len must stay within the file.
      if (off < kDataHeaderBytes || len < kRecordHeaderBytes ||
          len > file_sz || off > file_sz - len)
        return 0;
      loaded.push_back({{hash, kind}, off, len, last_use});
    }
    // Rebuild the recency list in persisted order: ascending last_use,
    // so the most recently used entry lands at the front.
    std::sort(loaded.begin(), loaded.end(),
              [](const Loaded& a, const Loaded& b) {
                return a.last_use < b.last_use;
              });
    for (const Loaded& e : loaded)
      IndexInsert(e.key, e.off, e.len, e.last_use);
    clock = saved_clock;
    return covered <= file_sz ? covered : 0;
  }

  /// Scans log records in [from, file end), indexing those that match
  /// this store's format and hash version.  Stops at the first torn or
  /// invalid record and truncates the log there.
  void ScanLog(uint64_t from) {
    uint64_t off = from;
    const uint64_t file_sz = FileSize();
    std::vector<uint8_t> header;
    while (off + kRecordHeaderBytes <= file_sz) {
      if (!ReadAt(off, kRecordHeaderBytes, &header)) break;
      ByteReader r(header);
      RecordHeader h;
      if (!ReadRecordHeader(&r, &h)) break;
      const uint64_t len = kRecordHeaderBytes + h.payload_len;
      if (h.payload_len > file_sz - off - kRecordHeaderBytes) break;
      if (h.hash_version == opts.hash_version)
        IndexInsert({h.hash, h.kind}, off, len, ++clock);
      off += len;
    }
    append_off = off;
    if (off < file_sz) {
      // Torn/garbage tail (a crash mid-append, or a record a concurrent
      // writer is mid-flush on).  Truncate *logically* only: append_off
      // stays at the last good record, so if this process writes it
      // overwrites the torn bytes in place, and pure readers never
      // mutate a log a live writer may still be appending to (physical
      // truncation here would shear the writer's in-flight record and
      // leave its append offset pointing past EOF).
      ++st.corrupt_drops;
    }
  }

  // ---- policy (mu held) ----

  void DropEntry(std::unordered_map<MapKey, IndexEntry, MapKeyHash>::iterator
                     it) {
    live_bytes -= std::size_t(it->second.length);
    lru.erase(it->second.lru_it);
    index.erase(it);
  }

  void EvictUntilBudgeted() {
    while (opts.max_bytes != 0 && live_bytes > opts.max_bytes &&
           !lru.empty()) {
      DropEntry(index.find(lru.back()));
      ++st.evictions;
    }
  }

  void FlushLocked() {
    if (!writer || degraded) {
      puts_since_flush = 0;
      return;  // readers never rewrite the shared checkpoint
    }
    ByteWriter w;
    w.U32(kIndexMagic);
    w.U32(kFormatVersion);
    w.U64(opts.hash_version);
    w.U64(generation);
    w.U64(clock);
    w.U64(append_off);
    w.U64(index.size());
    for (const auto& [k, e] : index) {
      w.U32(k.kind);
      w.U32(0);
      w.U64(k.hash);
      w.U64(e.offset);
      w.U64(e.length);
      w.U64(e.last_use);
    }
    std::vector<uint8_t> bytes = w.Take();
    const uint64_t sum = Checksum64(bytes);
    ByteWriter tail;
    tail.U64(sum);
    bytes.insert(bytes.end(), tail.bytes().begin(), tail.bytes().end());
    // The checkpoint is advisory (the log is the source of truth): a
    // failed rewrite costs a longer scan on the next open, not health.
    if (!io::AtomicWriteFile(index_path, bytes, "store.ckpt"))
      IoError(/*sticky=*/false);
    puts_since_flush = 0;
  }

  void CompactLocked() {
    if (!f || !writer || degraded) return;
    // Stream the surviving records (in log order, preserving locality)
    // straight into a fresh tmp log — never staging more than one record
    // in memory — then rename it over the old one and rebuild offsets.
    std::vector<std::pair<MapKey, IndexEntry>> live(index.begin(),
                                                    index.end());
    std::sort(live.begin(), live.end(), [](const auto& a, const auto& b) {
      return a.second.offset < b.second.offset;
    });
    const std::string tmp = data_path + ".tmp";
    std::FILE* out = io::Open(tmp, "wb", "store.compact.open");
    if (!out) {
      IoError(/*sticky=*/true);
      return;
    }
    const uint64_t new_gen = generation + 1;
    {
      ByteWriter header;
      header.U32(kDataMagic);
      header.U32(kFormatVersion);
      header.U64(new_gen);
      if (!io::Write(out, header.bytes().data(), header.bytes().size(),
                     "store.compact.write")) {
        std::fclose(out);
        std::remove(tmp.c_str());
        IoError(/*sticky=*/true);
        return;
      }
    }
    std::vector<std::pair<MapKey, IndexEntry>> rebuilt;
    rebuilt.reserve(live.size());
    uint64_t out_off = kDataHeaderBytes;
    std::vector<uint8_t> rec;
    for (const auto& [k, e] : live) {
      if (!ReadAt(e.offset, std::size_t(e.length), &rec)) continue;
      if (!io::Write(out, rec.data(), rec.size(), "store.compact.write")) {
        std::fclose(out);
        std::remove(tmp.c_str());
        IoError(/*sticky=*/true);
        return;
      }
      IndexEntry ne = e;
      ne.offset = out_off;
      out_off += e.length;
      rebuilt.emplace_back(k, ne);
    }
    if (!io::Flush(out, "store.compact.flush")) {
      std::fclose(out);
      std::remove(tmp.c_str());
      IoError(/*sticky=*/true);
      return;
    }
    std::fclose(out);
    if (!io::Rename(tmp, data_path, "store.compact.rename")) {
      std::remove(tmp.c_str());
      IoError(/*sticky=*/true);
      return;
    }
    std::fclose(f);
    f = io::Open(data_path, "r+b", "store.data.open");
    generation = new_gen;
    append_off = out_off;
    ClearIndex();
    if (f) {
      // If the reopen fails (fd exhaustion, permissions flipped) the
      // store degrades to an empty closed one: Get/Put fail cleanly via
      // the ReadAt/WriteAt null guards instead of seeking a null FILE.
      std::sort(rebuilt.begin(), rebuilt.end(),
                [](const auto& a, const auto& b) {
                  return a.second.last_use < b.second.last_use;
                });  // ascending: most recent ends up at the LRU front
      for (auto& [k, e] : rebuilt)
        IndexInsert(k, e.offset, e.length, e.last_use);
    } else {
      IoError(/*sticky=*/true);
    }
    ++st.compactions;
    FlushLocked();
  }
};

std::unique_ptr<DiskArtifactStore> DiskArtifactStore::Open(
    const std::string& dir, const DiskStoreOptions& opts) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec && !fs::is_directory(dir, ec)) return nullptr;
  std::unique_ptr<DiskArtifactStore> store(new DiskArtifactStore(dir, opts));
  if (!store->impl_->open_ok) return nullptr;
  return store;
}

DiskArtifactStore::DiskArtifactStore(std::string dir,
                                     const DiskStoreOptions& opts)
    : dir_(std::move(dir)), impl_(new Impl) {
  Impl& im = *impl_;
  im.opts = opts;
  im.data_path = dir_ + "/artifacts.data";
  im.index_path = dir_ + "/artifacts.index";
  im.lock_path = dir_ + "/artifacts.lock";
  im.writer = im.AcquireWriterLock();

  // Adopt an existing log when its header checks out; otherwise start a
  // fresh one (losing a cache is always safe).
  bool fresh = true;
  if (std::FILE* probe = io::Open(im.data_path, "rb", "store.data.open")) {
    uint8_t raw[kDataHeaderBytes];
    const bool got =
        std::fread(raw, 1, kDataHeaderBytes, probe) == kDataHeaderBytes;
    std::fclose(probe);
    if (got) {
      ByteReader r(raw, kDataHeaderBytes);
      uint32_t magic, version;
      uint64_t gen;
      if (r.U32(&magic) && r.U32(&version) && r.U64(&gen) &&
          magic == kDataMagic && version == kFormatVersion) {
        im.generation = gen;
        fresh = false;
      }
    }
  }
  if (fresh) {
    if (!im.writer) {
      // Another process holds the writer lock and is presumably still
      // initializing the log: attach as an empty reader (Gets miss,
      // Puts fail cleanly) rather than racing its header write.
      im.open_ok = true;
      return;
    }
    im.open_ok = im.ResetDataFile(/*gen=*/1);
    if (im.open_ok) im.FlushLocked();
    return;
  }
  im.f = io::Open(im.data_path, im.writer ? "r+b" : "rb", "store.data.open");
  if (!im.f && im.writer) {
    // Directory may be read-only for this process despite the lock:
    // release it and degrade to pure reader.
    std::remove(im.lock_path.c_str());
    im.writer = false;
    im.f = io::Open(im.data_path, "rb", "store.data.open");
  }
  if (!im.f) return;
  const uint64_t covered = im.LoadIndexCheckpoint();
  im.ScanLog(covered >= kDataHeaderBytes ? covered : kDataHeaderBytes);
  im.EvictUntilBudgeted();
  im.open_ok = true;
}

DiskArtifactStore::~DiskArtifactStore() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (impl_->f && impl_->writer && !impl_->degraded) {
    // Closing is the latency-insensitive moment to reclaim dead bytes
    // (inline compaction during Put would stall a solver thread for a
    // full log rewrite under the store mutex).
    const uint64_t data_payload = impl_->append_off - kDataHeaderBytes;
    if (data_payload > kCompactMinBytes &&
        data_payload > 2 * uint64_t(impl_->live_bytes))
      impl_->CompactLocked();
    impl_->FlushLocked();
  }
  if (impl_->writer) std::remove(impl_->lock_path.c_str());
}

bool DiskArtifactStore::Get(const ArtifactKey& key,
                            std::vector<uint8_t>* payload) {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  ++im.st.gets;
  if (im.degraded) return false;
  auto it = im.index.find({key.hash, key.kind});
  if (it == im.index.end()) return false;
  const IndexEntry e = it->second;
  std::vector<uint8_t> rec;
  if (!im.ReadAt(e.offset, std::size_t(e.length), &rec)) {
    // A read that fails at the device (not verification) means the tier
    // itself is sick: go memory-only rather than retrying a bad disk on
    // every request.  The entry is left indexed — nothing proved it bad.
    im.IoError(/*sticky=*/true);
    return false;
  }
  RecordHeader h;
  ByteReader r(rec);
  bool ok = ReadRecordHeader(&r, &h) && h.kind == key.kind &&
            h.hash == key.hash && h.hash_version == im.opts.hash_version &&
            kRecordHeaderBytes + h.payload_len == e.length;
  if (ok)
    ok = Checksum64(rec.data() + kRecordHeaderBytes,
                    std::size_t(h.payload_len)) == h.checksum;
  if (!ok) {
    // Stale index (e.g. raced a compaction in another process) or disk
    // corruption: drop the entry; the artifact will be recomputed.
    im.DropEntry(it);
    ++im.st.corrupt_drops;
    return false;
  }
  payload->assign(rec.begin() + kRecordHeaderBytes, rec.end());
  im.Touch(it);
  ++im.st.hits;
  return true;
}

bool DiskArtifactStore::Put(const ArtifactKey& key,
                            const std::vector<uint8_t>& payload) {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  // Read-only attach (another process holds the writer lock): refuse
  // before the already-live early-out, so a reader's Put never reports
  // success or counts as a disk write.
  if (!im.writer || !im.f || im.degraded) return false;
  auto it = im.index.find({key.hash, key.kind});
  if (it != im.index.end()) {
    im.Touch(it);
    return true;
  }
  const uint64_t len = kRecordHeaderBytes + payload.size();
  if (im.opts.max_bytes != 0 && len > im.opts.max_bytes) return false;
  RecordHeader h;
  h.kind = key.kind;
  h.hash_version = im.opts.hash_version;
  h.hash = key.hash;
  h.payload_len = payload.size();
  h.checksum = Checksum64(payload);
  ByteWriter w;
  WriteRecordHeader(h, &w);
  w.Raw(payload.data(), payload.size());
  if (!im.WriteAt(im.append_off, w.bytes())) {
    // Failed append (disk full / I/O error): restore the log to its
    // pre-call length so a partial record never becomes a parsed one,
    // and go memory-only — later Puts would hit the same device.
    (void)io::Resize(im.data_path, im.append_off, "store.data.truncate");
    im.IoError(/*sticky=*/true);
    return false;
  }
  im.IndexInsert({key.hash, key.kind}, im.append_off, len, ++im.clock);
  im.append_off += len;
  ++im.st.puts;
  im.EvictUntilBudgeted();
  // Compaction stalls every store user for a full log rewrite under the
  // mutex, so inline it only as a backstop against unbounded log growth
  // in a never-closing process (dead bytes > 4x live); the cheap 2x
  // reclamation runs at close time instead.
  const uint64_t data_payload = im.append_off - kDataHeaderBytes;
  if (data_payload > kCompactMinBytes &&
      data_payload > 5 * uint64_t(im.live_bytes))
    im.CompactLocked();
  else if (++im.puts_since_flush >= im.opts.flush_every_puts)
    im.FlushLocked();
  return true;
}

void DiskArtifactStore::Drop(const ArtifactKey& key) {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  auto it = im.index.find({key.hash, key.kind});
  if (it == im.index.end()) return;
  im.DropEntry(it);
  ++im.st.corrupt_drops;
}

void DiskArtifactStore::Flush() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->FlushLocked();
}

void DiskArtifactStore::Compact() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->CompactLocked();
}

DiskArtifactStore::Stats DiskArtifactStore::stats() const {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  Stats s = im.st;
  s.entries = im.index.size();
  s.live_bytes = im.live_bytes;
  s.data_bytes = std::size_t(im.append_off);
  s.read_only = !im.writer;
  s.degraded = im.degraded;
  return s;
}

}  // namespace ektelo::store
