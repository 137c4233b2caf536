// The durable-I/O seam: every raw open/read/write/flush/fsync/rename the
// budget ledger performs goes through these wrappers, each carrying a
// named failpoint site (util/failpoint.h).
// With no failpoints armed they are the underlying stdio/filesystem
// calls plus one relaxed atomic load; with a rule armed they inject
// short writes, EIO/ENOSPC errors, dropped fsyncs, or a simulated kill
// exactly at the named operation.
//
// Error reporting is by return value with errno left describing the
// failure (injected errors set errno to the injected code), matching
// the stdio contract the callers already handle.
#ifndef EKTELO_STORE_IO_H_
#define EKTELO_STORE_IO_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace ektelo::store::io {

/// fopen with an injectable failure.
std::FILE* Open(const std::string& path, const char* mode, const char* site);

/// Reads exactly n bytes at the current position; false on short read,
/// I/O error, or injected error.
bool Read(std::FILE* f, void* buf, std::size_t n, const char* site);

/// Writes exactly n bytes; an injected short write lands floor(n/2)
/// bytes before failing (the torn-record case recovery must handle).
bool Write(std::FILE* f, const void* buf, std::size_t n, const char* site);

/// fflush; an injected failure reports without flushing (the bytes stay
/// in the stdio buffer — lost if the process dies before a later flush).
bool Flush(std::FILE* f, const char* site);

/// fsync(fileno(f)); an injected failure models a dropped fsync.  Always
/// succeeds (no-op) on platforms without fsync.
bool Fsync(std::FILE* f, const char* site);

/// Atomic rename; false leaves `from` in place.
bool Rename(const std::string& from, const std::string& to, const char* site);

/// Write-whole-file-then-rename replace with per-step failpoints:
/// `<site_prefix>.open`, `.write`, `.flush`, `.rename`.  On any failure
/// the tmp file is removed and the destination is untouched.
bool AtomicWriteFile(const std::string& path, const std::vector<uint8_t>& bytes,
                     const char* site_prefix);

/// Slurp a file.  Failpoints `<site_prefix>.open` and `.read`; false on
/// absence or failure.
bool ReadWholeFile(const std::string& path, std::vector<uint8_t>* out,
                   const char* site_prefix);

}  // namespace ektelo::store::io

#endif  // EKTELO_STORE_IO_H_
