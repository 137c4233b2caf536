#include "store/io.h"

#include <cerrno>
#include <filesystem>

#include <unistd.h>

#include "util/failpoint.h"

namespace ektelo::store::io {

namespace {

namespace fs = std::filesystem;

using failpoint::Action;
using failpoint::ActionKind;

bool Injected(const Action& a) {
  if (a.kind == ActionKind::kNone) return false;
  errno = a.err;
  return true;
}

}  // namespace

std::FILE* Open(const std::string& path, const char* mode, const char* site) {
  if (Injected(failpoint::Check(site))) return nullptr;
  return std::fopen(path.c_str(), mode);
}

bool Read(std::FILE* f, void* buf, std::size_t n, const char* site) {
  if (Injected(failpoint::Check(site))) return false;
  return n == 0 || std::fread(buf, 1, n, f) == n;
}

bool Write(std::FILE* f, const void* buf, std::size_t n, const char* site) {
  const Action a = failpoint::Check(site);
  if (a.kind == ActionKind::kShortWrite) {
    // Land a prefix, then fail: exactly the torn frame a real kill or
    // ENOSPC mid-write leaves for recovery to detect and drop.
    (void)std::fwrite(buf, 1, n / 2, f);
    (void)std::fflush(f);
    errno = a.err;
    return false;
  }
  if (Injected(a)) return false;
  return n == 0 || std::fwrite(buf, 1, n, f) == n;
}

bool Flush(std::FILE* f, const char* site) {
  if (Injected(failpoint::Check(site))) return false;
  return std::fflush(f) == 0;
}

bool Fsync(std::FILE* f, const char* site) {
  if (Injected(failpoint::Check(site))) return false;
  return fsync(fileno(f)) == 0;
}

bool Rename(const std::string& from, const std::string& to, const char* site) {
  if (Injected(failpoint::Check(site))) return false;
  std::error_code ec;
  fs::rename(from, to, ec);
  return !ec;
}

bool AtomicWriteFile(const std::string& path, const std::vector<uint8_t>& bytes,
                     const char* site_prefix) {
  const std::string prefix(site_prefix);
  const std::string tmp = path + ".tmp";
  std::FILE* f = Open(tmp, "wb", (prefix + ".open").c_str());
  if (f == nullptr) return false;
  const bool wrote = Write(f, bytes.data(), bytes.size(),
                           (prefix + ".write").c_str());
  const bool flushed = wrote && Flush(f, (prefix + ".flush").c_str());
  std::fclose(f);
  if (!wrote || !flushed) {
    std::remove(tmp.c_str());
    return false;
  }
  if (!Rename(tmp, path, (prefix + ".rename").c_str())) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool ReadWholeFile(const std::string& path, std::vector<uint8_t>* out,
                   const char* site_prefix) {
  const std::string prefix(site_prefix);
  std::FILE* f = Open(path, "rb", (prefix + ".open").c_str());
  if (f == nullptr) return false;
  std::fseek(f, 0, SEEK_END);
  const long n = std::ftell(f);
  if (n < 0) {
    std::fclose(f);
    return false;
  }
  out->resize(std::size_t(n));
  std::fseek(f, 0, SEEK_SET);
  const bool ok = Read(f, out->data(), out->size(), (prefix + ".read").c_str());
  std::fclose(f);
  return ok;
}

}  // namespace ektelo::store::io
