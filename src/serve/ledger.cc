#include "serve/ledger.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <unordered_map>
#include <utility>

#include <signal.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/io.h"
#include "store/serialize.h"

namespace ektelo::serve {

namespace io = ::ektelo::store::io;

namespace {

obs::Counter& LedgerAppends() {
  static obs::Counter& c = obs::Registry::Global().GetCounter(
      "ektelo_ledger_appends", "Budget-ledger records appended durably");
  return c;
}
obs::Counter& LedgerCheckpoints() {
  static obs::Counter& c = obs::Registry::Global().GetCounter(
      "ektelo_ledger_checkpoints", "Budget-ledger balance checkpoints written");
  return c;
}
obs::Counter& LedgerIoErrors() {
  static obs::Counter& c = obs::Registry::Global().GetCounter(
      "ektelo_ledger_io_errors", "Budget-ledger append/checkpoint I/O errors");
  return c;
}
obs::Histogram& LedgerAppendSeconds() {
  static obs::Histogram& h = obs::Registry::Global().GetHistogram(
      "ektelo_ledger_io_seconds", "Wall time of one durable ledger I/O",
      "op=\"append\"");
  return h;
}
obs::Histogram& LedgerCheckpointSeconds() {
  static obs::Histogram& h = obs::Registry::Global().GetHistogram(
      "ektelo_ledger_io_seconds", "Wall time of one durable ledger I/O",
      "op=\"checkpoint\"");
  return h;
}

namespace fs = std::filesystem;

constexpr uint32_t kLedgerMagic = 0x444C4B45u;  // "EKLD" little-endian
constexpr uint32_t kRecordMagic = 0x524C4B45u;  // "EKLR"
constexpr uint32_t kCkptMagic = 0x434C4B45u;    // "EKLC"

constexpr std::size_t kHeaderBytes = 8;  // magic, format version
constexpr std::size_t kMaxNameLen = 4096;

// Same slack as BudgetScope (kernel/budget.h): admission decisions made
// here agree with the kernel-side accountant to the last ulp.
constexpr double kSlack = 1e-9;

enum RecordKind : uint8_t {
  kCreate = 1,    // amount = initial total, spent = 0
  kCharge = 2,    // spent += amount
  kRefund = 3,    // spent = max(0, spent - amount)
  kSetTotal = 4,  // total = amount
};

bool WithinBudget(double spent, double eps, double total) {
  return spent + eps <= total * (1.0 + kSlack) + kSlack;
}

/// One framed log record: magic, then a checksummed body.
std::vector<uint8_t> EncodeRecord(uint8_t kind, const std::string& name,
                                  double amount) {
  store::ByteWriter body;
  body.U8(kind);
  body.U64(name.size());
  body.Raw(reinterpret_cast<const uint8_t*>(name.data()), name.size());
  body.F64(amount);
  store::ByteWriter w;
  w.U32(kRecordMagic);
  w.U64(store::Checksum64(body.bytes()));
  w.Raw(body.bytes().data(), body.bytes().size());
  return w.Take();
}

struct DecodedRecord {
  uint8_t kind = 0;
  std::string name;
  double amount = 0.0;
  std::size_t frame_bytes = 0;  // total bytes this record consumed
};

/// Parses one record at the reader's position.  False on anything torn,
/// corrupt, or malformed — the caller stops scanning there.
bool DecodeRecord(store::ByteReader* r, DecodedRecord* out) {
  uint32_t magic;
  uint64_t checksum;
  const std::size_t before = r->remaining();
  if (!r->U32(&magic) || magic != kRecordMagic || !r->U64(&checksum))
    return false;
  // Re-checksum the body exactly as written: kind, name_len, name, amount.
  uint8_t kind;
  uint64_t name_len;
  if (!r->U8(&kind) || !r->U64(&name_len) || name_len > kMaxNameLen ||
      r->remaining() < name_len + 8)
    return false;
  store::ByteWriter body;
  body.U8(kind);
  body.U64(name_len);
  std::string name(name_len, '\0');
  for (uint64_t i = 0; i < name_len; ++i) {
    uint8_t b;
    if (!r->U8(&b)) return false;
    name[i] = char(b);
    body.U8(b);
  }
  double amount;
  if (!r->F64(&amount)) return false;
  body.F64(amount);
  if (store::Checksum64(body.bytes()) != checksum) return false;
  if (kind < kCreate || kind > kSetTotal) return false;
  out->kind = kind;
  out->name = std::move(name);
  out->amount = amount;
  out->frame_bytes = before - r->remaining();
  return true;
}

}  // namespace

struct BudgetLedger::Impl {
  LedgerOptions opts;
  std::string data_path, ckpt_path, lock_path;

  mutable std::mutex mu;
  std::FILE* f = nullptr;  // data file, "r+b"; guarded by mu
  bool locked = false;
  uint64_t append_off = kHeaderBytes;
  std::size_t appends_since_ckpt = 0;
  std::unordered_map<std::string, TenantBudget> balances;
  Stats st;
  bool open_ok = false;

  ~Impl() {
    if (f != nullptr) std::fclose(f);
    if (locked) std::remove(lock_path.c_str());
  }

  /// Exclusive-create pid lock, reclaiming from a dead owner.
  bool AcquireLock() {
    std::FILE* lf = std::fopen(lock_path.c_str(), "wx");
    if (lf == nullptr) {
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
    if (lf == nullptr) return false;
    std::fprintf(lf, "%ld\n", long(getpid()));
    std::fflush(lf);
    std::fclose(lf);
    locked = true;
    return true;
  }

  // ---- recovery (open path; no lock needed yet) ----

  /// Loads the checkpoint into `balances`.  Returns the number of data
  /// bytes it covers, or 0 when absent/corrupt/oversized (full replay).
  uint64_t LoadCheckpoint(uint64_t data_size) {
    std::vector<uint8_t> bytes;
    if (!io::ReadWholeFile(ckpt_path, &bytes, "ledger.ckpt") ||
        bytes.size() < 8 + 8)
      return 0;
    // Trailing whole-file checksum covers everything before it.
    store::ByteReader tail(bytes.data() + bytes.size() - 8, 8);
    uint64_t want;
    if (!tail.U64(&want) ||
        store::Checksum64(bytes.data(), bytes.size() - 8) != want)
      return 0;
    store::ByteReader r(bytes.data(), bytes.size() - 8);
    uint32_t magic, version;
    uint64_t covered, n;
    if (!r.U32(&magic) || magic != kCkptMagic || !r.U32(&version) ||
        version != store::kFormatVersion || !r.U64(&covered) ||
        covered < kHeaderBytes || covered > data_size || !r.U64(&n))
      return 0;
    std::unordered_map<std::string, TenantBudget> loaded;
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t len;
      if (!r.U64(&len) || len > kMaxNameLen || r.remaining() < len + 16)
        return 0;
      std::string name(len, '\0');
      for (uint64_t j = 0; j < len; ++j) {
        uint8_t b;
        if (!r.U8(&b)) return 0;
        name[j] = char(b);
      }
      TenantBudget tb;
      if (!r.F64(&tb.total) || !r.F64(&tb.spent)) return 0;
      loaded.emplace(std::move(name), tb);
    }
    if (r.remaining() != 0) return 0;
    balances = std::move(loaded);
    st.recovered_from_checkpoint = true;
    return covered;
  }

  /// Applies one decoded record to the balances.  Mirrors the live
  /// mutation paths exactly, so replay(log) == the sequence of applied
  /// operations, bit for bit.
  void Apply(const DecodedRecord& rec) {
    switch (rec.kind) {
      case kCreate:
        balances.emplace(rec.name, TenantBudget{rec.amount, 0.0});
        break;
      case kCharge: {
        auto it = balances.find(rec.name);
        if (it != balances.end()) it->second.spent += rec.amount;
        break;
      }
      case kRefund: {
        auto it = balances.find(rec.name);
        if (it != balances.end())
          it->second.spent = std::max(0.0, it->second.spent - rec.amount);
        break;
      }
      case kSetTotal: {
        auto it = balances.find(rec.name);
        if (it != balances.end()) it->second.total = rec.amount;
        break;
      }
      default:
        break;
    }
  }

  /// Replays log records in [from, data.size()), stopping at the first
  /// torn/corrupt record; `append_off` regresses to the last good byte
  /// so the next append overwrites the torn tail in place.
  void ReplayTail(const std::vector<uint8_t>& data, uint64_t from) {
    uint64_t off = from;
    store::ByteReader r(data.data() + from, data.size() - from);
    DecodedRecord rec;
    while (r.remaining() > 0 && DecodeRecord(&r, &rec)) {
      Apply(rec);
      ++st.replayed_records;
      off += rec.frame_bytes;
    }
    if (off < data.size()) ++st.torn_drops;
    append_off = off;
  }

  // ---- durable append (mu held) ----

  bool Append(uint8_t kind, const std::string& name, double amount) {
    if (f == nullptr || name.size() > kMaxNameLen) return false;
    obs::Span span("ledger.append", "ledger", &LedgerAppendSeconds());
    span.Attr("epsilon", amount);
    if (fseeko(f, off_t(append_off), SEEK_SET) != 0) return false;
    const std::vector<uint8_t> frame = EncodeRecord(kind, name, amount);
    // A failed (possibly partial) write leaves append_off where it was:
    // the NEXT append seeks back and overwrites the torn bytes, and a
    // reopen drops them as a torn tail.  Either way the frame that
    // failed here was never reported durable, so nothing was released
    // against it.
    if (!io::Write(f, frame.data(), frame.size(), "ledger.append") ||
        !io::Flush(f, "ledger.flush")) {
      ++st.io_errors;
      LedgerIoErrors().Inc();
      return false;
    }
    if (opts.fsync_each_charge && !io::Fsync(f, "ledger.fsync")) {
      ++st.io_errors;
      LedgerIoErrors().Inc();
      return false;
    }
    append_off += frame.size();
    ++st.appends;
    LedgerAppends().Inc();
    ++appends_since_ckpt;
    return true;
  }

  /// Checkpoint cadence.  Must run AFTER the caller applied the
  /// just-appended record to `balances`: a checkpoint taken inside
  /// Append would stamp `covered = append_off` (including the new
  /// record's bytes) over a balance snapshot that does not yet hold its
  /// mutation, and recovery would silently skip the record — an
  /// under-count of spent budget, the one failure the ledger exists to
  /// rule out (the crash matrix catches exactly this).
  void MaybeCheckpoint() {
    if (appends_since_ckpt >= opts.checkpoint_every) WriteCheckpoint();
  }

  /// Atomically rewrites the balance checkpoint (mu held).
  void WriteCheckpoint() {
    obs::Span span("ledger.checkpoint", "ledger", &LedgerCheckpointSeconds());
    store::ByteWriter w;
    w.U32(kCkptMagic);
    w.U32(store::kFormatVersion);
    w.U64(append_off);
    w.U64(balances.size());
    for (const auto& [name, tb] : balances) {
      w.U64(name.size());
      w.Raw(reinterpret_cast<const uint8_t*>(name.data()), name.size());
      w.F64(tb.total);
      w.F64(tb.spent);
    }
    w.U64(store::Checksum64(w.bytes()));
    if (io::AtomicWriteFile(ckpt_path, w.bytes(), "ledger.ckpt")) {
      ++st.checkpoints;
      LedgerCheckpoints().Inc();
      appends_since_ckpt = 0;
    } else {
      // The log already holds every record a checkpoint would cover;
      // losing the rewrite only lengthens the next replay.
      ++st.io_errors;
      LedgerIoErrors().Inc();
    }
  }
};

BudgetLedger::BudgetLedger(std::string dir)
    : dir_(std::move(dir)), impl_(new Impl) {}

BudgetLedger::~BudgetLedger() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (impl_->f != nullptr) impl_->WriteCheckpoint();
}

std::unique_ptr<BudgetLedger> BudgetLedger::Open(const std::string& dir,
                                                 const LedgerOptions& opts) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return nullptr;

  std::unique_ptr<BudgetLedger> ledger(new BudgetLedger(dir));
  Impl& im = *ledger->impl_;
  im.opts = opts;
  if (im.opts.checkpoint_every == 0) im.opts.checkpoint_every = 1;
  im.data_path = dir + "/ledger.data";
  im.ckpt_path = dir + "/ledger.ckpt";
  im.lock_path = dir + "/ledger.lock";

  // A live writer elsewhere means refuse outright: two accountants on
  // one ledger could double-release answers against a single budget.
  if (!im.AcquireLock()) return nullptr;

  std::vector<uint8_t> data;
  bool fresh = !io::ReadWholeFile(im.data_path, &data, "ledger.data");
  if (!fresh) {
    store::ByteReader r(data);
    uint32_t magic = 0, version = 0;
    if (data.size() < kHeaderBytes || !r.U32(&magic) ||
        magic != kLedgerMagic || !r.U32(&version) ||
        version != store::kFormatVersion) {
      // A garbage ledger is NOT silently replaced — budgets are not a
      // cache.  An empty/short file (a
      // crash before the header flush) is the one safe exception.
      if (!data.empty()) return nullptr;
      fresh = true;
    }
  }

  if (fresh) {
    store::ByteWriter w;
    w.U32(kLedgerMagic);
    w.U32(store::kFormatVersion);
    if (!io::AtomicWriteFile(im.data_path, w.bytes(), "ledger.create"))
      return nullptr;
    data = w.Take();
  } else {
    const uint64_t covered = im.LoadCheckpoint(uint64_t(data.size()));
    im.ReplayTail(data, covered >= kHeaderBytes ? covered : kHeaderBytes);
  }
  if (fresh) im.append_off = kHeaderBytes;

  im.f = io::Open(im.data_path, "r+b", "ledger.data.open");
  if (im.f == nullptr) return nullptr;
  im.open_ok = true;
  return ledger;
}

bool BudgetLedger::CreateTenant(const std::string& tenant, double total) {
  if (!std::isfinite(total) || total < 0.0 || tenant.empty()) return false;
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (impl_->balances.count(tenant) != 0) return false;
  if (!impl_->Append(kCreate, tenant, total)) return false;
  impl_->balances.emplace(tenant, TenantBudget{total, 0.0});
  impl_->MaybeCheckpoint();
  return true;
}

bool BudgetLedger::SetTotal(const std::string& tenant, double total) {
  if (!std::isfinite(total) || total < 0.0) return false;
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->balances.find(tenant);
  if (it == impl_->balances.end()) return false;
  if (!impl_->Append(kSetTotal, tenant, total)) return false;
  it->second.total = total;
  impl_->MaybeCheckpoint();
  return true;
}

bool BudgetLedger::CanCharge(const std::string& tenant, double eps) const {
  if (!std::isfinite(eps) || eps <= 0.0) return false;
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->balances.find(tenant);
  return it != impl_->balances.end() &&
         WithinBudget(it->second.spent, eps, it->second.total);
}

ChargeResult BudgetLedger::Charge(const std::string& tenant, double eps) {
  if (!std::isfinite(eps) || eps <= 0.0) return ChargeResult::kRefused;
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->balances.find(tenant);
  if (it == impl_->balances.end() ||
      !WithinBudget(it->second.spent, eps, it->second.total)) {
    ++impl_->st.refusals;
    return ChargeResult::kRefused;
  }
  // Durable BEFORE the balance moves: the caller releases the answer
  // only after we return kCharged, so a crash between append and
  // release over-counts (safe), never under-counts.  An append failure
  // is NOT a budget refusal — the caller must surface it as a
  // durability error, not "budget exhausted".
  if (!impl_->Append(kCharge, tenant, eps)) return ChargeResult::kIoError;
  it->second.spent += eps;
  ++impl_->st.charges;
  impl_->MaybeCheckpoint();
  return ChargeResult::kCharged;
}

bool BudgetLedger::Refund(const std::string& tenant, double eps) {
  if (!std::isfinite(eps) || eps <= 0.0) return false;
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->balances.find(tenant);
  if (it == impl_->balances.end()) return false;
  if (!impl_->Append(kRefund, tenant, eps)) return false;
  it->second.spent = std::max(0.0, it->second.spent - eps);
  ++impl_->st.refunds;
  impl_->MaybeCheckpoint();
  return true;
}

std::optional<TenantBudget> BudgetLedger::Balance(
    const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->balances.find(tenant);
  if (it == impl_->balances.end()) return std::nullopt;
  return it->second;
}

std::vector<std::string> BudgetLedger::Tenants() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<std::string> names;
  names.reserve(impl_->balances.size());
  for (const auto& [name, tb] : impl_->balances) names.push_back(name);
  return names;
}

void BudgetLedger::Checkpoint() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->WriteCheckpoint();
}

BudgetLedger::Stats BudgetLedger::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  Stats s = impl_->st;
  s.tenants = impl_->balances.size();
  return s;
}

}  // namespace ektelo::serve
