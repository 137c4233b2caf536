// Durable per-tenant privacy-budget ledger: the Algorithm-2 accountant
// made persistent, so a serving daemon can restart without forgetting
// what any tenant has already spent.
//
// A BudgetLedger is a directory holding three files, reusing the
// store/ versioned-record discipline (little-endian framing, per-record
// checksums, torn-tail recovery, tmp+rename checkpoints):
//
//   ledger.data    append-only charge log.  Header {magic "EKLD",
//                  format_version}, then framed records {magic "EKLR",
//                  kind, name_len, name, amount, checksum}.  Kinds:
//                  create (amount = initial total), charge, refund,
//                  set_total.
//
//   ledger.ckpt    checkpointed balances: {magic "EKLC", format_version,
//                  covered_bytes, n_tenants, per-tenant {name_len, name,
//                  total, spent}, whole-file checksum}, replaced
//                  atomically (tmp + rename).  On open a valid
//                  checkpoint seeds the balances and only the log tail
//                  beyond covered_bytes is replayed; a missing/corrupt/
//                  stale checkpoint triggers a full replay.
//
//   ledger.lock    exclusive-create pid file.  There is NO read-only
//                  degradation: a budget ledger with two live writers
//                  could double-release answers against one budget, so
//                  Open refuses (returns nullptr) while another live
//                  process holds the lock.
//                  A lock whose recorded owner is dead is reclaimed.
//
// Durability ordering is the privacy-critical contract: Charge appends
// and flushes the record BEFORE reporting success, and the caller must
// release the noisy answer only after Charge returns true.  A crash can
// therefore leave at most a torn trailing record for an answer that was
// NEVER released — recovery drops the torn tail, and the recovered
// `spent` is always >= the epsilon of every answer actually released.
// Replayed balances can only over-count (a flushed charge whose answer
// was lost in the crash), never under-count: the ledger fails safe.
//
// Charges use the same relative+absolute slack as the in-memory
// BudgetScope (budget.h), so an admission decision made against the
// ledger agrees with the kernel-side accountant to the last ulp.
//
// Thread-safe (one internal mutex); Charge/Refund for different tenants
// serialize, which is what keeps each tenant's spent deterministic for
// a deterministic request set (per-tenant sums are order-sensitive only
// in FP rounding; per-tenant request streams are ordered upstream).
#ifndef EKTELO_SERVE_LEDGER_H_
#define EKTELO_SERVE_LEDGER_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace ektelo::serve {

struct LedgerOptions {
  /// fsync the data file after every charge append.  Default off: the
  /// stdio flush already survives process death (the OS holds the
  /// bytes); fsync additionally survives power loss, at real latency
  /// cost per request.  EKTELO_SERVE_FSYNC=1 turns it on in the daemon.
  bool fsync_each_charge = false;
  /// Rewrite the balance checkpoint every this many appends (and on
  /// close).  Replay cost after a crash is bounded by this window.
  std::size_t checkpoint_every = 64;
};

struct TenantBudget {
  double total = 0.0;
  double spent = 0.0;
};

/// Outcome of a Charge.  Budget refusals and durability failures are
/// different animals: a refusal is a correct public decision (retry
/// after a top-up), an I/O error means the ledger could not make the
/// charge durable — the caller MUST fail the request closed (release
/// nothing), because budget durability cannot degrade.
enum class ChargeResult : uint8_t {
  kCharged = 0,  // durable on disk; the answer may be released
  kRefused = 1,  // unknown tenant / bad eps / insufficient budget
  kIoError = 2,  // append failed; nothing consumed, nothing released
};

class BudgetLedger {
 public:
  struct Stats {
    std::size_t tenants = 0;
    std::size_t charges = 0;    // successful durable charges (this open)
    std::size_t refunds = 0;
    std::size_t refusals = 0;   // Charge calls refused for budget
    std::size_t appends = 0;    // records appended (this open)
    std::size_t checkpoints = 0;
    std::size_t replayed_records = 0;  // records recovered on open
    std::size_t torn_drops = 0;        // torn/corrupt tail records dropped
    std::size_t io_errors = 0;         // failed appends/checkpoints
    bool recovered_from_checkpoint = false;
  };

  /// Opens (creating if needed) the ledger in `dir`.  Returns nullptr
  /// when the directory/files cannot be created OR another live process
  /// holds the writer lock — budget ledgers never open read-only.
  static std::unique_ptr<BudgetLedger> Open(const std::string& dir,
                                            const LedgerOptions& opts);

  /// Checkpoints balances and releases the writer lock.
  ~BudgetLedger();

  BudgetLedger(const BudgetLedger&) = delete;
  BudgetLedger& operator=(const BudgetLedger&) = delete;

  /// Registers a tenant with an initial budget (durable).  False if the
  /// tenant already exists (existing balances are never reset — use
  /// SetTotal to grow a budget) or on I/O failure.
  bool CreateTenant(const std::string& tenant, double total);

  /// Durably replaces a tenant's total budget (spent is untouched).
  bool SetTotal(const std::string& tenant, double total);

  /// Admission pre-check: would Charge(tenant, eps) succeed right now?
  /// Advisory only — the authoritative check is inside Charge.
  bool CanCharge(const std::string& tenant, double eps) const;

  /// Durably charges eps against the tenant: the record is appended and
  /// flushed BEFORE this returns kCharged, and only then may the caller
  /// release the answer.  kRefused (nothing consumed) when the tenant
  /// is unknown, eps is not positive and finite, or the remaining
  /// budget is insufficient; kIoError (nothing consumed, nothing
  /// durable) when the append itself fails.
  ChargeResult Charge(const std::string& tenant, double eps);

  /// Durably returns eps to the tenant (execution failed after its
  /// charge; no answer was released).  Spent clamps at zero.
  bool Refund(const std::string& tenant, double eps);

  std::optional<TenantBudget> Balance(const std::string& tenant) const;
  std::vector<std::string> Tenants() const;

  /// Atomically rewrites the balance checkpoint.
  void Checkpoint();

  Stats stats() const;
  const std::string& dir() const { return dir_; }

 private:
  explicit BudgetLedger(std::string dir);
  struct Impl;
  std::string dir_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ektelo::serve

#endif  // EKTELO_SERVE_LEDGER_H_
