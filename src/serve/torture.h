// Crash-consistency torture harness: the failpoint layer's consumer.
//
// The harness runs a fixed, deterministic workload against the one
// durable subsystem, the budget ledger (create/charge/refund/
// checkpoint), then uses the failpoint trace of one clean run to enumerate
// every I/O operation the workload performs.  For each operation k it
// forks a child that re-runs the workload with "*=crash@k" armed (the
// child std::_Exit()s mid-syscall, destructors never run, buffered
// user-space state is lost exactly as in a kill -9), then reopens the
// ledger in the parent and checks the invariant that must hold at
// EVERY crash point: the ledger opens (a torn tail is recoverable,
// never fatal) and no tenant's durable `spent` under-counts the
// releases the workload's shadow log recorded — the paper's
// Algorithm-2 accounting must fail safe (over-count allowed, never
// under).
//
// The shadow release log is the harness's ground truth: one raw
// O_APPEND write() per released answer, appended only AFTER Charge
// returned kCharged — it survives _Exit the same way the ledger must.
//
// POSIX-only (fork).
#ifndef EKTELO_SERVE_TORTURE_H_
#define EKTELO_SERVE_TORTURE_H_

#include <cstddef>
#include <string>
#include <vector>

namespace ektelo::serve::torture {

/// Runs the deterministic workload in `dir` (created if needed):
/// 2 tenants x 12 charge/refund/release steps against the ledger and a
/// final checkpoint.  Returns false only on setup failure (unusable
/// dir); injected I/O errors do not fail the run.
bool RunWorkload(const std::string& dir);

/// Reopens the ledger left in `dir` after a (simulated) crash and checks
/// the invariant above.  False on violation, with an
/// explanation in *why.
bool VerifyAfterCrash(const std::string& dir, std::string* why);

struct CrashMatrixOptions {
  /// Scratch directory; destroyed and recreated per crash point.
  std::string dir;
  /// Quick preset (CI): crash only at the FIRST hit of each distinct
  /// site instead of at every operation.  Still covers every site.
  bool quick = false;
  /// Cap on crash points exercised (0 = all).  Full coverage of every
  /// site is only guaranteed when the cap is not the binding limit.
  std::size_t max_crashes = 0;
};

struct CrashMatrixResult {
  std::size_t total_ops = 0;  // failpoint hits in one clean run
  std::size_t crashes = 0;    // crash points actually exercised
  std::vector<std::string> sites_covered;  // distinct sites crashed at
  std::vector<std::string> violations;     // empty = all invariants held
  bool ok() const { return crashes > 0 && violations.empty(); }
};

/// Trace one clean run, then fork+crash+verify at each chosen point.
/// Resets the process-global failpoint registry before and after.
CrashMatrixResult RunCrashMatrix(const CrashMatrixOptions& opts);

}  // namespace ektelo::serve::torture

#endif  // EKTELO_SERVE_TORTURE_H_
