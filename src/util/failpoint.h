// Deterministic fault injection: named failpoint sites threaded under
// every durable-I/O call (store/io.h), armed from the environment or
// programmatically, compiled to zero-cost no-ops when disabled.
//
// A *site* is a stable string naming one fallible operation, e.g.
// "ledger.append" or "ledger.ckpt.rename".  Instrumented code asks
// `failpoint::Check(site)` what to do at each hit; the registry answers
// with an Action according to the armed rules:
//
//   EKTELO_FAILPOINTS="site=spec[,site=spec...]"
//
//   spec := action[@N | %N]
//   action := off            disarm
//           | crash          std::_Exit(kCrashExitCode) at the hit
//           | error[.code]   fail the operation (default code eio)
//           | short[.code]   short write: half the bytes land, then fail
//   @N  trigger on the Nth hit of this site only (1-based)
//   %N  trigger on every Nth hit
//   code := eio | enospc | eintr | epipe | eagain
//
// The site "*" matches every site and its hit counter is the *global*
// hit counter, which is what lets a crash-consistency harness enumerate
// every I/O operation a workload performs without hand-listing sites:
// trace one clean run, then re-run with "*=crash@k" for k = 1..N.
//
// Determinism: rules trigger on exact hit counts of a deterministic
// workload, so an injected fault is perfectly reproducible.  The
// registry is process-global and thread-safe; `Reset()` returns it to
// the pristine (disarmed, zero-count, no-trace) state — forked harness
// children call it before arming their own schedule.
//
// When the build disables injection (CMake -DEKTELO_FAILPOINTS=OFF,
// i.e. EKTELO_FAILPOINTS_ENABLED=0), Check() is an inline no-op and no
// registry code is linked into the call sites.
#ifndef EKTELO_UTIL_FAILPOINT_H_
#define EKTELO_UTIL_FAILPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#ifndef EKTELO_FAILPOINTS_ENABLED
#define EKTELO_FAILPOINTS_ENABLED 1
#endif

namespace ektelo::failpoint {

/// Exit code of a `crash` action: distinguishes a simulated kill from
/// real aborts (ASan, EK_CHECK) in harness parents.
inline constexpr int kCrashExitCode = 86;

enum class ActionKind : uint8_t {
  kNone = 0,
  kError = 1,       // fail the operation with `err`
  kShortWrite = 2,  // write half the bytes, then fail with `err`
  // kCrash never reaches the caller: Check() exits the process.
};

struct Action {
  ActionKind kind = ActionKind::kNone;
  int err = 0;  // errno to report for kError / kShortWrite
};

#if EKTELO_FAILPOINTS_ENABLED

class Registry {
 public:
  /// Process-wide instance.  First use arms rules from the
  /// EKTELO_FAILPOINTS environment variable (unparsable specs warn on
  /// stderr and are skipped).
  static Registry& Global();

  /// Arms `site` (or "*") with a spec like "crash@3", "error.enospc",
  /// "short%2", "off".  Replaces any existing rule for the site.
  /// False (nothing armed) on an unparsable spec.
  bool Arm(const std::string& site, const std::string& spec);

  /// Arms a full comma-separated "site=spec,..." list; false if any
  /// element is malformed (valid ones before it stay armed).
  bool ArmList(const std::string& list);

  void Disarm(const std::string& site);
  void DisarmAll();

  /// Back to pristine: disarm everything, zero every counter, stop and
  /// clear tracing.  Does NOT re-read the environment.
  void Reset();

  /// Record the site name of every subsequent hit, in order.
  void StartTrace();
  /// Stops tracing and returns the recorded hit sequence.
  std::vector<std::string> StopTrace();

  /// Every site hit since the last Reset, in first-hit order (only
  /// tracked while tracing or while any rule is armed).
  std::vector<std::string> Sites() const;
  uint64_t GlobalHits() const;

  /// The instrumentation entry point: counts the hit, records the
  /// trace, and applies the armed rule (a crash rule exits here).
  Action Hit(const char* site);

 private:
  Registry();
  struct Impl;
  Impl* impl_;  // leaked singleton state; never destroyed
};

/// What instrumented code calls.  Compiles away when disabled.
inline Action Check(const char* site) { return Registry::Global().Hit(site); }

#else  // !EKTELO_FAILPOINTS_ENABLED

inline Action Check(const char*) { return {}; }

#endif  // EKTELO_FAILPOINTS_ENABLED

}  // namespace ektelo::failpoint

#endif  // EKTELO_UTIL_FAILPOINT_H_
