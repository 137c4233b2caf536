#include "serve/torture.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "serve/ledger.h"
#include "util/failpoint.h"

namespace ektelo::serve::torture {

namespace fs = std::filesystem;

bool RunWorkload(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return false;

  LedgerOptions lopts;
  lopts.checkpoint_every = 4;  // small window: crashes land mid-cadence
  std::unique_ptr<BudgetLedger> ledger =
      BudgetLedger::Open(dir + "/ledger", lopts);

  // The shadow release log is raw O_APPEND write()s so it survives
  // std::_Exit exactly like the ledger's own appends must: a release is
  // recorded here only AFTER Charge returned kCharged.
  const int shadow =
      ::open((dir + "/shadow.log").c_str(), O_WRONLY | O_APPEND | O_CREAT,
             0644);

  if (ledger != nullptr) {
    if (!ledger->Balance("alpha").has_value())
      ledger->CreateTenant("alpha", 4.0);
    if (!ledger->Balance("beta").has_value())
      ledger->CreateTenant("beta", 3.0);
  }

  for (std::size_t k = 1; k <= 12; ++k) {
    // Epsilons are num/1024 — exact in binary, so the verifier's sums
    // compare exactly against the ledger's.
    const int num = int(k % 5) + 1;
    const double eps = double(num) / 1024.0;
    const char* tenant = (k % 2 == 1) ? "alpha" : "beta";
    if (ledger != nullptr &&
        ledger->Charge(tenant, eps) == ChargeResult::kCharged) {
      if (k % 4 == 0) {
        // Simulated execution failure: refund instead of releasing.
        ledger->Refund(tenant, eps);
      } else if (shadow >= 0) {
        char line[64];
        const int n =
            std::snprintf(line, sizeof(line), "%s %d\n", tenant, num);
        if (n > 0) (void)!::write(shadow, line, std::size_t(n));
      }
    }
  }

  if (ledger != nullptr) ledger->Checkpoint();
  if (shadow >= 0) ::close(shadow);
  return true;
}

bool VerifyAfterCrash(const std::string& dir, std::string* why) {
  auto fail = [&](std::string m) {
    if (why != nullptr) *why = std::move(m);
    return false;
  };

  // Ground truth: every answer the workload actually handed out.
  std::map<std::string, long> released;  // tenant -> eps numerator sum
  {
    std::ifstream in(dir + "/shadow.log");
    std::string tenant;
    long num = 0;
    while (in >> tenant >> num) released[tenant] += num;
  }

  std::unique_ptr<BudgetLedger> ledger =
      BudgetLedger::Open(dir + "/ledger", LedgerOptions{});
  if (ledger == nullptr)
    return fail("ledger refused to reopen after crash");
  for (const auto& [tenant, num] : released) {
    const std::optional<TenantBudget> b = ledger->Balance(tenant);
    if (!b.has_value())
      return fail("tenant " + tenant + " vanished from ledger");
    // Both sides are sums of num/1024 terms (exact in binary); the
    // 1e-9 is pure paranoia, not FP slack the invariant needs.
    const double rel = double(num) / 1024.0;
    if (b->spent + 1e-9 < rel)
      return fail("ledger UNDER-COUNTS " + tenant + ": spent=" +
                  std::to_string(b->spent) + " < released=" +
                  std::to_string(rel));
    if (b->spent > b->total + 1e-9)
      return fail("ledger spent exceeds total for " + tenant);
  }
  return true;
}

CrashMatrixResult RunCrashMatrix(const CrashMatrixOptions& opts) {
  CrashMatrixResult res;
#if !EKTELO_FAILPOINTS_ENABLED
  res.violations.push_back(
      "failpoints compiled out (-DEKTELO_FAILPOINTS=OFF); matrix cannot run");
  (void)opts;
  return res;
#else
  failpoint::Registry& reg = failpoint::Registry::Global();
  reg.Reset();
  std::error_code ec;
  fs::remove_all(opts.dir, ec);

  // Discovery: trace one clean run; the trace IS the site enumeration —
  // no hand-maintained list, new instrumented call sites are covered the
  // moment they execute.
  reg.StartTrace();
  const bool clean_ok = RunWorkload(opts.dir);
  const std::vector<std::string> trace = reg.StopTrace();
  reg.Reset();
  if (!clean_ok || trace.empty()) {
    res.violations.push_back("clean discovery run failed or hit no sites");
    return res;
  }
  res.total_ops = trace.size();

  std::vector<std::size_t> points;  // 1-based global hit indices
  {
    std::set<std::string> seen;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (!opts.quick || seen.insert(trace[i]).second) points.push_back(i + 1);
    }
  }
  if (opts.max_crashes > 0 && points.size() > opts.max_crashes)
    points.resize(opts.max_crashes);

  std::set<std::string> covered;
  for (std::size_t k : points) {
    fs::remove_all(opts.dir, ec);
    const pid_t pid = ::fork();
    if (pid < 0) {
      res.violations.push_back("fork failed");
      break;
    }
    if (pid == 0) {
      // Child: pristine registry, one wildcard crash rule against the
      // global hit counter, then the same deterministic workload.
      reg.Reset();
      char spec[32];
      std::snprintf(spec, sizeof(spec), "crash@%llu",
                    (unsigned long long)k);
      reg.Arm("*", spec);
      RunWorkload(opts.dir);
      std::_Exit(7);  // sentinel: the armed crash point never fired
    }
    int wstatus = 0;
    (void)::waitpid(pid, &wstatus, 0);
    const std::string& site = trace[k - 1];
    ++res.crashes;
    covered.insert(site);
    if (!WIFEXITED(wstatus) ||
        WEXITSTATUS(wstatus) != failpoint::kCrashExitCode) {
      res.violations.push_back(
          "op " + std::to_string(k) + " (" + site + "): child exited " +
          std::to_string(WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1) +
          " instead of the simulated crash (nondeterministic workload?)");
      continue;
    }
    std::string why;
    if (!VerifyAfterCrash(opts.dir, &why))
      res.violations.push_back("op " + std::to_string(k) + " (" + site +
                               "): " + why);
  }
  res.sites_covered.assign(covered.begin(), covered.end());
  fs::remove_all(opts.dir, ec);
  return res;
#endif  // EKTELO_FAILPOINTS_ENABLED
}

}  // namespace ektelo::serve::torture
