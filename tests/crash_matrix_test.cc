// Failpoint registry semantics + the crash-consistency torture matrix:
// every I/O operation of the deterministic workload gets a simulated
// kill, and the reopened ledger must uphold its invariant at every
// single crash point (see serve/torture.h).
#include <cerrno>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/ledger.h"
#include "serve/torture.h"
#include "util/failpoint.h"

namespace {

namespace fs = std::filesystem;
namespace fp = ektelo::failpoint;
using ektelo::serve::BudgetLedger;
using ektelo::serve::ChargeResult;
using ektelo::serve::LedgerOptions;

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (fs::temp_directory_path() / ("ektelo_crash_matrix_" + name)).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

#if EKTELO_FAILPOINTS_ENABLED

/// Every test leaves the process-global registry pristine.
struct RegistryGuard {
  RegistryGuard() { fp::Registry::Global().Reset(); }
  ~RegistryGuard() { fp::Registry::Global().Reset(); }
};

TEST(Failpoint, SpecParsingAndTriggerSchedules) {
  RegistryGuard guard;
  fp::Registry& reg = fp::Registry::Global();

  // Unparsable specs arm nothing.
  EXPECT_FALSE(reg.Arm("x", "explode"));
  EXPECT_FALSE(reg.Arm("x", "error.ebadcode"));
  EXPECT_FALSE(reg.Arm("x", "crash@"));
  EXPECT_FALSE(reg.Arm("x", "error@0"));

  // error every hit, default code EIO.
  ASSERT_TRUE(reg.Arm("a", "error"));
  fp::Action act = reg.Hit("a");
  EXPECT_EQ(act.kind, fp::ActionKind::kError);
  EXPECT_EQ(act.err, EIO);

  // @N: fires on exactly the Nth hit of that site.
  ASSERT_TRUE(reg.Arm("b", "error.enospc@2"));
  EXPECT_EQ(reg.Hit("b").kind, fp::ActionKind::kNone);
  act = reg.Hit("b");
  EXPECT_EQ(act.kind, fp::ActionKind::kError);
  EXPECT_EQ(act.err, ENOSPC);
  EXPECT_EQ(reg.Hit("b").kind, fp::ActionKind::kNone);

  // %N: fires on every Nth hit.
  ASSERT_TRUE(reg.Arm("c", "short%2"));
  EXPECT_EQ(reg.Hit("c").kind, fp::ActionKind::kNone);
  EXPECT_EQ(reg.Hit("c").kind, fp::ActionKind::kShortWrite);
  EXPECT_EQ(reg.Hit("c").kind, fp::ActionKind::kNone);
  EXPECT_EQ(reg.Hit("c").kind, fp::ActionKind::kShortWrite);

  // off disarms; ArmList handles the comma grammar.
  ASSERT_TRUE(reg.Arm("a", "off"));
  EXPECT_EQ(reg.Hit("a").kind, fp::ActionKind::kNone);
  ASSERT_TRUE(reg.ArmList("p=error.epipe,q=error@3"));
  EXPECT_EQ(reg.Hit("p").err, EPIPE);
  EXPECT_FALSE(reg.ArmList("p=error,broken"));
}

TEST(Failpoint, WildcardSchedulesAgainstGlobalHitCounter) {
  RegistryGuard guard;
  fp::Registry& reg = fp::Registry::Global();
  ASSERT_TRUE(reg.Arm("*", "error@3"));
  EXPECT_EQ(reg.Hit("one").kind, fp::ActionKind::kNone);
  EXPECT_EQ(reg.Hit("two").kind, fp::ActionKind::kNone);
  EXPECT_EQ(reg.Hit("three").kind, fp::ActionKind::kError);  // global hit 3
  EXPECT_EQ(reg.Hit("three").kind, fp::ActionKind::kNone);
}

TEST(Failpoint, TraceRecordsHitSequence) {
  RegistryGuard guard;
  fp::Registry& reg = fp::Registry::Global();
  reg.StartTrace();
  (void)reg.Hit("s1");
  (void)reg.Hit("s2");
  (void)reg.Hit("s1");
  const std::vector<std::string> trace = reg.StopTrace();
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0], "s1");
  EXPECT_EQ(trace[1], "s2");
  EXPECT_EQ(trace[2], "s1");
}

TEST(Failpoint, LedgerChargeFailsClosedOnInjectedAppendError) {
  RegistryGuard guard;
  const std::string dir = FreshDir("ledger_io");
  auto ledger = BudgetLedger::Open(dir, LedgerOptions{});
  ASSERT_NE(ledger, nullptr);
  ASSERT_TRUE(ledger->CreateTenant("t", 1.0));

  ASSERT_TRUE(fp::Registry::Global().Arm("ledger.append", "error.eio"));
  EXPECT_EQ(ledger->Charge("t", 0.25), ChargeResult::kIoError);
  // Nothing consumed: the in-memory balance must not move on kIoError.
  EXPECT_DOUBLE_EQ(ledger->Balance("t")->spent, 0.0);
  EXPECT_GE(ledger->stats().io_errors, 1u);

  fp::Registry::Global().Reset();
  EXPECT_EQ(ledger->Charge("t", 0.25), ChargeResult::kCharged);
  EXPECT_DOUBLE_EQ(ledger->Balance("t")->spent, 0.25);
  EXPECT_EQ(ledger->Charge("t", 2.0), ChargeResult::kRefused);
}

TEST(CrashMatrix, CleanWorkloadPassesVerification) {
  RegistryGuard guard;
  const std::string dir = FreshDir("clean");
  ASSERT_TRUE(ektelo::serve::torture::RunWorkload(dir));
  std::string why;
  EXPECT_TRUE(ektelo::serve::torture::VerifyAfterCrash(dir, &why)) << why;
  fs::remove_all(dir);
}

TEST(CrashMatrix, WorkloadTraceIsDeterministic) {
  RegistryGuard guard;
  fp::Registry& reg = fp::Registry::Global();
  const std::string dir = FreshDir("trace");

  reg.StartTrace();
  ASSERT_TRUE(ektelo::serve::torture::RunWorkload(dir));
  const std::vector<std::string> first = reg.StopTrace();
  reg.Reset();
  fs::remove_all(dir);
  fs::create_directories(dir);

  reg.StartTrace();
  ASSERT_TRUE(ektelo::serve::torture::RunWorkload(dir));
  const std::vector<std::string> second = reg.StopTrace();
  reg.Reset();
  fs::remove_all(dir);

  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// The acceptance test: a simulated kill at EVERY I/O operation of the
// workload, zero invariant violations, and coverage of the ledger.
TEST(CrashMatrix, EveryCrashPointUpholdsInvariants) {
  RegistryGuard guard;
  ektelo::serve::torture::CrashMatrixOptions opts;
  opts.dir = FreshDir("full");
  const ektelo::serve::torture::CrashMatrixResult res =
      ektelo::serve::torture::RunCrashMatrix(opts);

  for (const std::string& v : res.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.crashes, res.total_ops);
  EXPECT_GT(res.total_ops, 20u);

  bool ledger_covered = false;
  for (const std::string& s : res.sites_covered)
    if (s.rfind("ledger.", 0) == 0) ledger_covered = true;
  EXPECT_TRUE(ledger_covered);
}

TEST(CrashMatrix, QuickPresetCoversEveryDistinctSite) {
  RegistryGuard guard;
  ektelo::serve::torture::CrashMatrixOptions opts;
  opts.dir = FreshDir("quick");
  opts.quick = true;
  const ektelo::serve::torture::CrashMatrixResult res =
      ektelo::serve::torture::RunCrashMatrix(opts);

  for (const std::string& v : res.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(res.ok());
  // One crash per distinct site, and each covered exactly once.
  EXPECT_EQ(res.crashes, res.sites_covered.size());
  EXPECT_LT(res.crashes, res.total_ops);
}

#else  // !EKTELO_FAILPOINTS_ENABLED

TEST(CrashMatrix, ReportsWhyItCannotRunWhenCompiledOut) {
  ektelo::serve::torture::CrashMatrixOptions opts;
  opts.dir = FreshDir("disabled");
  const ektelo::serve::torture::CrashMatrixResult res =
      ektelo::serve::torture::RunCrashMatrix(opts);
  EXPECT_FALSE(res.ok());
  ASSERT_EQ(res.violations.size(), 1u);
}

#endif  // EKTELO_FAILPOINTS_ENABLED

}  // namespace
