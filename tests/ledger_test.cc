// Durable budget-ledger semantics: reopen preserves balances bit-for-
// bit, torn/corrupt log tails are dropped without under-counting any
// released answer, checkpoint corruption falls back to full replay,
// the writer lock excludes live processes and reclaims dead ones, and
// concurrent multi-tenant charging never over-spends (TSan target).
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "serve/ledger.h"
#include "store/serialize.h"

namespace ektelo::serve {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (fs::temp_directory_path() / ("ektelo_ledger_test_" + name)).string();
  fs::remove_all(dir);
  return dir;
}

void AppendBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

void FlipByte(const std::string& path, std::size_t offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, long(offset), SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, long(offset), SEEK_SET), 0);
  std::fputc(c ^ 0xFF, f);
  std::fclose(f);
}

TEST(BudgetLedger, ChargeRefundAndSlackSemantics) {
  const std::string dir = FreshDir("basic");
  auto ledger = BudgetLedger::Open(dir, {});
  ASSERT_NE(ledger, nullptr);

  EXPECT_TRUE(ledger->CreateTenant("a", 1.0));
  EXPECT_FALSE(ledger->CreateTenant("a", 5.0));  // never resets
  EXPECT_FALSE(ledger->CreateTenant("", 1.0));

  // Unknown tenant, non-positive, and non-finite epsilons all refuse.
  EXPECT_EQ(ledger->Charge("ghost", 0.1), ChargeResult::kRefused);
  EXPECT_EQ(ledger->Charge("a", 0.0), ChargeResult::kRefused);
  EXPECT_EQ(ledger->Charge("a", -0.5), ChargeResult::kRefused);

  EXPECT_EQ(ledger->Charge("a", 0.25), ChargeResult::kCharged);
  EXPECT_EQ(ledger->Charge("a", 0.25), ChargeResult::kCharged);
  // Exact exhaustion is admitted (BudgetScope slack), one ulp more is not.
  EXPECT_TRUE(ledger->CanCharge("a", 0.5));
  EXPECT_EQ(ledger->Charge("a", 0.5), ChargeResult::kCharged);
  EXPECT_FALSE(ledger->CanCharge("a", 1e-6));
  EXPECT_EQ(ledger->Charge("a", 1e-6), ChargeResult::kRefused);
  // The unknown-tenant charge above and the exhausted one both count.
  EXPECT_EQ(ledger->stats().refusals, 2u);

  // A refund (failed execution) restores headroom; spent clamps at 0.
  EXPECT_TRUE(ledger->Refund("a", 0.5));
  EXPECT_TRUE(ledger->CanCharge("a", 0.5));
  EXPECT_TRUE(ledger->Refund("a", 99.0));
  EXPECT_DOUBLE_EQ(ledger->Balance("a")->spent, 0.0);

  EXPECT_TRUE(ledger->SetTotal("a", 2.0));
  EXPECT_DOUBLE_EQ(ledger->Balance("a")->total, 2.0);
  fs::remove_all(dir);
}

TEST(BudgetLedger, ReopenPreservesBalancesExactly) {
  const std::string dir = FreshDir("reopen");
  // Irrational-ish charges so bit-exact replay is actually exercised.
  const std::vector<double> charges = {0.1, 0.2, 0.30000000000000004, 0.05};
  double expect_spent = 0.0;
  {
    auto ledger = BudgetLedger::Open(dir, {});
    ASSERT_NE(ledger, nullptr);
    ASSERT_TRUE(ledger->CreateTenant("a", 1.0));
    for (double eps : charges) {
      ASSERT_EQ(ledger->Charge("a", eps), ChargeResult::kCharged);
      expect_spent += eps;
    }
  }
  auto ledger = BudgetLedger::Open(dir, {});
  ASSERT_NE(ledger, nullptr);
  auto b = ledger->Balance("a");
  ASSERT_TRUE(b.has_value());
  // Replay applies the identical FP operations in the identical order.
  EXPECT_EQ(b->spent, expect_spent);
  EXPECT_EQ(b->total, 1.0);
  // A restart must not re-register the tenant with a fresh budget.
  EXPECT_FALSE(ledger->CreateTenant("a", 1.0));
  EXPECT_EQ(ledger->Balance("a")->spent, expect_spent);
  fs::remove_all(dir);
}

TEST(BudgetLedger, TornTailIsDroppedNotTrusted) {
  const std::string dir = FreshDir("torn");
  {
    auto ledger = BudgetLedger::Open(dir, {});
    ASSERT_NE(ledger, nullptr);
    ASSERT_TRUE(ledger->CreateTenant("a", 1.0));
    ASSERT_EQ(ledger->Charge("a", 0.25), ChargeResult::kCharged);
  }
  // Simulate a crash mid-append: garbage after the last intact record,
  // and no checkpoint (the crash happened before one was written).
  fs::remove(dir + "/ledger.ckpt");
  AppendBytes(dir + "/ledger.data", {0x45, 0x4B, 0x4C, 0x52, 0xDE, 0xAD});

  auto ledger = BudgetLedger::Open(dir, {});
  ASSERT_NE(ledger, nullptr);
  const auto st = ledger->stats();
  EXPECT_FALSE(st.recovered_from_checkpoint);
  EXPECT_EQ(st.replayed_records, 2u);  // create + charge
  EXPECT_EQ(st.torn_drops, 1u);
  ASSERT_TRUE(ledger->Balance("a").has_value());
  EXPECT_DOUBLE_EQ(ledger->Balance("a")->spent, 0.25);

  // The next append lands where the torn tail began; a further clean
  // reopen sees a fully intact log again.
  ASSERT_EQ(ledger->Charge("a", 0.5), ChargeResult::kCharged);
  ledger.reset();
  fs::remove(dir + "/ledger.ckpt");
  ledger = BudgetLedger::Open(dir, {});
  ASSERT_NE(ledger, nullptr);
  EXPECT_EQ(ledger->stats().torn_drops, 0u);
  EXPECT_DOUBLE_EQ(ledger->Balance("a")->spent, 0.75);
  fs::remove_all(dir);
}

TEST(BudgetLedger, CorruptCheckpointFallsBackToFullReplay) {
  const std::string dir = FreshDir("ckpt");
  {
    auto ledger = BudgetLedger::Open(dir, {});
    ASSERT_NE(ledger, nullptr);
    ASSERT_TRUE(ledger->CreateTenant("a", 1.0));
    ASSERT_EQ(ledger->Charge("a", 0.125), ChargeResult::kCharged);
    ledger->Checkpoint();
  }
  FlipByte(dir + "/ledger.ckpt", 20);
  auto ledger = BudgetLedger::Open(dir, {});
  ASSERT_NE(ledger, nullptr);
  EXPECT_FALSE(ledger->stats().recovered_from_checkpoint);
  EXPECT_EQ(ledger->stats().replayed_records, 2u);
  EXPECT_DOUBLE_EQ(ledger->Balance("a")->spent, 0.125);
  fs::remove_all(dir);
}

TEST(BudgetLedger, StaleCheckpointReplaysOnlyTheTail) {
  const std::string dir = FreshDir("stale");
  {
    auto ledger = BudgetLedger::Open(dir, {});
    ASSERT_NE(ledger, nullptr);
    ASSERT_TRUE(ledger->CreateTenant("a", 1.0));
    ASSERT_EQ(ledger->Charge("a", 0.125), ChargeResult::kCharged);
    ledger->Checkpoint();
  }
  // Preserve that checkpoint, append more charges, then put the stale
  // checkpoint back: recovery must seed from it and replay the tail.
  fs::copy_file(dir + "/ledger.ckpt", dir + "/ledger.ckpt.old");
  {
    auto ledger = BudgetLedger::Open(dir, {});
    ASSERT_NE(ledger, nullptr);
    ASSERT_EQ(ledger->Charge("a", 0.25), ChargeResult::kCharged);
    ASSERT_EQ(ledger->Charge("a", 0.0625), ChargeResult::kCharged);
  }
  fs::rename(dir + "/ledger.ckpt.old", dir + "/ledger.ckpt");

  auto ledger = BudgetLedger::Open(dir, {});
  ASSERT_NE(ledger, nullptr);
  const auto st = ledger->stats();
  EXPECT_TRUE(st.recovered_from_checkpoint);
  EXPECT_EQ(st.replayed_records, 2u);  // just the two post-checkpoint charges
  EXPECT_DOUBLE_EQ(ledger->Balance("a")->spent, 0.125 + 0.25 + 0.0625);
  fs::remove_all(dir);
}

TEST(BudgetLedger, DoubleFaultTornLogAndTornCheckpointStillRecovers) {
  const std::string dir = FreshDir("double_fault");
  {
    auto ledger = BudgetLedger::Open(dir, {});
    ASSERT_NE(ledger, nullptr);
    ASSERT_TRUE(ledger->CreateTenant("a", 1.0));
    ASSERT_EQ(ledger->Charge("a", 0.25), ChargeResult::kCharged);
    ledger->Checkpoint();
    ASSERT_EQ(ledger->Charge("a", 0.125), ChargeResult::kCharged);
  }
  // Worst-case crash: the checkpoint is corrupt AND the charge log has a
  // torn trailing append.  Recovery must not lean on either — full
  // replay of the intact prefix, torn tail dropped.
  FlipByte(dir + "/ledger.ckpt", 16);
  AppendBytes(dir + "/ledger.data", {0x45, 0x4B, 0x4C, 0x52, 0x01, 0x02});

  auto ledger = BudgetLedger::Open(dir, {});
  ASSERT_NE(ledger, nullptr);
  const auto st = ledger->stats();
  EXPECT_FALSE(st.recovered_from_checkpoint);
  EXPECT_EQ(st.replayed_records, 3u);  // create + both intact charges
  EXPECT_EQ(st.torn_drops, 1u);
  ASSERT_TRUE(ledger->Balance("a").has_value());
  // Both durable charges survive: a released answer is never forgotten.
  EXPECT_DOUBLE_EQ(ledger->Balance("a")->spent, 0.375);

  // The ledger stays fully writable after double-fault recovery.
  ASSERT_EQ(ledger->Charge("a", 0.5), ChargeResult::kCharged);
  ledger.reset();
  auto reopened = BudgetLedger::Open(dir, {});
  ASSERT_NE(reopened, nullptr);
  EXPECT_DOUBLE_EQ(reopened->Balance("a")->spent, 0.875);
  fs::remove_all(dir);
}

TEST(BudgetLedger, GarbageDataFileRefusesToOpen) {
  const std::string dir = FreshDir("garbage");
  ASSERT_TRUE(fs::create_directories(dir));
  AppendBytes(dir + "/ledger.data",
              {'n', 'o', 't', ' ', 'a', ' ', 'l', 'e', 'd', 'g', 'e', 'r'});
  // Budgets are not a cache: an unreadable ledger is an error, never a
  // silent re-initialization to "nothing spent".
  EXPECT_EQ(BudgetLedger::Open(dir, {}), nullptr);
  fs::remove_all(dir);
}

TEST(BudgetLedger, WriterLockExcludesSecondOpenAndReclaimsDeadOwner) {
  const std::string dir = FreshDir("lock");
  auto ledger = BudgetLedger::Open(dir, {});
  ASSERT_NE(ledger, nullptr);
  EXPECT_EQ(BudgetLedger::Open(dir, {}), nullptr);  // live lock holder
  ledger.reset();

  // A lock left by a dead process (no such pid) is reclaimed.
  {
    std::FILE* f = std::fopen((dir + "/ledger.lock").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "999999999\n");
    std::fclose(f);
  }
  EXPECT_NE(BudgetLedger::Open(dir, {}), nullptr);
  fs::remove_all(dir);
}

TEST(BudgetLedger, ConcurrentChargesNeverOverspend) {
  const std::string dir = FreshDir("conc");
  const std::vector<std::string> tenants = {"a", "b", "c", "d"};
  const double total = 1.0, eps = 0.001;
  {
    auto ledger = BudgetLedger::Open(dir, {});
    ASSERT_NE(ledger, nullptr);
    for (const auto& t : tenants) ASSERT_TRUE(ledger->CreateTenant(t, total));

    // 8 threads hammer 4 tenants (two threads per tenant) well past
    // exhaustion; every admitted charge is durable, refusals are free.
    std::vector<std::thread> threads;
    for (int k = 0; k < 8; ++k)
      threads.emplace_back([&ledger, &tenants, k, eps] {
        const std::string& t = tenants[std::size_t(k) % tenants.size()];
        for (int i = 0; i < 700; ++i) (void)ledger->Charge(t, eps);
      });
    for (auto& th : threads) th.join();

    for (const auto& t : tenants) {
      const auto b = ledger->Balance(t);
      ASSERT_TRUE(b.has_value());
      EXPECT_LE(b->spent, total * (1.0 + 1e-9) + 1e-9);
      // 1400 attempted charges of 0.001 against 1.0: exhausted exactly.
      EXPECT_FALSE(ledger->CanCharge(t, eps));
    }
    EXPECT_GT(ledger->stats().refusals, 0u);
  }
  // Replay agrees with the in-memory accountant bit for bit.
  auto reopened = BudgetLedger::Open(dir, {});
  ASSERT_NE(reopened, nullptr);
  for (const auto& t : tenants) {
    const auto b = reopened->Balance(t);
    ASSERT_TRUE(b.has_value());
    EXPECT_LE(b->spent, total * (1.0 + 1e-9) + 1e-9);
    EXPECT_FALSE(reopened->CanCharge(t, eps));
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ektelo::serve
