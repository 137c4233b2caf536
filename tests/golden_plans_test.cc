// Golden-output regression test for the plan implementations.
//
// The registry test (registry_test.cc) checks that every catalog plan runs
// within its budget, but it cannot detect a behavioral change relative to
// earlier plan implementations.  These vectors pin each plan's output on
// a small fixed environment; the plans must reproduce them to near
// machine precision — and, since the deterministic parallel execution
// engine, at EVERY thread count: the test runs each pinned plan serially
// (0) and with a 4-worker pool and requires both to match the same
// goldens bitwise-stably.
//
// Provenance: originally generated by the pre-refactor code (commit
// 9074f7f, legacy Run*Plan bodies); regenerated when the kernel moved
// from one shared noise generator to per-source lineage-seeded streams
// (the parallel-determinism refactor — same mechanisms, same noise
// distributions, different draw bookkeeping); MWEM variant d regenerated
// when the MWEM NNLS variants switched to plan-level merged measurement
// unions (one RangeSetOp instead of a per-round stack — same stacked
// system, one prefix-sum pass per Gram apply; the NNLS landing point on
// the early-round minimizer set moves with the representation, so the
// pinned values shift once).  A legitimate algorithmic change to a
// pinned plan should regenerate these values (run with
// EKTELO_REGEN_GOLDENS=1 to print a fresh kGolden block) and say so in
// the commit.
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "data/generators.h"
#include "gtest/gtest.h"
#include "plans/plans.h"
#include "plans/registry.h"
#include "util/thread_pool.h"
#include "workload/workloads.h"

namespace ektelo {
namespace {

struct Golden {
  const char* plan;
  std::vector<double> xhat;
};

// Environment: Rng rng(5); hist = MakeHistogram1D(kStep, 32, 1000, &rng);
// ranges = RandomRanges(20, 32, 8, &rng); eps = 0.5; kernel seeds 101-106;
// MWEM variant d with rounds = 4; HB-Striped on dims {8, 2, 2}.
const Golden kGolden[] = {
{"Identity",
 {
  63.526151010655866,65.269343633727445,64.767549149353272,
  64.914889370160623,3.1904733205574538,1.4271974763163966,
  1.6244081961030954,3.2671763422557145,22.256061770370213,
  21.339671254409719,19.321130174614801,17.491708574236526,
  63.647041644401533,67.25217535410448,66.767091792276176,
  61.946818005830586,9.4492803031974848,16.941428951693901,
  8.3251412753272298,11.017273087156889,6.0228770426492462,
  9.0783165320917423,8.0770625783748571,14.739081669578818,
  12.905041976297479,10.902265996005607,4.8863077606710839,
  13.361788910992656,65.319540177014758,64.211617079095134,
  63.895814041688404,70.37948248127762,}},
{"HB",
 {
  65.744932635128748,47.672554527943099,74.549256628434804,
  63.567812360730329,10.848774374135488,3.2089817201591879,
  0.075165896915758729,1.3262116437697606,20.456864817877975,
  24.757880137464209,23.566609884389457,24.117521051990057,
  69.703334610489492,65.448160284135668,69.578747934089535,
  53.029516420495789,9.760199161905156,11.708404494616804,
  10.049852025103959,9.4472227766944137,-1.4972126124146181,
  20.713275281305261,4.9439876558866755,15.472872305995306,
  -1.4680146884373921,6.010531392979896,24.604607190417028,
  20.18641147984167,54.430842012324732,62.947368550837552,
  66.10776943834864,72.225587432485057,}},
{"MWEM variant d",
 {
  58.43550365370227,101.85100747650448,65.561069110507532,
  34.269480688578014,3.4783994560973115,0,
  0,9.3527755034083135,15.322831091030443,
  22.920604451262651,21.300655796217328,18.765427404878611,
  24.612209212237278,89.969024554025893,64.28239276207367,
  63.714465286826673,29.608128230038908,12.902056001583912,
  0.48828936291509772,14.140233213157806,0,
  15.001490526184632,13.656748173387804,2.8286403610674014,
  23.580843005993287,25.00413455151828,4.6217322141073129,
  12.065515228113821,79.24183750955595,61.984501820590957,
  49.5422425663401,62.247991811644411,}},
{"AHP",
 {
  65.350964725404253,62.783747600761679,65.350964725404253,
  62.783747600761679,8.7320483274779601,8.7320483274779601,
  8.7320483274779601,8.7320483274779601,14.535917388053068,
  14.535917388053068,8.7320483274779601,14.038484541143459,
  62.783747600761679,62.783747600761679,65.350964725404253,
  62.783747600761679,8.7320483274779601,8.7320483274779601,
  14.535917388053068,8.7320483274779601,14.535917388053068,
  14.038484541143459,8.7320483274779601,14.535917388053068,
  14.535917388053068,8.7320483274779601,8.7320483274779601,
  8.7320483274779601,62.783747600761679,63.782377742069443,
  62.783747600761679,65.350964725404253,}},
{"DAWA",
 {
  65.724663298329205,65.724663298329205,65.724663298329205,
  65.724663298329205,5.4502165027661231,5.4502165027661231,
  5.4502165027661231,5.4502165027661231,25.109009107276677,
  25.109009107276677,25.109009107276677,25.109009107276677,
  56.320598224444105,56.320598224444105,56.320598224444105,
  56.320598224444105,15.070994453836246,1.1488937937734245,
  9.3226976265908963,9.3226976265908963,14.824117002201415,
  8.5353563267967321,-2.1536394145491662,20.703004720180484,
  11.107938006699216,11.107938006699216,11.107938006699216,
  11.107938006699216,67.801870966952691,67.801870966952691,
  67.801870966952691,67.801870966952691,}},
{"HB-Striped",
 {
  61.729215330610955,66.126926656989895,63.027451565284252,
  64.485455421797653,-20.273695018925334,-0.39092703897771131,
  11.021518388954334,-0.40894517491389593,22.453442452341008,
  19.148640243048533,18.980922625295982,18.486835236309268,
  74.827439774170216,63.905544909689041,65.237215053973145,
  64.721447174842424,14.327830114044637,5.3470270429258875,
  6.6015804127227469,16.380526816047762,16.373878713732029,
  0.96791131332033942,7.5747830975553612,7.839712595733257,
  18.353427306809557,16.019873587747878,15.073589309302273,
  14.182953290323654,64.278530383627484,68.998026019397727,
  61.616886232507539,65.92536366832465,}},
};

StatusOr<Vec> RunGoldenPlan(const std::string& name, uint64_t seed) {
  const double eps = 0.5;
  const std::size_t n = 32;
  Rng rng(5);
  Vec hist = MakeHistogram1D(Shape1D::kStep, n, 1000.0, &rng);
  auto ranges = RandomRanges(20, n, 8, &rng);
  const double total = Sum(hist);

  ProtectedKernel kernel(TableFromHistogram(hist, "v"), eps, seed);
  ProtectedTable root = ProtectedTable::Root(&kernel);
  auto x = root.Vectorize();
  EK_CHECK(x.ok());
  BudgetScope scope(eps);
  PlanInput in;
  in.dims = {n};
  in.ranges = ranges;
  in.known_total = total;

  if (name == "MWEM variant d") {
    // Pinned with a non-default round count: construct explicitly.
    auto plan = MakeMwemPlan(
        {.rounds = 4, .augment_h2 = true, .nnls_inference = true});
    return plan->Execute(*x, scope, in);
  }
  if (name == "HB-Striped") {
    in.dims = {8, 2, 2};
    in.stripe_dim = 0;
  }
  return PlanRegistry::Global().MustFind(name).Execute(*x, scope, in);
}

TEST(GoldenPlansTest, PlansReproduceGoldenOutputsAtEveryThreadCount) {
  const bool regen = std::getenv("EKTELO_REGEN_GOLDENS") != nullptr;
  if (regen) std::printf("const Golden kGolden[] = {\n");

  uint64_t seed = 100;
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(g.plan);
    ++seed;
    if (regen) {
      ThreadPool::Global().Resize(0);
      StatusOr<Vec> xhat = RunGoldenPlan(g.plan, seed);
      ASSERT_TRUE(xhat.ok()) << xhat.status().ToString();
      std::printf("{\"%s\",\n {\n  ", g.plan);
      for (std::size_t i = 0; i < xhat->size(); ++i)
        std::printf("%.17g,%s", (*xhat)[i],
                    (i + 1) % 3 == 0 && i + 1 != xhat->size() ? "\n  " : "");
      std::printf("}},\n");
      continue;
    }
    // Serial (0 workers) pins the values; the 4-worker pool must
    // reproduce them bitwise — the engine's core determinism guarantee.
    for (std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ThreadPool::Global().Resize(threads);
      StatusOr<Vec> xhat = RunGoldenPlan(g.plan, seed);
      ASSERT_TRUE(xhat.ok()) << xhat.status().ToString();
      ASSERT_EQ(xhat->size(), g.xhat.size());
      for (std::size_t i = 0; i < g.xhat.size(); ++i) {
        const double tol = 1e-9 * std::max(1.0, std::abs(g.xhat[i]));
        EXPECT_NEAR((*xhat)[i], g.xhat[i], tol) << i;
      }
    }
  }
  if (regen) std::printf("};\n");
  ThreadPool::Global().Resize(ThreadPool::DefaultThreadCount());
  if (regen) GTEST_SKIP() << "golden regeneration mode: values printed";
}

}  // namespace
}  // namespace ektelo
