// Persistent-store warm-start A/B: the catalog plans (MWEM family,
// striped plans, workload reduction) plus two cache-heavy inference
// ablations run end-to-end twice against the same on-disk artifact
// store — a COLD pass (fresh store, empty memory cache; pays full
// materialization/Gram/sensitivity cost and writes behind) and a WARM
// pass simulating a fresh serving process (store reopened from disk,
// memory cache cleared before every plan; artifacts are promoted off
// disk instead of recomputed).  Outputs must be bitwise identical
// between the passes — the exit status enforces it — and the run emits
// BENCH_store.json with per-row cold/warm wall times and speedups.
//
//   ./bench_store_warmstart           # committed-preset domains
//   ./bench_store_warmstart --quick   # CI smoke preset (small domains)
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "matrix/implicit_ops.h"
#include "matrix/nnls.h"
#include "matrix/range_ops.h"
#include "matrix/rewrite.h"
#include "ops/hierarchy.h"
#include "store/artifact_store.h"
#include "workload/reduction.h"

using namespace ektelo;
using namespace ektelo::bench;

namespace {

namespace fs = std::filesystem;

constexpr const char* kStoreDir = "ektelo_store_bench.tmp";

void AttachFreshlyOpenedTier() {
  store::DiskStoreOptions opts;
  opts.hash_version = kHashVersion;
  auto tier = store::DiskArtifactStore::Open(kStoreDir, opts);
  EK_CHECK(tier != nullptr);
  OperatorCache::Global().SetDiskTier(std::move(tier));
}

Vec MustExecute(const Plan& plan, const Vec& hist,
                const std::vector<std::size_t>& dims, double eps,
                uint64_t seed, Rng* client_rng, const PlanInput& base_in) {
  Rng rng = *client_rng;  // same client randomness on both passes
  HistEnv env(hist, dims, eps, seed, &rng);
  BudgetScope scope(eps);
  PlanInput in = base_in;
  in.dims = dims;
  in.rng = &rng;
  StatusOr<Vec> xhat = plan.Execute(env.x, scope, in);
  EK_CHECK(xhat.ok());
  return std::move(*xhat);
}

struct Row {
  std::string name;
  bool cache_heavy = false;  // dominated by cacheable artifact work
  std::function<Vec()> fn;
};

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;

  const std::size_t n1 = quick ? 256 : 2048;        // MWEM 1D domain
  const std::size_t mwem_rounds = quick ? 8 : 40;   // MWEM measurement rounds
  const std::size_t mw_iters = quick ? 30 : 80;     // MW steps per round
  const std::size_t stripe_n = quick ? 64 : 512;    // striped stripe length
  const std::size_t wr_n = quick ? 512 : 4096;      // workload-reduction domain
  const int heavy_reps = quick ? 4 : 8;             // ablation solve repeats

  const double eps = 0.5;
  Rng rng(42);
  std::vector<Row> rows;

  // ---- MWEM family (per-round unions re-derived each execution).
  {
    Vec hist = MakeHistogram1D(Shape1D::kGaussianMix, n1, 1e5, &rng);
    auto ranges = RandomRanges(200, n1, n1 / 8, &rng);
    const double total = Sum(hist);
    struct V {
      const char* label;
      MwemOptions opts;
    };
    const V variants[] = {
        {"MWEM", {mwem_rounds, false, false, 0.0, mw_iters}},
        {"MWEM variant b", {mwem_rounds, true, false, 0.0, mw_iters}},
        {"MWEM variant c", {mwem_rounds, false, true, 0.0, mw_iters}},
        {"MWEM variant d", {mwem_rounds, true, true, 0.0, mw_iters}},
    };
    for (const V& v : variants) {
      auto plan = std::shared_ptr<Plan>(MakeMwemPlan(v.opts));
      PlanInput in;
      in.ranges = ranges;
      in.known_total = total;
      rows.push_back({v.label, false, [=] {
                        Rng client(7);
                        return MustExecute(*plan, hist, {n1}, eps, 9001,
                                           &client, in);
                      }});
    }
  }

  // ---- Striped multi-dimensional plans.
  {
    const std::vector<std::size_t> dims = {stripe_n, 4, 4};
    const std::size_t n = stripe_n * 16;
    Vec hist = MakeHistogram1D(Shape1D::kStep, n, 1e5, &rng);
    PlanInput in;
    in.stripe_dim = 0;
    for (const char* name : {"HB-Striped", "DAWA-Striped", "HB-Striped_kron"}) {
      const Plan& plan = PlanRegistry::Global().MustFind(name);
      rows.push_back({name, false, [&plan, hist, dims, eps, in] {
                        Rng client(11);
                        return MustExecute(plan, hist, dims, eps, 9100,
                                           &client, in);
                      }});
    }
  }

  // ---- Workload-based domain reduction + MWEM.
  {
    Vec hist = MakeHistogram1D(Shape1D::kGaussianMix, wr_n, 1e6, &rng);
    auto ranges =
        RandomRanges(512, wr_n, std::max<std::size_t>(wr_n / 64, 2), &rng);
    auto w_op = RangeQueryOp(ranges, wr_n);
    Partition p = WorkloadBasedPartition(*w_op, &rng);
    auto reduced_ranges = MapRangesToIntervalPartition(ranges, p);
    Vec reduced(p.num_groups(), 0.0);
    for (std::size_t c = 0; c < hist.size(); ++c)
      reduced[p.group_of(c)] += hist[c];
    auto plan = std::shared_ptr<Plan>(
        MakeMwemPlan({mwem_rounds, false, false, 0.0, mw_iters}));
    PlanInput in;
    in.ranges = reduced_ranges;
    in.known_total = Sum(reduced);
    const std::size_t ng = reduced.size();
    rows.push_back({"WorkloadReduce+MWEM", false, [=] {
                      Rng client(13);
                      return MustExecute(*plan, reduced, {ng}, eps, 9200,
                                         &client, in);
                    }});
  }

  // ---- Cache-heavy ablations: inference loops dominated by artifact
  // ---- derivation — exactly what the disk tier exists to amortize
  // ---- across processes.
  {
    const std::size_t ng = quick ? 128 : 256;
    const std::size_t k_meas = quick ? 16 : 64;
    Rng mrng(17);
    auto mset = std::make_shared<MeasurementSet>();
    for (std::size_t i = 0; i < k_meas; ++i) {
      std::vector<Interval> iv;
      for (int q = 0; q < 64; ++q) {
        std::size_t lo = std::size_t(mrng.UniformInt(0, int64_t(ng) - 1));
        std::size_t hi =
            lo + std::size_t(mrng.UniformInt(0, int64_t(ng - lo) - 1));
        iv.push_back({lo, hi});
      }
      LinOpPtr m = MakeRangeSetOp(std::move(iv), ng);
      Vec y(m->rows());
      for (auto& v : y) v = mrng.Normal();
      mset->Add(std::move(m), std::move(y), 1.0);
    }
    rows.push_back({"re-derived union, direct gram", true, [=] {
                      Vec xhat;
                      for (int rep = 0; rep < heavy_reps; ++rep) {
                        MeasurementSet fresh;
                        for (const auto& item : mset->items())
                          fresh.Add(item.m, item.y, item.noise_scale);
                        xhat = DirectLeastSquaresInference(fresh);
                      }
                      return xhat;
                    }});
    // The Lipschitz estimate (spectral-norm power iteration) dominates a
    // short NNLS solve; warm processes read it off disk.
    const std::size_t power_iters = quick ? 60 : 200;
    rows.push_back({"re-derived union, NNLS lipschitz", true, [=] {
                      Vec xhat;
                      NnlsOptions opts;
                      opts.max_iters = 40;
                      opts.power_iters = power_iters;
                      for (int rep = 0; rep < 2; ++rep) {
                        MeasurementSet fresh;
                        for (const auto& item : mset->items())
                          fresh.Add(item.m, item.y, item.noise_scale);
                        LinOpPtr a = fresh.WeightedOp();
                        xhat = Nnls(*a, fresh.WeightedY(), opts).x;
                      }
                      return xhat;
                    }});
  }

  // ---- Strategy re-materialization: the serving cold-start cost the
  // ---- disk tier was built for.  A fresh process needs the sparse form
  // ---- and sensitivities of its (large, implicit) strategy operators;
  // ---- warm processes read the artifacts instead of re-running the
  // ---- blocked materialization sweeps.
  {
    const std::size_t n = quick ? 4096 : 32768;
    Rng wrng(29);
    std::vector<LinOpPtr> strategies;
    strategies.push_back(HierarchyOp(BuildHierarchy(n, HbBranchingFactor(n))));
    strategies.push_back(MakeWaveletOp(n));
    strategies.push_back(
        RandomRangeWorkload(quick ? 256 : 1024, n, n / 4, &wrng));
    rows.push_back(
        {"strategy re-materialization", true, [strategies] {
           Vec probe;
           for (const LinOpPtr& s : strategies) {
             LinOpPtr leaf = OperatorCache::Global().SparseWrapped(s);
             probe.push_back(leaf->SensitivityL1() + leaf->SensitivityL2());
           }
           return probe;
         }});
  }

  // ---- Protocol: one store directory for the whole catalog.  The cold
  // ---- pass populates it (store open #1); the warm pass reopens it in
  // ---- a simulated fresh process (store open #2).  The memory cache is
  // ---- cleared before every plan in both passes, so each row measures
  // ---- a genuine process-cold execution with and without the disk tier
  // ---- primed.
  fs::remove_all(kStoreDir);
  SetRewriteEnabled(1);

  std::printf("Persistent-store warm-start A/B (quick=%d)\n\n", quick ? 1 : 0);
  std::printf("%-34s %10s %10s %8s %9s\n", "plan", "cold(s)", "warm(s)",
              "speedup", "bitwise");

  AttachFreshlyOpenedTier();
  std::vector<Vec> cold_out(rows.size());
  std::vector<double> cold_s(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    OperatorCache::Global().Clear();
    WallTimer t;
    cold_out[i] = rows[i].fn();
    cold_s[i] = t.Elapsed();
  }
  // Close cycle 1 (flush + release), then reopen: a new process's view.
  OperatorCache::Global().SetDiskTier(nullptr);
  AttachFreshlyOpenedTier();

  JsonRecords json;
  double log_sum = 0.0, log_sum_heavy = 0.0;
  std::size_t heavy_rows = 0;
  bool all_bitwise = true;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    OperatorCache::Global().Clear();
    WallTimer t;
    Vec warm = rows[i].fn();
    const double warm_s = t.Elapsed();
    bool bitwise = warm.size() == cold_out[i].size();
    if (bitwise)
      for (std::size_t j = 0; j < warm.size(); ++j)
        if (!BitwiseEq(warm[j], cold_out[i][j])) {
          bitwise = false;
          break;
        }
    all_bitwise = all_bitwise && bitwise;
    const double speedup = cold_s[i] / warm_s;
    log_sum += std::log(speedup);
    if (rows[i].cache_heavy) {
      log_sum_heavy += std::log(speedup);
      ++heavy_rows;
    }
    std::printf("%-34s %10.4f %10.4f %7.2fx %9s\n", rows[i].name.c_str(),
                cold_s[i], warm_s, speedup, bitwise ? "yes" : "NO");
    std::fflush(stdout);
    json.StartRecord();
    json.Field("kind", rows[i].cache_heavy ? "ablation" : "plan");
    json.Field("plan", rows[i].name);
    json.Field("cache_heavy", rows[i].cache_heavy ? 1.0 : 0.0);
    json.Field("seconds_cold", cold_s[i]);
    json.Field("seconds_warm", warm_s);
    json.Field("speedup_warm", speedup);
    json.Field("bitwise_equal", bitwise ? 1.0 : 0.0);
  }

  OperatorCache::Global().FlushDiskTier();  // land write-behind spills
  const auto cache_stats = OperatorCache::Global().stats();
  const auto disk_stats = OperatorCache::Global().disk_tier()->stats();
  const double geomean = std::exp(log_sum / double(rows.size()));
  const double geomean_heavy =
      heavy_rows ? std::exp(log_sum_heavy / double(heavy_rows)) : 1.0;
  std::printf("\ngeomean warm speedup: %.2fx over %zu rows (%.2fx over %zu "
              "cache-heavy rows); disk hits %zu, store %zu entries / %.1f MiB\n",
              geomean, rows.size(), geomean_heavy, heavy_rows,
              cache_stats.disk_hits, disk_stats.entries,
              double(disk_stats.live_bytes) / (1024.0 * 1024.0));
  json.StartRecord();
  json.Field("kind", "summary");
  json.Field("preset", quick ? "quick" : "default");
  json.Field("rows", double(rows.size()));
  json.Field("geomean_warm_speedup", geomean);
  json.Field("geomean_warm_speedup_cache_heavy", geomean_heavy);
  json.Field("disk_hits", double(cache_stats.disk_hits));
  json.Field("disk_writes", double(cache_stats.disk_writes));
  json.Field("store_entries", double(disk_stats.entries));
  json.Field("store_live_bytes", double(disk_stats.live_bytes));
  json.Field("all_bitwise_equal", all_bitwise ? 1.0 : 0.0);

  if (json.WriteFile("BENCH_store.json"))
    std::printf("wrote BENCH_store.json\n");

  OperatorCache::Global().SetDiskTier(nullptr);
  OperatorCache::Global().Clear();
  fs::remove_all(kStoreDir);
  // Bitwise equivalence is the contract; speed is tracked, not gated
  // (CI machines are noisy).
  return all_bitwise ? 0 : 1;
}
