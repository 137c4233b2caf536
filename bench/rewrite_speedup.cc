// Rewrite-engine A/B: the inference-heavy catalog plans (the MWEM
// family, the HB/DAWA striped plans, and workload-reduction
// configurations) run end-to-end with the rewrite engine OFF and ON
// (`rules`) — identical seeds, identical inputs.  The run
// writes BENCH_rewrite.json: per-plan wall times, speedups, max relative
// deviation and the geomean.
//
// Any off/rules disagreement beyond 1e-9 relative exits nonzero.
//
//   ./bench_rewrite_speedup           # committed-preset domains
//   ./bench_rewrite_speedup --quick   # CI smoke preset (small domains)
#include <cmath>
#include <cstring>

#include "bench_util.h"
#include "matrix/range_ops.h"
#include "matrix/rewrite.h"
#include "workload/reduction.h"

using namespace ektelo;
using namespace ektelo::bench;

namespace {

struct RowResult {
  double off_s = 0.0;
  double on_s = 0.0;
  double max_rel_diff = 0.0;
  bool ok = true;
};

double MaxRelDiff(const Vec& a, const Vec& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst,
                     std::abs(b[i] - a[i]) / std::max(1.0, std::abs(a[i])));
  return worst;
}

/// Best-of-N timing reps per mode.  The striped catalog rows finish in
/// a few milliseconds; a single sample at that scale is dominated by
/// scheduler noise, and the acceptance geomean is computed over these
/// rows.  Nothing is memoized across reps (the rows run in implicit
/// mode, which prepares no strategy), so each sample pays the full
/// canonicalization cost — reps remove OS jitter, not the work under
/// measurement.
int g_time_reps = 3;

/// Runs `fn` (which returns an estimate vector) with the toggle off,
/// then on, and reports times + the worst relative output deviation.
RowResult TimeAb(const std::function<Vec()>& fn) {
  RowResult r;
  Vec off, on;
  Vec* const outs[2] = {&off, &on};
  double best[2] = {0.0, 0.0};
  // Reps are interleaved across modes (off, on, off, ...) rather than
  // run as two sequential blocks: clock-speed drift over the row then
  // hits both modes equally instead of always landing on whichever mode
  // runs last.
  for (int rep = 0; rep < g_time_reps; ++rep) {
    for (int mode = 0; mode < 2; ++mode) {
      SetRewriteEnabled(mode == 1);
      WallTimer t;
      *outs[mode] = fn();
      const double s = t.Elapsed();
      if (rep == 0 || s < best[mode]) best[mode] = s;
    }
  }
  r.off_s = best[0];
  r.on_s = best[1];
  SetRewriteEnabled(true);
  if (on.size() != off.size()) {
    r.ok = false;
    return r;
  }
  r.max_rel_diff = MaxRelDiff(off, on);
  return r;
}

Vec MustExecute(const Plan& plan, const Vec& hist,
                const std::vector<std::size_t>& dims, double eps,
                uint64_t seed, Rng* client_rng, const PlanInput& base_in) {
  Rng rng = *client_rng;  // same client randomness for both A/B runs
  HistEnv env(hist, dims, eps, seed, &rng);
  BudgetScope scope(eps);
  PlanInput in = base_in;
  in.dims = dims;
  in.rng = &rng;
  StatusOr<Vec> xhat = plan.Execute(env.x, scope, in);
  EK_CHECK(xhat.ok());
  return std::move(*xhat);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  Args(argc, argv).Flag("--quick", &quick).Parse();

  // Preset: --quick keeps CI wall time low; the default preset is what
  // the committed BENCH_rewrite.json tracks.
  const std::size_t n1 = quick ? 256 : 2048;        // MWEM 1D domain
  const std::size_t mwem_rounds = quick ? 8 : 40;   // MWEM measurement rounds
  const std::size_t mw_iters = quick ? 30 : 80;     // MW steps per round
  const std::size_t stripe_n = quick ? 64 : 512;    // striped stripe length
  const std::size_t wr_n = quick ? 512 : 4096;      // workload-reduction domain
  const int direct_reps = quick ? 4 : 8;            // re-derived-union solves
  g_time_reps = quick ? 2 : 7;                      // best-of-N per mode

  const double eps = 0.5;
  Rng rng(42);
  JsonRecords json;
  double log_sum = 0.0, log_sum_catalog = 0.0;
  std::size_t rows = 0, rows_catalog = 0;
  double worst_diff = 0.0;

  std::printf("Rewrite engine A/B (quick=%d)\n\n", quick ? 1 : 0);
  std::printf("%-34s %10s %10s %8s %12s\n", "plan", "off(s)", "rules(s)",
              "speedup", "max_rel_diff");

  // `catalog` rows are end-to-end registered/parameterized plans; the
  // acceptance geomean is computed over those alone.  Non-catalog rows
  // (inference ablations) are reported but tracked separately so a
  // synthetic solver loop cannot carry the bar.
  auto emit = [&](const std::string& name, const RowResult& r,
                  bool catalog = true) {
    if (!r.ok) {
      std::fprintf(stderr, "%s: A/B output shapes diverged\n", name.c_str());
      std::exit(1);
    }
    const double speedup = r.off_s / r.on_s;
    log_sum += std::log(speedup);
    ++rows;
    if (catalog) {
      log_sum_catalog += std::log(speedup);
      ++rows_catalog;
    }
    worst_diff = std::max(worst_diff, r.max_rel_diff);
    std::printf("%-34s %10.4f %10.4f %7.2fx %12.3e\n", name.c_str(), r.off_s,
                r.on_s, speedup, r.max_rel_diff);
    std::fflush(stdout);
    json.StartRecord();
    json.Field("kind", catalog ? "plan" : "ablation");
    json.Field("plan", name);
    json.Field("seconds_off", r.off_s);
    json.Field("seconds_on", r.on_s);
    json.Field("speedup", speedup);
    json.Field("max_rel_diff", r.max_rel_diff);
  };

  // ---- MWEM family: per-round measurement unions are the rewrite
  // ---- engine's canonical client (variants a/b merge via the rewriter;
  // ---- c/d share the plan-level merged union on both paths).
  {
    Vec hist = MakeHistogram1D(Shape1D::kGaussianMix, n1, 1e5, &rng);
    auto ranges = RandomRanges(200, n1, n1 / 8, &rng);
    const double total = Sum(hist);
    Rng client(7);
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
      auto plan = MakeMwemPlan(v.opts);
      PlanInput in;
      in.ranges = ranges;
      in.known_total = total;
      emit(v.label, TimeAb([&] {
             return MustExecute(*plan, hist, {n1}, eps, 9001, &client, in);
           }));
    }
  }

  // ---- Striped multi-dimensional plans.
  {
    const std::vector<std::size_t> dims = {stripe_n, 4, 4};
    const std::size_t n = stripe_n * 16;
    Vec hist = MakeHistogram1D(Shape1D::kStep, n, 1e5, &rng);
    Rng client(11);
    PlanInput in;
    in.stripe_dim = 0;
    for (const char* name : {"HB-Striped", "DAWA-Striped", "HB-Striped_kron"}) {
      const Plan& plan = PlanRegistry::Global().MustFind(name);
      emit(name, TimeAb([&] {
             return MustExecute(plan, hist, dims, eps, 9100, &client, in);
           }));
    }
  }

  // ---- Workload-based domain reduction (Sec. 8): MWEM on the reduced
  // ---- domain — the table6-style configuration whose inference loop the
  // ---- rewriter accelerates end to end.
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
    Rng client(13);
    auto plan = MakeMwemPlan({mwem_rounds, false, false, 0.0, mw_iters});
    PlanInput in;
    in.ranges = reduced_ranges;
    in.known_total = Sum(reduced);
    emit("WorkloadReduce+MWEM",
         TimeAb([&] {
           return MustExecute(*plan, reduced, {reduced.size()}, eps, 9200,
                              &client, in);
         }));
  }

  // ---- An inference loop that re-derives the same measurement union
  // ---- each call (direct normal-equations backend).  Both modes
  // ---- assemble the dense Gram every call; ON first merges the stack's
  // ---- range sets into one RangeSetOp.
  {
    const std::size_t ng = quick ? 128 : 256;
    const std::size_t k_meas = quick ? 16 : 64;
    Rng mrng(17);
    MeasurementSet mset;
    for (std::size_t i = 0; i < k_meas; ++i) {
      std::vector<Interval> iv;
      for (int q = 0; q < 64; ++q) {
        std::size_t lo = std::size_t(mrng.UniformInt(0, int64_t(ng) - 1));
        std::size_t hi = lo + std::size_t(mrng.UniformInt(
                                  0, int64_t(ng - lo) - 1));
        iv.push_back({lo, hi});
      }
      LinOpPtr m = MakeRangeSetOp(std::move(iv), ng);
      Vec y(m->rows());
      for (auto& v : y) v = mrng.Normal();
      mset.Add(std::move(m), std::move(y), 1.0);
    }
    emit("re-derived union, direct gram (ablation)",
         TimeAb([&] {
           Vec xhat;
           for (int rep = 0; rep < direct_reps; ++rep) {
             // Rebuild the stack each call, as an iterative plan would.
             MeasurementSet fresh;
             for (const auto& item : mset.items())
               fresh.Add(item.m, item.y, item.noise_scale);
             xhat = DirectLeastSquaresInference(fresh);
           }
           return xhat;
         }),
         /*catalog=*/false);
  }

  const double geomean = std::exp(log_sum / double(rows));
  const double geomean_catalog =
      std::exp(log_sum_catalog / double(rows_catalog));
  std::printf("\ngeometric-mean rules-vs-off speedup: %.2fx over %zu catalog"
              " plans (%.2fx over all %zu rows; worst off/rules deviation"
              " %.3e)\n",
              geomean_catalog, rows_catalog, geomean, rows, worst_diff);
  json.StartRecord();
  json.Field("kind", "summary");
  json.Field("preset", quick ? "quick" : "default");
  json.Field("rows", double(rows));
  json.Field("catalog_rows", double(rows_catalog));
  json.Field("geomean_speedup_catalog_plans", geomean_catalog);
  json.Field("geomean_speedup_all_rows", geomean);
  json.Field("worst_rel_diff", worst_diff);

  if (json.WriteFile("BENCH_rewrite.json"))
    std::printf("wrote BENCH_rewrite.json\n");
  return worst_diff <= 1e-9 ? 0 : 1;
}
