// Table 4: MWEM variants — error-improvement factors and runtime.
//
// Setup matches the paper: 1D, n = 4096, W = RandomRange(1000), eps = 0.1,
// T = 10 rounds, over 10 (synthetic stand-ins for the DPBench) datasets.
// For variants (b) worst-approx + H2 selection, (c) NNLS known-total
// inference, and (d) both, we report the min/mean/max over datasets of
// error(MWEM) / error(variant) — the paper's "error improvement" — and the
// mean runtime normalized to plain MWEM.
#include "bench_util.h"

using namespace ektelo;
using namespace ektelo::bench;

int main(int argc, char** argv) {
  const std::size_t n = 4096;
  const double eps = 0.1;
  const std::size_t n_queries = 1000;
  const double scale = argc > 1 ? std::atof(argv[1]) : 1e5;

  Rng rng(4);
  auto shapes = AllShapes1D();

  // The registered variants run the paper's T = 10 rounds.
  struct Variant {
    const char* plan;
    const char* selection;
    const char* inference;
  };
  const Variant variants[] = {
      {"MWEM", "worst-approx", "MW"},
      {"MWEM variant b", "worst-approx + H2", "MW"},
      {"MWEM variant c", "worst-approx", "NNLS, known total"},
      {"MWEM variant d", "worst-approx + H2", "NNLS, known total"},
  };

  double err[4][10];
  double time_s[4][10];

  for (std::size_t d = 0; d < shapes.size(); ++d) {
    Vec hist = MakeHistogram1D(shapes[d], n, scale, &rng);
    const double total = Sum(hist);
    auto ranges = RandomRanges(n_queries, n, 0, &rng);
    auto w_op = RangeQueryOp(ranges, n);
    for (int v = 0; v < 4; ++v) {
      HistEnv env(hist, {n}, eps, 1000 + 17 * d + v, &rng);
      const Plan& plan = PlanRegistry::Global().MustFind(variants[v].plan);
      WallTimer t;
      PlanInput in = env.in;
      in.ranges = ranges;
      in.known_total = total;
      BudgetScope scope(env.eps);
      auto xhat = plan.Execute(env.x, scope, in);
      time_s[v][d] = t.Elapsed();
      if (!xhat.ok()) {
        std::fprintf(stderr, "variant %d failed on dataset %zu: %s\n", v, d,
                     xhat.status().ToString().c_str());
        err[v][d] = -1.0;
        continue;
      }
      err[v][d] = ScaledWorkloadError(*w_op, *xhat, hist);
    }
  }

  std::printf(
      "Table 4: MWEM variants (1D, n=4096, W=RandomRange(1000), eps=0.1)\n");
  std::printf("error improvement factor vs (a), over %zu datasets\n\n",
              shapes.size());
  std::printf("%-4s %-20s %-20s %8s %8s %8s %10s\n", "", "Query Selection",
              "Inference", "min", "mean", "max", "runtime");
  const char* tags[] = {"(a)", "(b)", "(c)", "(d)"};
  double base_time = 0.0;
  for (std::size_t d = 0; d < shapes.size(); ++d) base_time += time_s[0][d];
  for (int v = 0; v < 4; ++v) {
    double mn = 1e300, mx = 0.0, mean = 0.0, tsum = 0.0;
    for (std::size_t d = 0; d < shapes.size(); ++d) {
      const double f = err[0][d] / err[v][d];
      mn = std::min(mn, f);
      mx = std::max(mx, f);
      mean += f;
      tsum += time_s[v][d];
    }
    mean /= double(shapes.size());
    std::printf("%-4s %-20s %-20s %8.2f %8.2f %8.2f %10.1f\n", tags[v],
                variants[v].selection, variants[v].inference, mn, mean, mx,
                tsum / base_time);
  }
  std::printf(
      "\npaper (Table 4): (b) 1.03/2.80/7.93 @354.9x, (c) 0.78/1.08/1.54 "
      "@1.0x, (d) 0.89/2.64/8.13 @9.0x\n");
  return 0;
}
