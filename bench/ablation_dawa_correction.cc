// Ablation: DAWA stage-1 noise-bias correction (DESIGN.md substitution
// note).  Without subtracting the expected |Lap| contribution from the
// bucket-deviation estimate, the DP sees phantom deviation in uniform
// regions and refuses to merge — losing DAWA's entire advantage.  This
// harness quantifies that across privacy budgets.
#include "bench_util.h"

using namespace ektelo;
using namespace ektelo::bench;

int main(int argc, char** argv) {
  const std::size_t n = 2048;
  const double scale = argc > 1 ? std::atof(argv[1]) : 1e6;
  Rng rng(31);

  std::printf(
      "Ablation: DAWA stage-1 deviation bias correction (step data, "
      "n=%zu, scale=%.0e)\n\n", n, scale);
  std::printf("%-8s %14s %10s | %14s %10s\n", "eps", "uncorrected err",
              "groups", "corrected err", "groups");

  for (double eps : {0.01, 0.05, 0.2}) {
    const double eps1 = 0.25 * eps, eps2 = eps - eps1;
    double err[2] = {0, 0};
    double groups[2] = {0, 0};
    const int trials = 5;
    for (int t = 0; t < trials; ++t) {
      Vec hist = MakeHistogram1D(Shape1D::kStep, n, scale, &rng);
      auto ranges = RandomRanges(300, n, n / 16, &rng);
      auto w = RangeQueryOp(ranges, n);
      for (int corrected = 0; corrected < 2; ++corrected) {
        HistEnv env(hist, {n}, eps, 700 + t, &rng);
        // Stage 1 by hand so the correction can be toggled.
        auto noisy = env.kernel.VectorLaplace(
            env.x.id(), *MakeIdentityOp(n), eps1);
        if (!noisy.ok()) return 1;
        Partition p = DawaIntervalPartition(
            *noisy, 1.0 / eps1, corrected ? 1.0 / eps1 : 0.0);
        groups[corrected] += double(p.num_groups());
        auto reduced = env.kernel.VReduceByPartition(env.x.id(), p);
        auto mapped = MapRangesToIntervalPartition(ranges, p);
        auto strat = GreedyHSelect(mapped, p.num_groups());
        const double sens = strat->SensitivityL1();
        auto y = env.kernel.VectorLaplace(*reduced, *strat, eps2);
        if (!y.ok()) return 1;
        MeasurementSet mset;
        mset.Add(MakeProduct(strat, p.ReduceOp()), *y, sens / eps2);
        Vec xhat = LeastSquaresInference(mset);
        err[corrected] += ScaledWorkloadError(*w, xhat, hist);
      }
    }
    std::printf("%-8.2g %14.3e %10.0f | %14.3e %10.0f\n", eps,
                err[0] / trials, groups[0] / trials, err[1] / trials,
                groups[1] / trials);
  }
  std::printf(
      "\nexpected shape: the corrected estimator produces far coarser "
      "partitions in uniform\nregions and lower error, with the gap "
      "widest at small eps (noisier stage 1).\n");
  return 0;
}
