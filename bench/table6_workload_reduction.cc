// Table 6: error and runtime improvements from workload-based domain
// reduction (Sec. 8), for AHP (128x128), DAWA (4096), Identity (256x256)
// and HB (4096) with W = RandomRange, small ranges.
//
// "Original" runs the plan on the full domain; "Reduced" first computes
// the workload-based partition (Algorithm 4, client-side and free), runs
// the plan on the reduced vector, and expands via P+.  Reported factors
// are original/reduced for both scaled workload error and runtime.
#include "bench_util.h"

using namespace ektelo;
using namespace ektelo::bench;

namespace {

struct Case {
  const char* name;               // registered plan
  std::vector<std::size_t> dims;  // full-domain shape for the plan
  bool two_d;
};

}  // namespace

int main(int argc, char** argv) {
  const double eps = argc > 1 ? std::atof(argv[1]) : 0.1;
  const int trials = argc > 2 ? std::atoi(argv[2]) : 3;
  Rng rng(6);

  const std::vector<Case> cases = {{"AHP", {128, 128}, true},
                                   {"DAWA", {4096}, false},
                                   {"Identity", {256, 256}, true},
                                   {"HB", {4096}, false}};

  std::printf(
      "Table 6: workload-based domain reduction (W=RandomRange, small "
      "ranges; eps=%.2g; mean of %d trials)\n\n", eps, trials);
  std::printf("%-10s %11s %11s | %11s %11s | %8s %8s\n", "plan",
              "orig err", "orig t(s)", "red err", "red t(s)", "err x",
              "time x");

  for (const auto& c : cases) {
    std::size_t n = 1;
    for (std::size_t d : c.dims) n *= d;
    // Smooth multi-modal data, as in DPBench's common cases: exact step
    // functions make the original DAWA unrealistically perfect, which
    // would overstate the reduction's cost for that row.
    Vec hist = c.two_d
                   ? MakeHistogram2D(c.dims[0], c.dims[1], 1e6, &rng)
                   : MakeHistogram1D(Shape1D::kGaussianMix, n, 1e6, &rng);
    // Small ranges over the flattened domain.
    auto ranges = RandomRanges(512, n, std::max<std::size_t>(n / 64, 2),
                               &rng);
    auto w_op = RangeQueryOp(ranges, n);
    // Workload-based partition (public, Algorithm 4).
    Partition p = WorkloadBasedPartition(*w_op, &rng);
    auto w_reduced = ReduceWorkload(w_op, p);
    // Reduced workload as ranges over groups (groups of a 1D range
    // workload are intervals), for plans that need a range workload.
    auto reduced_ranges = MapRangesToIntervalPartition(ranges, p);
    const Plan& plan = PlanRegistry::Global().MustFind(c.name);
    // DAWA's partition selection normalizes by group volume, so on the
    // reduced domain it runs with the workload partition's group sizes
    // and pre-merged groups still expose uniform-region structure.
    std::unique_ptr<Plan> volume_aware;
    if (std::string_view(c.name) == "DAWA") {
      auto sizes = p.GroupSizes();
      DawaPlanOptions opts;
      opts.dawa.cell_volumes.assign(sizes.begin(), sizes.end());
      volume_aware = MakeDawaPlan(opts);
    }
    const Plan& reduced_plan = volume_aware ? *volume_aware : plan;

    double err_orig = 0.0, err_red = 0.0, t_orig = 0.0, t_red = 0.0;
    for (int trial = 0; trial < trials; ++trial) {
      {
        HistEnv env(hist, c.dims, eps, 100 + trial, &rng);
        WallTimer t;
        PlanInput in = env.in;
        in.ranges = ranges;
        BudgetScope scope(env.eps);
        auto xhat = plan.Execute(env.x, scope, in);
        t_orig += t.Elapsed();
        if (xhat.ok())
          err_orig += ScaledWorkloadError(*w_op, *xhat, hist);
      }
      {
        // Reduce first: the plan then runs on the reduced vector.
        ProtectedKernel kernel(TableFromHistogram(hist, "v"), eps,
                               200 + trial);
        ProtectedVector x(&kernel, *kernel.TVectorize(kernel.root()));
        WallTimer t;
        auto xr = x.ReduceByPartition(p);
        BudgetScope scope(eps);
        auto xhat_red = reduced_plan.Execute(
            *xr, scope,
            {.dims = {p.num_groups()}, .rng = &rng, .ranges = reduced_ranges});
        t_red += t.Elapsed();
        if (xhat_red.ok()) {
          Vec expanded = ExpandEstimate(p, *xhat_red);
          err_red += ScaledWorkloadError(*w_op, expanded, hist);
        }
      }
    }
    err_orig /= trials;
    err_red /= trials;
    std::printf("%-10s %11.3e %11.3f | %11.3e %11.3f | %8.2f %8.2f\n",
                c.name, err_orig, t_orig / trials, err_red, t_red / trials,
                err_orig / err_red, t_orig / t_red);
    std::fflush(stdout);
  }
  std::printf(
      "\npaper (Table 6): error factors 1.29 (AHP), 0.99 (DAWA), 2.89 "
      "(Identity), 1.34 (HB);\nruntime factors 5.36 / 0.92 / 0.73 / "
      "0.62.\n");
  return 0;
}
