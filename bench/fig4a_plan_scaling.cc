// Fig. 4a: end-to-end plan runtime vs domain size for the three matrix
// representations (dense / sparse / implicit) across the low-dimensional
// plan catalog.
//
// Domains are 2D squares of n = 4^k cells (1D for DAWA and Greedy-H, as
// in the paper).  A representation is skipped ("-") once it exceeds the
// per-run time cap or its materialization would exceed the memory guard —
// the paper likewise stops runs beyond 1000s.  The reproduced observable
// is the scalability ordering implicit >= sparse >= dense.
//
// Usage: fig4a_plan_scaling [max_exp(default 9)] [time_cap_s(default 5)]
#include "bench_util.h"

using namespace ektelo;
using namespace ektelo::bench;

namespace {

// A registered plan (or, when `plan` is set, one with non-default
// options), plus the plan-specific inputs it reads on top of the
// environment's dims/mode/rng.
struct PlanSpec {
  const char* name;
  bool two_d;
  std::function<void(PlanInput&, Rng*)> inputs;
  std::unique_ptr<Plan> plan;
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t max_exp = 9;
  double time_cap = 5.0;
  Args(argc, argv)
      .Count("max_exp", &max_exp)
      .Positive("time_cap_s", &time_cap)
      .Parse();
  const double eps = 0.1;

  Rng rng(8);

  // The MWEM variants assume the record total known.
  auto mwem_inputs = [](PlanInput& in, Rng* r) {
    in.ranges = RandomRanges(100, in.n(), 0, r);
    in.known_total = 1e5;
  };
  auto range_inputs = [](PlanInput& in, Rng* r) {
    in.ranges = RandomRanges(1000, in.n(), 0, r);
  };
  std::vector<PlanSpec> plans;
  for (const char* name : {"Identity", "Uniform", "Privelet", "H2", "HB",
                           "QuadTree", "UniformGrid", "AdaptiveGrid", "AHP"})
    plans.push_back({name, true, nullptr, nullptr});
  plans.push_back({"MWEM", true, mwem_inputs,
                   MakeMwemPlan({.rounds = 10, .mw_iterations = 20})});
  plans.push_back({"MWEM variant c", true, mwem_inputs, nullptr});
  plans.push_back({"MWEM variant d", true, mwem_inputs, nullptr});
  plans.push_back({"HDMM", true,
                   [](PlanInput& in, Rng*) {
                     for (std::size_t d : in.dims)
                       in.workload_factors.push_back(MakePrefixOp(d));
                   },
                   nullptr});
  plans.push_back({"DAWA", false, range_inputs, nullptr});
  plans.push_back({"Greedy-H", false, range_inputs, nullptr});

  const MatrixMode modes[] = {MatrixMode::kDense, MatrixMode::kSparse,
                              MatrixMode::kImplicit};
  // Memory guards (cells): dense n x n costs 8 n^2 bytes.
  const std::size_t dense_cap = 1 << 12;    // 4096 -> <= 134 MB
  const std::size_t sparse_cap = 1 << 16;   // 65536

  std::printf("Fig 4a: plan runtime (s) vs domain size, by matrix mode\n");
  std::printf("(eps=%.2g; '-' = skipped by time cap %.1fs or memory "
              "guard)\n\n", eps, time_cap);
  std::printf("%-16s %-9s", "plan", "mode");
  for (std::size_t e = 4; e <= max_exp; ++e)
    std::printf(" %9s", ("4^" + std::to_string(e)).c_str());
  std::printf("\n");

  for (const auto& plan : plans) {
    for (MatrixMode mode : modes) {
      std::printf("%-16s %-9s", plan.name, MatrixModeName(mode));
      bool capped = false;
      for (std::size_t e = 4; e <= max_exp; ++e) {
        const std::size_t n = std::size_t{1} << (2 * e);
        const bool skip =
            capped || (mode == MatrixMode::kDense && n > dense_cap) ||
            (mode == MatrixMode::kSparse && n > sparse_cap);
        if (skip) {
          std::printf(" %9s", "-");
          continue;
        }
        const std::size_t side = std::size_t{1} << e;
        Vec hist = plan.two_d ? MakeHistogram2D(side, side, 1e5, &rng)
                              : MakeHistogram1D(Shape1D::kGaussianMix, n,
                                                1e5, &rng);
        std::vector<std::size_t> dims =
            plan.two_d ? std::vector<std::size_t>{side, side}
                       : std::vector<std::size_t>{n};
        HistEnv env(hist, dims, eps, 7000 + e, &rng, mode);
        const Plan& p = plan.plan ? *plan.plan
                                  : PlanRegistry::Global().MustFind(plan.name);
        WallTimer t;
        PlanInput in = env.in;
        if (plan.inputs) plan.inputs(in, &rng);
        BudgetScope scope(env.eps);
        auto xhat = p.Execute(env.x, scope, in);
        const double secs = t.Elapsed();
        if (!xhat.ok()) {
          std::printf(" %9s", "err");
        } else {
          std::printf(" %9.3f", secs);
        }
        std::fflush(stdout);
        if (secs > time_cap) capped = true;
      }
      std::printf("\n");
    }
  }
  std::printf(
      "\npaper (Fig 4a): implicit scales to domains ~1000x larger than "
      "dense and is fastest at\nfixed size for most plans; DAWA/Greedy-H "
      "show smaller gaps (selection materializes);\nAdaptiveGrid is "
      "dominated by partition iteration.\n");
  return 0;
}
