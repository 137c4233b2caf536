// Fig. 3: Naive-Bayes classifier AUC on credit-default-like data.
//
// For eps in {1e-3, 1e-2, 1e-1}, reports the {25, 50, 75} percentiles of
// AUC from repeated 10-fold cross validation for Identity, Workload
// (Cormode), WorkloadLS and SelectLS, against the Majority (0.5) and
// Unperturbed baselines.
//
// Usage: fig3_naive_bayes [rows] [reps]
#include "bench_util.h"

using namespace ektelo;
using namespace ektelo::bench;

int main(int argc, char** argv) {
  std::size_t rows = 30000;
  std::size_t reps = 2;
  Args(argc, argv).Count("rows", &rows).Count("reps", &reps).Parse();
  const std::size_t folds = 10;

  Rng rng(3);
  Table data = MakeCreditLike(&rng, rows);
  std::printf(
      "Fig 3: NBC on credit-like data (%zu rows, joint domain %zu), "
      "%zu-fold CV x %zu reps\n\n",
      rows, data.schema().TotalDomainSize() / 2, folds, reps);

  NbEvalResult clean =
      EvaluateNbClassifier(std::nullopt, data, 0.0, folds, 1, &rng);
  std::printf("Unperturbed: AUC %.3f [%.3f, %.3f]\n", clean.Median(),
              clean.Percentile(25), clean.Percentile(75));
  std::printf("Majority:    AUC 0.500 (constant classifier)\n\n");

  std::printf("%-8s %-12s %8s %8s %8s\n", "eps", "plan", "p25", "median",
              "p75");
  for (double eps : {1e-3, 1e-2, 1e-1}) {
    for (NbPlanKind kind :
         {NbPlanKind::kIdentity, NbPlanKind::kWorkload,
          NbPlanKind::kWorkloadLs, NbPlanKind::kSelectLs}) {
      NbEvalResult r =
          EvaluateNbClassifier(kind, data, eps, folds, reps, &rng);
      std::printf("%-8.0e %-12s %8.3f %8.3f %8.3f\n", eps,
                  NbPlanName(kind).c_str(), r.Percentile(25), r.Median(),
                  r.Percentile(75));
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf(
      "paper (Fig 3): at eps=0.1 WorkloadLS/SelectLS approach the "
      "unperturbed AUC;\nat eps=1e-3 all private classifiers fall to ~0.5 "
      "(random).\n");
  return 0;
}
