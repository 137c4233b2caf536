// Ablation: inference-operator accuracy and runtime on identical
// measurements (DESIGN.md's design-choice ablation).
//
// Fixes the measurement set (H2 hierarchy at eps) and swaps only the
// inference operator: LSMR least squares, NNLS, multiplicative weights,
// the specialized tree solver, the structured exact path of
// LeastSquaresInference (which takes the tree solver on this hierarchy),
// and raw leaf counts (no inference).  This isolates the claim of
// Sec. 5.5 / Thm. 5.3: consistent global inference improves every
// strategy, and the generic iterative solver matches the specialized one
// on its home turf.
#include "bench_util.h"
#include "matrix/rewrite.h"

using namespace ektelo;
using namespace ektelo::bench;

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 2048;
  const double eps = argc > 2 ? std::atof(argv[2]) : 0.1;
  Rng rng(21);

  std::printf(
      "Ablation: inference operators on identical H2 measurements "
      "(n=%zu, eps=%.2g; mean scaled error over datasets)\n\n", n, eps);
  std::printf("%-24s %12s %12s\n", "inference", "err(ranges)", "time(s)");

  Hierarchy hier = BuildHierarchy(n, 2);
  auto strategy = HierarchyOp(hier);
  const double sens = strategy->SensitivityL1();

  struct Acc {
    double err = 0.0;
    double secs = 0.0;
  };
  constexpr int kVariants = 6;
  Acc acc[kVariants];
  const char* names[kVariants] = {
      "raw leaves (none)", "tree-based LS", "LS (LSMR)",
      "NNLS",              "mult-weights",  "LS (structured exact)"};

  auto shapes = AllShapes1D();
  for (std::size_t d = 0; d < shapes.size(); ++d) {
    Vec hist = MakeHistogram1D(shapes[d], n, 1e5, &rng);
    auto w = RangeQueryOp(RandomRanges(500, n, n / 8, &rng), n);
    HistEnv env(hist, {n}, eps, 600 + d, &rng);
    auto y = env.kernel.VectorLaplace(env.x.id(), *strategy, eps);
    if (!y.ok()) return 1;
    MeasurementSet mset;
    mset.Add(strategy, *y, sens / eps);
    const double total = Sum(hist);

    for (int v = 0; v < kVariants; ++v) {
      WallTimer t;
      Vec xhat;
      switch (v) {
        case 0: {
          // Leaf rows are the last n entries of the hierarchy answers.
          xhat.assign(y->end() - n, y->end());
          break;
        }
        case 1:
          xhat = TreeBasedLeastSquares(hier, *y);
          break;
        case 2:
          xhat = Lsmr(*MaybeRewrite(mset.WeightedOp()), mset.WeightedY()).x;
          break;
        case 3:
          xhat = NnlsInference(mset);
          break;
        case 4:
          xhat = MultWeightsInference(mset, total, {.iterations = 80});
          break;
        case 5:
          xhat = LeastSquaresInference(mset);
          break;
      }
      acc[v].secs += t.Elapsed();
      acc[v].err += ScaledWorkloadError(*w, xhat, hist);
    }
  }
  for (int v = 0; v < kVariants; ++v) {
    std::printf("%-24s %12.3e %12.3f\n", names[v],
                acc[v].err / double(shapes.size()), acc[v].secs);
  }
  std::printf(
      "\nexpected shape: every inference beats raw leaves (Thm 5.3); "
      "LSMR == tree-based ==\nstructured exact (same LS solution), "
      "with the two exact solvers the fastest LS rows;\nNNLS at or below "
      "LS (adds the x >= 0 constraint).\n");
  return 0;
}
