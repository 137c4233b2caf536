// Fig. 4b: multi-dimensional plan runtime vs domain size for DAWA-Striped,
// PrivBayesLS, HB-Striped and HB-Striped_kron, across matrix modes, plus
// the "Basic sparse" ablation (flattening the Kronecker product into one
// full-domain sparse matrix instead of keeping per-factor structure).
//
// Usage: fig4b_multidim_scaling [max_level(default 3)] [time_cap_s]
#include "bench_util.h"

using namespace ektelo;
using namespace ektelo::bench;

namespace {

Table RandomTable(const std::vector<std::size_t>& dims, std::size_t rows,
                  Rng* rng) {
  std::vector<Attribute> attrs;
  for (std::size_t d = 0; d < dims.size(); ++d)
    attrs.push_back({"a" + std::to_string(d), dims[d]});
  Table t{Schema(attrs)};
  std::vector<uint32_t> row(dims.size());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t d = 0; d < dims.size(); ++d) {
      // Mild skew so data-dependent plans have structure to find.
      double u = rng->Uniform();
      row[d] = static_cast<uint32_t>(u * u * double(dims[d]));
      if (row[d] >= dims[d]) row[d] = dims[d] - 1;
    }
    t.AppendRow(row);
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t max_level = 3;
  double time_cap = 20.0;
  Args(argc, argv)
      .Count("max_level", &max_level)
      .Positive("time_cap_s", &time_cap)
      .Parse();
  const double eps = 0.1;

  // Domain ladder: ~1e4, 1e5, 1e6, 1e7 cells (stripe dim first).
  const std::vector<std::vector<std::size_t>> ladders = {
      {100, 10, 10}, {500, 20, 10}, {1000, 50, 20}, {5000, 50, 40}};

  Rng rng(17);
  std::printf(
      "Fig 4b: multi-dimensional plan runtime (s) vs domain size\n"
      "(eps=%.2g; '-' = skipped by time cap %.0fs / memory guard)\n\n",
      eps, time_cap);
  std::printf("%-16s %-13s", "plan", "mode");
  for (std::size_t l = 0; l <= max_level && l < ladders.size(); ++l) {
    std::size_t n = 1;
    for (std::size_t d : ladders[l]) n *= d;
    std::printf(" %10zu", n);
  }
  std::printf("\n");

  struct Row {
    const char* plan;
    const char* mode_name;
    MatrixMode mode;
    bool basic_sparse;  // only for HB-Striped_kron
    int which;          // 0=DAWA-Striped 1=PrivBayesLS 2=HB-Striped 3=Kron
  };
  std::vector<Row> rows;
  for (int which : {0, 1, 2, 3}) {
    const char* names[] = {"DAWA-Striped", "PrivBayesLS", "HB-Striped",
                           "HB-Striped_kron"};
    for (MatrixMode mode :
         {MatrixMode::kDense, MatrixMode::kSparse, MatrixMode::kImplicit}) {
      rows.push_back({names[which], MatrixModeName(mode), mode, false,
                      which});
    }
    if (which == 3)
      rows.push_back({names[which], "basic-sparse", MatrixMode::kSparse,
                      true, which});
  }

  for (const auto& row : rows) {
    std::printf("%-16s %-13s", row.plan, row.mode_name);
    bool capped = false;
    for (std::size_t l = 0; l <= max_level && l < ladders.size(); ++l) {
      const auto& dims = ladders[l];
      std::size_t n = 1;
      for (std::size_t d : dims) n *= d;
      // Dense factor guard: HB(stripe) dense is ~2 n_s^2 cells.
      const bool dense_too_big =
          row.mode == MatrixMode::kDense && dims[0] > 1024;
      const bool basic_too_big = row.basic_sparse && n > 2'000'000;
      if (capped || dense_too_big || basic_too_big) {
        std::printf(" %10s", "-");
        continue;
      }
      Table table = RandomTable(dims, 50000, &rng);
      double secs = 0.0;
      bool ok = true;
      if (row.which == 1) {
        ProtectedKernel kernel(table, eps, 900 + l);
        WallTimer t;
        auto xhat = RunPrivBayesLsPlan(&kernel, table.schema(), eps, &rng);
        secs = t.Elapsed();
        ok = xhat.ok();
      } else {
        ProtectedKernel kernel(table, eps, 900 + l);
        ProtectedVector x(&kernel, *kernel.TVectorize(kernel.root()));
        const std::unique_ptr<Plan> basic =
            row.basic_sparse ? MakeHbStripedKronPlan(/*materialize_full=*/true)
                             : nullptr;
        const Plan& plan =
            basic ? *basic : PlanRegistry::Global().MustFind(row.plan);
        BudgetScope scope(eps);
        WallTimer t;
        StatusOr<Vec> xhat = plan.Execute(
            x, scope,
            {.dims = dims, .mode = row.mode, .rng = &rng, .stripe_dim = 0});
        secs = t.Elapsed();
        ok = xhat.ok();
      }
      if (ok) {
        std::printf(" %10.2f", secs);
      } else {
        std::printf(" %10s", "err");
      }
      std::fflush(stdout);
      if (secs > time_cap) capped = true;
    }
    std::printf("\n");
  }
  std::printf(
      "\npaper (Fig 4b): sparse and implicit reach domains >= 10x larger "
      "than dense; the\nKronecker form scales ~10x beyond the partitioned "
      "form, and 'basic sparse'\n(flattened) is the first to fall over.\n");
  return 0;
}
