// Table 5: Census case study — scaled per-query L2 error of five plans on
// three Census-style workloads over the CPS-like table (domain 1.4M cells
// at the default 5000 income bins).
//
// Usage: table5_census [income_bins] [eps]
// The default reproduces the paper's domain geometry; pass a smaller bin
// count (e.g. 500) for a quick run.
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "bench_util.h"

using namespace ektelo;
using namespace ektelo::bench;

namespace {

int Usage(const char* prog) {
  std::fprintf(stderr, "usage: %s [income_bins (integer > 0)] [eps (> 0)]\n",
               prog);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 3) return Usage(argv[0]);
  std::size_t income_bins = 5000;
  double eps = 0.1;
  if (argc > 1) {
    const char* arg = argv[1];
    char* end = nullptr;
    errno = 0;
    const unsigned long bins = std::strtoul(arg, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(arg[0])) || *end != '\0' ||
        errno != 0 || bins == 0)
      return Usage(argv[0]);
    income_bins = bins;
  }
  if (argc > 2) {
    char* end = nullptr;
    eps = std::strtod(argv[2], &end);
    if (end == argv[2] || *end != '\0' || !std::isfinite(eps) || eps <= 0.0)
      return Usage(argv[0]);
  }

  Rng rng(42);
  WallTimer setup;
  Table table = MakeCensusLike(&rng, 49436, income_bins);
  const Schema& schema = table.schema();
  const std::size_t n = schema.TotalDomainSize();
  Vec x_true = table.Vectorize();
  std::vector<std::size_t> dims;
  for (const auto& a : schema.attrs()) dims.push_back(a.domain_size);

  std::printf(
      "Table 5: Census workloads; domain size %zu; eps=%.3g "
      "(setup %.1fs)\n\n",
      n, eps, setup.Elapsed());

  auto w_identity = IdentityWorkload(n);
  auto w_marginals = AllKWayMarginals(schema, 2);
  auto w_census = CensusPrefixIncomeWorkload(schema);

  std::printf("%-14s %14s %14s %16s %10s\n", "plan", "Identity",
              "2-way Marg.", "Prefix(Income)", "time(s)");

  auto report = [&](const char* name, const StatusOr<Vec>& xhat,
                    double seconds) {
    if (!xhat.ok()) {
      std::printf("%-14s failed: %s\n", name,
                  xhat.status().ToString().c_str());
      return;
    }
    std::printf("%-14s %14.3e %14.3e %16.3e %10.1f\n", name,
                ScaledWorkloadError(*w_identity, *xhat, x_true),
                ScaledWorkloadError(*w_marginals, *xhat, x_true),
                ScaledWorkloadError(*w_census, *xhat, x_true), seconds);
    std::fflush(stdout);
  };

  // Vector plans over the full census domain; the striped ones stripe
  // along the first attribute (income).
  auto run_plan = [&](const char* name, uint64_t seed) {
    ProtectedKernel kernel(table, eps, seed);
    ProtectedVector x(&kernel, *kernel.TVectorize(kernel.root()));
    BudgetScope scope(eps);
    WallTimer t;
    auto xhat = PlanRegistry::Global().MustFind(name).Execute(
        x, scope, {.dims = dims, .rng = &rng, .stripe_dim = 0});
    report(name, xhat, t.Elapsed());
  };

  run_plan("Identity", 1);
  {
    ProtectedKernel kernel(table, eps, 2);
    WallTimer t;
    auto xhat = RunPrivBayesPlan(&kernel, schema, eps, &rng);
    report("PrivBayes", xhat, t.Elapsed());
  }
  {
    ProtectedKernel kernel(table, eps, 3);
    WallTimer t;
    auto xhat = RunPrivBayesLsPlan(&kernel, schema, eps, &rng);
    report("PrivBayesLS", xhat, t.Elapsed());
  }
  run_plan("HB-Striped", 4);
  run_plan("DAWA-Striped", 5);

  std::printf(
      "\npaper (Table 5, x1e-7): Identity 241.8/120.4/189.7, PrivBayes "
      "769.3/653.1/287.0,\n  PrivBayesLS 58.6/132.9/368.1, HB-Striped "
      "703.1/219.1/41.3, DAWA-Striped 34.3/19.6/25.0\n");
  return 0;
}
