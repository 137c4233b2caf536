// Census tabulations case study (paper Sec. 9.2), scaled for a demo run.
//
// Builds a CPS-like table (income x age x marital x race x gender),
// answers three Census-style workloads with several plans, and prints the
// scaled per-query L2 error of each — the qualitative Table 5 comparison.
//
//   $ ./examples/census_tabulations [eps] [income_bins]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "ektelo/ektelo.h"

using namespace ektelo;

namespace {

double ScaledL2(const LinOp& w, const Vec& xhat, const Vec& x_true,
                double scale) {
  return Rmse(w.Apply(xhat), w.Apply(x_true)) / scale;
}

}  // namespace

int main(int argc, char** argv) {
  const double eps = argc > 1 ? std::atof(argv[1]) : 0.1;
  const std::size_t income_bins =
      argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 500;

  Rng rng(11);
  Table table = MakeCensusLike(&rng, 49436, income_bins);
  const Schema& schema = table.schema();
  const std::size_t n = schema.TotalDomainSize();
  Vec x_true = table.Vectorize();
  const double scale = Sum(x_true);
  std::vector<std::size_t> dims;
  for (const auto& a : schema.attrs()) dims.push_back(a.domain_size);

  std::printf("census-like domain: %zu cells, %zu records, eps=%.3g\n\n", n,
              table.NumRows(), eps);

  auto w_identity = IdentityWorkload(n);
  auto w_marginals = AllKWayMarginals(schema, 2);
  auto w_census = CensusPrefixIncomeWorkload(schema);

  struct Row {
    std::string name;
    Vec xhat;
  };
  std::vector<Row> rows;

  // Vector plans over the full census domain; the striped ones stripe
  // along the first attribute (income).
  for (const char* name : {"Identity", "HB-Striped", "DAWA-Striped"}) {
    ProtectedKernel kernel(table, eps, 100 + rows.size());
    ProtectedVector x(&kernel, *kernel.TVectorize(kernel.root()));
    BudgetScope scope(eps);
    auto xhat = PlanRegistry::Global().Find(name)->Execute(
        x, scope, {.dims = dims, .rng = &rng, .stripe_dim = 0});
    if (xhat.ok()) rows.push_back({name, std::move(*xhat)});
  }
  {
    ProtectedKernel kernel(table, eps, 500);
    auto xhat = RunPrivBayesPlan(&kernel, schema, eps, &rng);
    if (xhat.ok()) rows.push_back({"PrivBayes", std::move(*xhat)});
  }
  {
    ProtectedKernel kernel(table, eps, 501);
    auto xhat = RunPrivBayesLsPlan(&kernel, schema, eps, &rng);
    if (xhat.ok()) rows.push_back({"PrivBayesLS", std::move(*xhat)});
  }

  std::printf("%-14s %14s %14s %16s\n", "plan", "Identity", "2-way Marg.",
              "Prefix(Income)");
  for (const auto& r : rows) {
    std::printf("%-14s %14.3e %14.3e %16.3e\n", r.name.c_str(),
                ScaledL2(*w_identity, r.xhat, x_true, scale),
                ScaledL2(*w_marginals, r.xhat, x_true, scale),
                ScaledL2(*w_census, r.xhat, x_true, scale));
  }
  return 0;
}
