#include "classify/nb_plans.h"

#include <algorithm>

#include "matrix/combinators.h"
#include "matrix/implicit_ops.h"
#include "ops/inference.h"
#include "ops/measurement.h"
#include "ops/partition_select.h"
#include "workload/workloads.h"
#include "util/check.h"

namespace ektelo {

std::string NbPlanName(NbPlanKind kind) {
  switch (kind) {
    case NbPlanKind::kIdentity:
      return "Identity";
    case NbPlanKind::kWorkload:
      return "Workload";
    case NbPlanKind::kWorkloadLs:
      return "WorkloadLS";
    case NbPlanKind::kSelectLs:
      return "SelectLS";
  }
  return "?";
}

namespace {

struct NbSetup {
  Schema schema;
  std::vector<std::size_t> dims;
  std::vector<std::size_t> predictor_domains;
  /// Histogram ops on the full domain: [label marginal, joints...].
  std::vector<LinOpPtr> hist_ops;
  /// Dimension index sets for each histogram.
  std::vector<std::vector<std::size_t>> hist_dims;
};

NbSetup MakeSetup(const Schema& schema) {
  NbSetup s;
  s.schema = schema;
  EK_CHECK_GE(schema.num_attrs(), 2u);
  EK_CHECK_EQ(schema.attr(0).domain_size, 2u);  // binary label first
  for (std::size_t a = 0; a < schema.num_attrs(); ++a)
    s.dims.push_back(schema.attr(a).domain_size);
  for (std::size_t a = 1; a < schema.num_attrs(); ++a)
    s.predictor_domains.push_back(schema.attr(a).domain_size);

  s.hist_ops.push_back(MarginalWorkload(schema, {schema.attr(0).name}));
  s.hist_dims.push_back({0});
  for (std::size_t a = 1; a < schema.num_attrs(); ++a) {
    s.hist_ops.push_back(MarginalWorkload(
        schema, {schema.attr(0).name, schema.attr(a).name}));
    s.hist_dims.push_back({0, a});
  }
  return s;
}

NbHistograms HistogramsFromEstimate(const NbSetup& s, const Vec& xhat) {
  NbHistograms h;
  h.predictor_domains = s.predictor_domains;
  h.label_hist = s.hist_ops[0]->Apply(xhat);
  for (std::size_t i = 1; i < s.hist_ops.size(); ++i)
    h.joint_hists.push_back(s.hist_ops[i]->Apply(xhat));
  return h;
}

}  // namespace

NbHistograms ExactNbHistograms(const Table& train) {
  NbSetup s = MakeSetup(train.schema());
  return HistogramsFromEstimate(s, train.Vectorize());
}

StatusOr<NbHistograms> EstimateNbHistograms(NbPlanKind kind,
                                            const Table& train, double eps,
                                            uint64_t kernel_seed,
                                            const NbPlanOptions& opts) {
  NbSetup s = MakeSetup(train.schema());
  ProtectedKernel kernel(train, eps, kernel_seed);
  EK_ASSIGN_OR_RETURN(SourceId x, kernel.TVectorize(kernel.root()));
  const std::size_t n = kernel.VectorSize(x);

  switch (kind) {
    case NbPlanKind::kIdentity: {
      EK_ASSIGN_OR_RETURN(Vec xhat,
                          kernel.VectorLaplace(x, *MakeIdentityOp(n), eps));
      return HistogramsFromEstimate(s, xhat);
    }
    case NbPlanKind::kWorkload: {
      // Measure the histogram workload directly; read answers slice-wise.
      LinOpPtr w = MakeVStack(s.hist_ops);
      EK_ASSIGN_OR_RETURN(Vec y, kernel.VectorLaplace(x, *w, eps));
      NbHistograms h;
      h.predictor_domains = s.predictor_domains;
      std::size_t off = 0;
      h.label_hist.assign(y.begin(), y.begin() + 2);
      off += 2;
      for (std::size_t i = 1; i < s.hist_ops.size(); ++i) {
        const std::size_t rows = s.hist_ops[i]->rows();
        h.joint_hists.emplace_back(y.begin() + off, y.begin() + off + rows);
        off += rows;
      }
      return h;
    }
    case NbPlanKind::kWorkloadLs: {
      LinOpPtr w = MakeVStack(s.hist_ops);
      const double sens = w->SensitivityL1();
      EK_ASSIGN_OR_RETURN(Vec y, kernel.VectorLaplace(x, *w, eps));
      MeasurementSet mset;
      mset.Add(w, std::move(y), sens / eps);
      return HistogramsFromEstimate(s, LeastSquaresInference(mset));
    }
    case NbPlanKind::kSelectLs: {
      // Algorithm 8: per histogram, reduce to its marginal vector and pick
      // a subplan by domain size; global LS joins everything.
      const std::size_t k = s.hist_ops.size();
      const double eps_h = eps / double(k);
      MeasurementSet mset;
      for (std::size_t i = 0; i < k; ++i) {
        Partition marg = MarginalPartition(s.dims, s.hist_dims[i]);
        EK_ASSIGN_OR_RETURN(SourceId xm, kernel.VReduceByPartition(x, marg));
        const std::size_t d = kernel.VectorSize(xm);
        // The marginal op equals the reduce matrix on the full domain.
        LinOpPtr marg_op = s.hist_ops[i];
        if (d <= opts.identity_cutoff) {
          EK_ASSIGN_OR_RETURN(
              Vec y, kernel.VectorLaplace(xm, *MakeIdentityOp(d), eps_h));
          mset.Add(marg_op, std::move(y), 1.0 / eps_h);
        } else {
          const double eps1 = eps_h * opts.partition_frac;
          const double eps2 = eps_h - eps1;
          EK_ASSIGN_OR_RETURN(Partition p,
                              DawaPartitionSelect(&kernel, xm, eps1));
          EK_ASSIGN_OR_RETURN(SourceId xr, kernel.VReduceByPartition(xm, p));
          EK_ASSIGN_OR_RETURN(
              Vec y, kernel.VectorLaplace(
                         xr, *MakeIdentityOp(p.num_groups()), eps2));
          mset.Add(MakeProduct(p.ReduceOp(), marg_op), std::move(y),
                   1.0 / eps2);
        }
      }
      return HistogramsFromEstimate(s, LeastSquaresInference(mset));
    }
  }
  return Status::Internal("unreachable");
}

}  // namespace ektelo
