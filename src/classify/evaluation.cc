#include "classify/evaluation.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.h"

namespace ektelo {

std::vector<std::vector<std::size_t>> KFoldIndices(std::size_t rows,
                                                   std::size_t folds,
                                                   Rng* rng) {
  EK_CHECK_GE(folds, 2u);
  std::vector<std::size_t> order(rows);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = rows; i > 1; --i)
    std::swap(order[i - 1],
              order[static_cast<std::size_t>(rng->UniformInt(0, i - 1))]);
  std::vector<std::vector<std::size_t>> out(folds);
  for (std::size_t i = 0; i < rows; ++i) out[i % folds].push_back(order[i]);
  return out;
}

Table Subset(const Table& t, const std::vector<std::size_t>& rows) {
  Table out(t.schema());
  std::vector<uint32_t> row(t.schema().num_attrs());
  for (std::size_t r : rows) {
    for (std::size_t a = 0; a < row.size(); ++a) row[a] = t.At(r, a);
    out.AppendRow(row);
  }
  return out;
}

double NbEvalResult::Percentile(double p) const {
  EK_CHECK(!fold_aucs.empty());
  std::vector<double> sorted = fold_aucs;
  std::sort(sorted.begin(), sorted.end());
  const double pos = p / 100.0 * double(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - double(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

NbEvalResult EvaluateNbClassifier(std::optional<NbPlanKind> plan,
                                  const Table& data, double eps,
                                  std::size_t folds, std::size_t reps,
                                  Rng* rng) {
  NbEvalResult result;
  const std::size_t na = data.schema().num_attrs();
  for (std::size_t rep = 0; rep < reps; ++rep) {
    auto fold_idx = KFoldIndices(data.NumRows(), folds, rng);
    for (std::size_t f = 0; f < folds; ++f) {
      std::vector<std::size_t> train_rows;
      for (std::size_t g = 0; g < folds; ++g)
        if (g != f)
          train_rows.insert(train_rows.end(), fold_idx[g].begin(),
                            fold_idx[g].end());
      Table train = Subset(data, train_rows);

      NbHistograms hists;
      if (plan.has_value()) {
        auto est = EstimateNbHistograms(*plan, train, eps,
                                        /*kernel_seed=*/rng->raw()());
        EK_CHECK(est.ok());
        hists = std::move(est).value();
      } else {
        hists = ExactNbHistograms(train);
      }
      NaiveBayesModel model = NaiveBayesModel::Fit(hists);

      std::vector<double> scores;
      std::vector<int> labels;
      std::vector<uint32_t> preds(na - 1);
      for (std::size_t r : fold_idx[f]) {
        for (std::size_t a = 1; a < na; ++a) preds[a - 1] = data.At(r, a);
        scores.push_back(model.Score(preds));
        labels.push_back(static_cast<int>(data.At(r, 0)));
      }
      result.fold_aucs.push_back(AreaUnderRoc(scores, labels));
    }
  }
  return result;
}

}  // namespace ektelo
