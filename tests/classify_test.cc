// Tests for the Naive-Bayes case study: AUC computation, model fitting,
// the four DP histogram-estimation plans, and the cross-validation
// harness's ordering of methods (Fig. 3's qualitative claims).
#include <cmath>

#include "classify/evaluation.h"
#include "classify/naive_bayes.h"
#include "classify/nb_plans.h"
#include "data/generators.h"
#include "gtest/gtest.h"

namespace ektelo {
namespace {

TEST(AucTest, PerfectSeparationIsOne) {
  EXPECT_DOUBLE_EQ(
      AreaUnderRoc({0.1, 0.2, 0.8, 0.9}, {0, 0, 1, 1}), 1.0);
}

TEST(AucTest, ReverseSeparationIsZero) {
  EXPECT_DOUBLE_EQ(
      AreaUnderRoc({0.9, 0.8, 0.2, 0.1}, {0, 0, 1, 1}), 0.0);
}

TEST(AucTest, TiesGiveHalf) {
  EXPECT_DOUBLE_EQ(AreaUnderRoc({0.5, 0.5, 0.5, 0.5}, {0, 1, 0, 1}), 0.5);
}

TEST(AucTest, DegenerateLabelsGiveHalf) {
  EXPECT_DOUBLE_EQ(AreaUnderRoc({0.1, 0.9}, {1, 1}), 0.5);
}

TEST(AucTest, MixedCase) {
  // scores: pos {3, 1}, neg {2, 0}: pairs (3>2),(3>0),(1<2),(1>0) = 3/4.
  EXPECT_DOUBLE_EQ(AreaUnderRoc({3, 2, 1, 0}, {1, 0, 1, 0}), 0.75);
}

NbHistograms ToyHistograms() {
  // One predictor with domain 2: value 1 strongly indicates label 1.
  NbHistograms h;
  h.label_hist = {50.0, 50.0};
  h.predictor_domains = {2};
  h.joint_hists = {{45.0, 5.0, 10.0, 40.0}};  // y-major
  return h;
}

TEST(NaiveBayesTest, FitAndScoreDirections) {
  NaiveBayesModel m = NaiveBayesModel::Fit(ToyHistograms());
  EXPECT_GT(m.Score({1}), 0.0);
  EXPECT_LT(m.Score({0}), 0.0);
}

TEST(NaiveBayesTest, NegativeNoisyCountsAreClamped) {
  NbHistograms h = ToyHistograms();
  h.joint_hists[0][0] = -3.0;  // noisy negative
  NaiveBayesModel m = NaiveBayesModel::Fit(h);
  EXPECT_TRUE(std::isfinite(m.Score({0})));
}

TEST(NbPlansTest, ExactHistogramsMatchTable) {
  Rng rng(1);
  Table t = MakeCreditLike(&rng, 2000);
  NbHistograms h = ExactNbHistograms(t);
  EXPECT_EQ(h.joint_hists.size(), 4u);
  EXPECT_NEAR(Sum(h.label_hist), 2000.0, 1e-9);
  for (const auto& j : h.joint_hists) EXPECT_NEAR(Sum(j), 2000.0, 1e-9);
}

TEST(NbPlansTest, AllPlansRunOnBudget) {
  Rng rng(2);
  Table t = MakeCreditLike(&rng, 1500);
  for (NbPlanKind kind :
       {NbPlanKind::kIdentity, NbPlanKind::kWorkload,
        NbPlanKind::kWorkloadLs, NbPlanKind::kSelectLs}) {
    SCOPED_TRACE(NbPlanName(kind));
    auto h = EstimateNbHistograms(kind, t, 0.5, 42);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(h->joint_hists.size(), 4u);
    EXPECT_EQ(h->joint_hists[0].size(), 2u * 28);
  }
}

TEST(NbPlansTest, HighEpsHistogramsNearExact) {
  Rng rng(3);
  Table t = MakeCreditLike(&rng, 2000);
  NbHistograms exact = ExactNbHistograms(t);
  auto h = EstimateNbHistograms(NbPlanKind::kWorkloadLs, t, 1000.0, 43);
  ASSERT_TRUE(h.ok());
  EXPECT_NEAR(h->label_hist[0], exact.label_hist[0], 2.0);
  EXPECT_NEAR(h->label_hist[1], exact.label_hist[1], 2.0);
}

TEST(EvaluationTest, KFoldPartitionsRows) {
  Rng rng(4);
  auto folds = KFoldIndices(103, 10, &rng);
  std::size_t total = 0;
  std::vector<int> seen(103, 0);
  for (const auto& f : folds) {
    total += f.size();
    for (std::size_t r : f) seen[r]++;
  }
  EXPECT_EQ(total, 103u);
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST(EvaluationTest, UnperturbedClassifierHasSignal) {
  Rng rng(5);
  Table t = MakeCreditLike(&rng, 4000);
  NbEvalResult res = EvaluateNbClassifier(std::nullopt, t, 0.0, 5, 1, &rng);
  EXPECT_GT(res.Median(), 0.70);
}

TEST(EvaluationTest, HighEpsApproachesUnperturbed) {
  Rng rng(6);
  Table t = MakeCreditLike(&rng, 3000);
  NbEvalResult clean = EvaluateNbClassifier(std::nullopt, t, 0.0, 5, 1,
                                            &rng);
  NbEvalResult dp = EvaluateNbClassifier(NbPlanKind::kWorkloadLs, t, 10.0,
                                         5, 1, &rng);
  EXPECT_NEAR(dp.Median(), clean.Median(), 0.03);
}

TEST(EvaluationTest, TinyEpsDegradesTowardChance) {
  Rng rng(7);
  Table t = MakeCreditLike(&rng, 3000);
  NbEvalResult dp = EvaluateNbClassifier(NbPlanKind::kWorkload, t, 1e-4, 5,
                                         1, &rng);
  EXPECT_NEAR(dp.Median(), 0.5, 0.12);
}

TEST(EvaluationTest, PercentilesOrdered) {
  NbEvalResult r;
  r.fold_aucs = {0.3, 0.9, 0.5, 0.7, 0.6};
  EXPECT_LE(r.Percentile(25), r.Percentile(50));
  EXPECT_LE(r.Percentile(50), r.Percentile(75));
  EXPECT_DOUBLE_EQ(r.Median(), 0.6);
}

}  // namespace
}  // namespace ektelo
