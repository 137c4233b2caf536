// Rewrite cost policy (matrix/cost.h): the named sparse-fuse guards the
// rules pass applies and their boundary behavior.
#include "gtest/gtest.h"
#include "matrix/cost.h"

namespace ektelo {
namespace {

// ------------------------------------------------------------- guards

TEST(CostGuardsTest, SparseFuseBudgetBoundaries) {
  EXPECT_TRUE(SparseFuseWithinBudget(0));
  EXPECT_TRUE(SparseFuseWithinBudget(kSparseFuseMaxUpdates));
  EXPECT_FALSE(SparseFuseWithinBudget(kSparseFuseMaxUpdates + 1));
}

TEST(CostGuardsTest, SparseFuseDensityBoundaries) {
  // At ratio 1.0 the fused leaf may have exactly nnz(A)+nnz(B) entries.
  EXPECT_TRUE(SparseFuseKeepsDensity(200, 100, 100));
  EXPECT_FALSE(SparseFuseKeepsDensity(201, 100, 100));
  // The P P^T -> diagonal collapse: far fewer entries than the factors.
  EXPECT_TRUE(SparseFuseKeepsDensity(8, 64, 64));
  EXPECT_TRUE(SparseFuseKeepsDensity(0, 0, 0));
}

TEST(CostGuardsTest, GuardConstantsKeepTheirContractedValues) {
  // The rules-mode guards are part of the bitwise-reproducibility
  // contract: changing them changes which trees `rules` mode emits.
  EXPECT_EQ(kSparseFuseMaxUpdates, std::size_t{1} << 24);
  EXPECT_EQ(kSparseFuseMaxDensityRatio, 1.0);
}

}  // namespace
}  // namespace ektelo
