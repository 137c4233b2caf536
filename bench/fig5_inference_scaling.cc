// Fig. 5: inference runtime vs data-vector size (google-benchmark).
//
// Measurements are a binary hierarchy (H2) over the domain with Laplace
// noise; we time least-squares inference under each physical
// representation x solver combination, plus NNLS and Hay et al.'s
// tree-based specialized solver:
//
//   LS:   Dense+Direct, Dense+Iterative, Sparse+Iterative,
//         Implicit+Iterative, Tree-based, Structured exact
//   NNLS: Dense+Iterative, Sparse+Iterative, Implicit+Iterative
//
// The "Iterative" LS rows call LSMR on the rewritten weighted stack
// directly: LeastSquaresInference would recognize the hierarchy and take
// its exact tree path, which the "Structured exact" row times.
//
// Sizes are capped per representation (the paper's y-axis stops at 1000s;
// dense representations blow memory long before that on this container).
// The reproduced observable: iterative+implicit extends the feasible
// domain by ~1000x over dense+direct, and the tree-based and structured
// exact rows scale linearly, an order of magnitude below implicit LSMR.
#include <benchmark/benchmark.h>

#include <map>

#include "bench_util.h"
#include "matrix/rewrite.h"

using namespace ektelo;
using namespace ektelo::bench;

namespace {

struct Problem {
  Hierarchy hier;
  LinOpPtr m_implicit;
  Vec y;
};

const Problem& GetProblem(std::size_t n) {
  static std::map<std::size_t, Problem> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    Rng rng(1234 + n);
    Problem p;
    p.hier = BuildHierarchy(n, 2);
    p.m_implicit = HierarchyOp(p.hier);
    Vec x = MakeHistogram1D(Shape1D::kGaussianMix, n, 1e6, &rng);
    p.y = p.m_implicit->Apply(x);
    for (auto& v : p.y) v += rng.Laplace(10.0);
    it = cache.emplace(n, std::move(p)).first;
  }
  return it->second;
}

MeasurementSet MakeSet(LinOpPtr m, const Vec& y) {
  MeasurementSet mset;
  mset.Add(std::move(m), y, 10.0);
  return mset;
}

Vec LsmrInference(const MeasurementSet& mset) {
  return Lsmr(*MaybeRewrite(mset.WeightedOp()), mset.WeightedY()).x;
}

void BM_LsDenseDirect(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const Problem& p = GetProblem(n);
  auto mset = MakeSet(MakeDense(p.m_implicit->MaterializeDense()), p.y);
  for (auto _ : state)
    benchmark::DoNotOptimize(DirectLeastSquaresInference(mset));
}

void BM_LsDenseIterative(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const Problem& p = GetProblem(n);
  auto mset = MakeSet(MakeDense(p.m_implicit->MaterializeDense()), p.y);
  for (auto _ : state)
    benchmark::DoNotOptimize(LsmrInference(mset));
}

void BM_LsSparseIterative(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const Problem& p = GetProblem(n);
  auto mset = MakeSet(MakeSparse(p.m_implicit->MaterializeSparse()), p.y);
  for (auto _ : state)
    benchmark::DoNotOptimize(LsmrInference(mset));
}

void BM_LsImplicitIterative(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const Problem& p = GetProblem(n);
  auto mset = MakeSet(p.m_implicit, p.y);
  for (auto _ : state)
    benchmark::DoNotOptimize(LsmrInference(mset));
}

void BM_LsStructuredExact(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const Problem& p = GetProblem(n);
  auto mset = MakeSet(p.m_implicit, p.y);
  for (auto _ : state)
    benchmark::DoNotOptimize(LeastSquaresInference(mset));
}

void BM_LsTreeBased(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const Problem& p = GetProblem(n);
  for (auto _ : state)
    benchmark::DoNotOptimize(TreeBasedLeastSquares(p.hier, p.y));
}

void BM_NnlsDenseIterative(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const Problem& p = GetProblem(n);
  auto mset = MakeSet(MakeDense(p.m_implicit->MaterializeDense()), p.y);
  for (auto _ : state)
    benchmark::DoNotOptimize(NnlsInference(mset, std::nullopt,
                                           {.max_iters = 100}));
}

void BM_NnlsSparseIterative(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const Problem& p = GetProblem(n);
  auto mset = MakeSet(MakeSparse(p.m_implicit->MaterializeSparse()), p.y);
  for (auto _ : state)
    benchmark::DoNotOptimize(NnlsInference(mset, std::nullopt,
                                           {.max_iters = 100}));
}

void BM_NnlsImplicitIterative(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const Problem& p = GetProblem(n);
  auto mset = MakeSet(p.m_implicit, p.y);
  for (auto _ : state)
    benchmark::DoNotOptimize(NnlsInference(mset, std::nullopt,
                                           {.max_iters = 100}));
}

}  // namespace

// Size ladders: dense representations stop at 4096 (O(n^2) memory /
// O(n^3) direct solves); sparse at ~1M; implicit/tree/exact continue to
// 4M+.
BENCHMARK(BM_LsDenseDirect)->RangeMultiplier(4)->Range(1 << 10, 1 << 12)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_LsDenseIterative)->RangeMultiplier(4)->Range(1 << 10, 1 << 12)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_LsSparseIterative)->RangeMultiplier(4)->Range(1 << 10, 1 << 20)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_LsImplicitIterative)
    ->RangeMultiplier(4)->Range(1 << 10, 1 << 22)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_LsTreeBased)->RangeMultiplier(4)->Range(1 << 10, 1 << 22)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_LsStructuredExact)->RangeMultiplier(4)->Range(1 << 10, 1 << 22)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_NnlsDenseIterative)->RangeMultiplier(4)->Range(1 << 10, 1 << 12)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_NnlsSparseIterative)
    ->RangeMultiplier(4)->Range(1 << 10, 1 << 18)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_NnlsImplicitIterative)
    ->RangeMultiplier(4)->Range(1 << 10, 1 << 20)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

BENCHMARK_MAIN();
