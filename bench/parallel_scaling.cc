// Parallel scaling of the deterministic execution engine.
//
// Runs a subset of the Fig. 2 catalog (the embarrassingly parallel
// SplitParallel plans plus representative dense solves) and the blocked
// materialization fallback at 1/2/4/8 threads, reporting wall time and
// speedup over the single-worker run.  Because every parallel path is
// bitwise-identical to serial, the output vectors double as a correctness
// check here: any cross-thread-count mismatch fails the run.
//
// Writes BENCH_parallel_scaling.json: one record per (workload, threads)
// with seconds and speedup, so CI tracks the scaling trajectory per
// commit.  Note speedups are hardware-relative — on a single-core
// container every configuration degenerates to ~1x; the interesting
// numbers come from multi-core runners.
//
// A second section rooflines the SIMD kernel layer: each blocked kernel
// runs single-threaded under every compiled-in dispatch target
// (scalar/AVX2/AVX-512/NEON), reporting seconds, GFLOP/s, nominal GB/s
// and speedup over the honest scalar baseline (built with
// auto-vectorization off).  Outputs are compared bitwise across targets
// — a mismatch fails the run, making the determinism contract part of
// every benchmark invocation.
#include <cstring>

#include "bench_util.h"
#include "linalg/block.h"
#include "linalg/haar.h"
#include "linalg/simd/simd.h"
#include "util/thread_pool.h"

using namespace ektelo;
using namespace ektelo::bench;

namespace {

/// Hides structured materialization so the generic blocked identity-panel
/// fallback (the parallelized path) is what gets measured.
class OpaqueOp final : public LinOp {
 public:
  explicit OpaqueOp(LinOpPtr inner)
      : LinOp(inner->rows(), inner->cols()), inner_(std::move(inner)) {}
  void ApplyRaw(const double* x, double* y) const override {
    inner_->ApplyRaw(x, y);
  }
  void ApplyTRaw(const double* x, double* y) const override {
    inner_->ApplyTRaw(x, y);
  }
  void ApplyBlockRaw(const double* x, double* y,
                     std::size_t k) const override {
    inner_->ApplyBlockRaw(x, y, k);
  }
  void ApplyTBlockRaw(const double* x, double* y,
                      std::size_t k) const override {
    inner_->ApplyTBlockRaw(x, y, k);
  }
  std::string DebugName() const override { return "Opaque"; }

 private:
  LinOpPtr inner_;
};

struct Workload {
  std::string name;
  std::function<Vec()> run;  // returns a result vector for cross-checks
};

struct KernelCase {
  std::string name;
  double flops;  // per invocation
  double bytes;  // nominal traffic per invocation (min reads + writes)
  std::function<void(std::vector<double>*)> run;  // fills the output
};

// Times fn over enough repeats for a stable wall reading; returns
// seconds per invocation.
double TimePerCall(const std::function<void()>& fn, bool quick) {
  fn();  // warm (page faults, pool wake)
  const double floor_secs = quick ? 0.02 : 0.1;
  std::size_t reps = 1;
  for (;;) {
    WallTimer t;
    for (std::size_t r = 0; r < reps; ++r) fn();
    const double secs = t.Elapsed();
    if (secs >= floor_secs || reps >= 4096) return secs / double(reps);
    reps *= 4;
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  Args(argc, argv).Flag("--quick", &quick).Parse();
  const double eps = 0.5;
  Rng rng(2);

  // Environments sized so each run takes a measurable fraction of a
  // second at one thread.
  const std::size_t n1 = quick ? 1024 : 4096;
  Vec hist1d = MakeHistogram1D(Shape1D::kGaussianMix, n1, 1e5, &rng);
  auto ranges = RandomRanges(quick ? 50 : 200, n1, 256, &rng);

  const std::size_t side = quick ? 32 : 64;
  Vec hist2d = MakeHistogram2D(side, side, 1e5, &rng);

  const std::size_t stripe = quick ? 128 : 512;
  const std::vector<std::size_t> dims3 = {stripe, 4, 4};
  Vec hist3 = MakeHistogram1D(Shape1D::kStep, stripe * 16, 1e5, &rng);

  auto run_plan = [&](const char* plan_name, const Vec& hist,
                      std::vector<std::size_t> dims,
                      std::size_t stripe_dim) -> Vec {
    const Plan& plan = PlanRegistry::Global().MustFind(plan_name);
    ProtectedKernel kernel(TableFromHistogram(hist, "v"), eps, 7001);
    ProtectedTable root = ProtectedTable::Root(&kernel);
    auto x = root.Vectorize();
    EK_CHECK(x.ok());
    BudgetScope scope(eps);
    PlanInput in;
    in.dims = std::move(dims);
    in.ranges = ranges;
    in.known_total = Sum(hist);
    in.stripe_dim = stripe_dim;
    auto xhat = plan.Execute(*x, scope, in);
    EK_CHECK(xhat.ok());
    return std::move(*xhat);
  };

  std::vector<Workload> workloads;
  workloads.push_back(
      {"HB-Striped", [&] { return run_plan("HB-Striped", hist3, dims3, 0); }});
  workloads.push_back({"DAWA-Striped", [&] {
                         return run_plan("DAWA-Striped", hist3, dims3, 0);
                       }});
  workloads.push_back({"AdaptiveGrid", [&] {
                         return run_plan("AdaptiveGrid", hist2d,
                                         {side, side}, 0);
                       }});
  workloads.push_back({"Identity", [&] {
                         return run_plan("Identity", hist1d, {n1}, 0);
                       }});
  // The blocked identity-panel materialization fallback: the engine's
  // flagship data-parallel kernel (panels shard across the pool).
  workloads.push_back({"materialize_fallback", [&] {
                         auto op = std::make_shared<OpaqueOp>(
                             MakeKronecker(MakePrefixOp(quick ? 128 : 256),
                                           MakeWaveletOp(16)));
                         CsrMatrix m = op->MaterializeSparse();
                         return Vec{static_cast<double>(m.nnz())};
                       }});

  JsonRecords json;
  std::printf("Parallel scaling (speedup vs 1 thread; %zu hw threads)\n\n",
              static_cast<std::size_t>(std::thread::hardware_concurrency()));
  std::printf("%-22s %8s %10s %9s\n", "workload", "threads", "secs",
              "speedup");

  for (const Workload& w : workloads) {
    double base_secs = 0.0;
    Vec base_result;
    for (std::size_t threads : {1u, 2u, 4u, 8u}) {
      ThreadPool::Global().Resize(threads);
      WallTimer timer;
      Vec result = w.run();
      const double secs = timer.Elapsed();
      if (threads == 1) {
        base_secs = secs;
        base_result = result;
      } else if (result != base_result) {
        // Bitwise determinism is part of the contract being benchmarked.
        std::printf("FATAL: %s result differs at %zu threads\n",
                    w.name.c_str(), threads);
        return 1;
      }
      const double speedup = secs > 0.0 ? base_secs / secs : 0.0;
      std::printf("%-22s %8zu %10.4f %8.2fx\n", w.name.c_str(), threads,
                  secs, speedup);
      json.StartRecord();
      json.Field("workload", w.name);
      json.Field("threads", static_cast<double>(threads));
      json.Field("seconds", secs);
      json.Field("speedup", speedup);
    }
  }
  ThreadPool::Global().Resize(ThreadPool::DefaultThreadCount());

  // ------------------------------------------------- SIMD kernel roofline
  //
  // Single-threaded (serial pool) so the rows measure lane-level speedup,
  // not scheduling; the scaling table above already covers threads.
  {
    Rng krng(3);
    const std::size_t dm = quick ? 256 : 512;   // dense is dm x dm
    const std::size_t k = quick ? 32 : 64;      // RHS panel width
    const std::size_t sn = quick ? 2048 : 4096; // sparse is sn x sn
    const std::size_t hn = quick ? 2048 : 8192; // Haar length
    DenseMatrix d(dm, dm);
    for (auto& v : d.data()) v = krng.Normal();
    std::vector<Triplet> trip;
    for (std::size_t i = 0; i < sn; ++i)
      for (std::size_t j = 0; j < sn; ++j)
        if (krng.Uniform() < 0.01) trip.push_back({i, j, krng.Normal()});
    CsrMatrix sp = CsrMatrix::FromTriplets(sn, sn, std::move(trip));
    const double nnz = double(sp.nnz());
    Vec xd(dm * k), xs(sn * k), xh(hn * k);
    for (auto& v : xd) v = krng.Normal();
    for (auto& v : xs) v = krng.Normal();
    for (auto& v : xh) v = krng.Normal();

    std::vector<KernelCase> kernels;
    kernels.push_back(
        {"dense_matmat", 2.0 * dm * dm * k, 8.0 * (dm * dm + 2.0 * dm * k),
         [&](std::vector<double>* y) {
           y->assign(dm * k, 0.0);
           DenseMatmat(d, xd.data(), y->data(), k);
         }});
    kernels.push_back(
        {"dense_rmatmat", 2.0 * dm * dm * k, 8.0 * (dm * dm + 2.0 * dm * k),
         [&](std::vector<double>* y) {
           y->assign(dm * k, 0.0);
           DenseRmatMat(d, xd.data(), y->data(), k);
         }});
    kernels.push_back(
        {"csr_matmat", 2.0 * nnz * k, 16.0 * nnz + 16.0 * sn * k,
         [&](std::vector<double>* y) {
           y->assign(sn * k, 0.0);
           CsrMatmat(sp, xs.data(), y->data(), k);
         }});
    kernels.push_back(
        {"csr_rmatmat", 2.0 * nnz * k, 16.0 * nnz + 16.0 * sn * k,
         [&](std::vector<double>* y) {
           y->assign(sn * k, 0.0);
           CsrRmatMat(sp, xs.data(), y->data(), k);
         }});
    kernels.push_back(
        {"haar_analysis", 2.0 * (hn - 1) * k, 16.0 * hn * k,
         [&](std::vector<double>* y) {
           y->assign(hn * k, 0.0);
           HaarAnalysisBlock(xh.data(), y->data(), hn, k);
         }});
    kernels.push_back(
        {"haar_synthesis", 2.0 * (hn - 1) * k, 16.0 * hn * k,
         [&](std::vector<double>* y) {
           y->assign(hn * k, 0.0);
           HaarSynthesisBlock(xh.data(), y->data(), hn, k);
         }});

    const auto targets = simd::AvailableTargets();
    ThreadPool::Global().Resize(0);  // serial: lane speedup only
    std::printf("\nSIMD kernel roofline (single thread; speedup vs scalar)\n\n");
    std::printf("%-16s %8s %10s %9s %9s %9s\n", "kernel", "target", "secs",
                "GFLOP/s", "GB/s", "speedup");
    for (const KernelCase& kc : kernels) {
      double scalar_secs = 0.0;
      std::vector<double> ref;
      // Scalar last in AvailableTargets; time it first for the baseline.
      simd::SetActive(simd::FindTarget("scalar"));
      scalar_secs = TimePerCall([&] { kc.run(&ref); }, quick);
      kc.run(&ref);
      for (const auto* t : targets) {
        simd::SetActive(t);
        std::vector<double> out;
        const double secs =
            std::strcmp(t->name, "scalar") == 0
                ? scalar_secs
                : TimePerCall([&] { kc.run(&out); }, quick);
        kc.run(&out);
        if (std::memcmp(out.data(), ref.data(),
                        ref.size() * sizeof(double)) != 0) {
          // The determinism contract is part of what this bench certifies.
          std::printf("FATAL: %s differs between %s and scalar\n",
                      kc.name.c_str(), t->name);
          return 1;
        }
        const double gflops = secs > 0.0 ? kc.flops / secs / 1e9 : 0.0;
        const double gbs = secs > 0.0 ? kc.bytes / secs / 1e9 : 0.0;
        const double speedup = secs > 0.0 ? scalar_secs / secs : 0.0;
        std::printf("%-16s %8s %10.5f %9.2f %9.2f %8.2fx\n", kc.name.c_str(),
                    t->name, secs, gflops, gbs, speedup);
        json.StartRecord();
        json.Field("kernel", kc.name);
        json.Field("target", std::string(t->name));
        json.Field("seconds", secs);
        json.Field("gflops", gflops);
        json.Field("gbs", gbs);
        json.Field("speedup_vs_scalar", speedup);
      }
    }
    simd::ResetActive();
    ThreadPool::Global().Resize(ThreadPool::DefaultThreadCount());
  }

  if (!json.WriteFile("BENCH_parallel_scaling.json")) {
    std::printf("failed to write BENCH_parallel_scaling.json\n");
    return 1;
  }
  std::printf("\nwrote BENCH_parallel_scaling.json\n");
  return 0;
}
