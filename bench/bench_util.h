// Shared helpers for the benchmark harnesses: kernel/environment setup
// from a histogram, error metrics, time-capped execution, and a minimal
// machine-readable JSON emitter so benchmark runs leave a BENCH_*.json
// trail for the perf trajectory.
#ifndef EKTELO_BENCH_BENCH_UTIL_H_
#define EKTELO_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ektelo/ektelo.h"

namespace ektelo::bench {

/// A protected kernel wrapping a histogram: the vector handle, the eps a
/// plan execution may spend, and the public PlanInput (dims, mode, client
/// rng) that call sites extend with plan-specific fields.
struct HistEnv {
  ProtectedKernel kernel;
  ProtectedVector x;
  double eps;
  PlanInput in;

  HistEnv(const Vec& hist, std::vector<std::size_t> dims, double eps,
          uint64_t seed, Rng* client_rng,
          MatrixMode mode = MatrixMode::kImplicit)
      : kernel(TableFromHistogram(hist, "v"), eps, seed),
        x(&kernel, kernel.TVectorize(kernel.root()).value()),
        eps(eps) {
    in.dims = std::move(dims);
    in.mode = mode;
    in.rng = client_rng;
  }
};

/// Scaled per-query L2 error (DPBench's metric): RMSE over workload
/// answers divided by the total record count.
inline double ScaledWorkloadError(const LinOp& w, const Vec& xhat,
                                  const Vec& x_true) {
  const double scale = std::max(Sum(x_true), 1.0);
  return Rmse(w.Apply(xhat), w.Apply(x_true)) / scale;
}

/// Run fn, returning wall seconds; nullopt on Status failure.
inline std::optional<double> TimeIt(
    const std::function<ektelo::Status()>& fn) {
  WallTimer t;
  Status s = fn();
  if (!s.ok()) return std::nullopt;
  return t.Elapsed();
}

/// Accumulates flat records of string/number fields and writes them as a
/// JSON array of objects — just enough structure for the perf-tracking
/// scripts, with no external dependency.
class JsonRecords {
 public:
  void StartRecord() { records_.emplace_back(); }
  void Field(const std::string& key, const std::string& value) {
    records_.back().push_back("\"" + key + "\":\"" + value + "\"");
  }
  void Field(const std::string& key, double value) {
    std::ostringstream os;
    os.precision(9);
    os << value;
    records_.back().push_back("\"" + key + "\":" + os.str());
  }

  bool WriteFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fputs("[\n", f);
    for (std::size_t r = 0; r < records_.size(); ++r) {
      std::fputs("  {", f);
      for (std::size_t i = 0; i < records_[r].size(); ++i) {
        if (i) std::fputs(",", f);
        std::fputs(records_[r][i].c_str(), f);
      }
      std::fputs(r + 1 < records_.size() ? "},\n" : "}\n", f);
    }
    std::fputs("]\n", f);
    std::fclose(f);
    return true;
  }

 private:
  std::vector<std::vector<std::string>> records_;
};

}  // namespace ektelo::bench

#endif  // EKTELO_BENCH_BENCH_UTIL_H_
