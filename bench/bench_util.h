// Shared helpers for the benchmark harnesses: a strict command-line
// parser, kernel/environment setup from a histogram, error metrics,
// time-capped execution, and a minimal machine-readable JSON emitter so
// benchmark runs leave a BENCH_*.json trail for the perf trajectory.
#ifndef EKTELO_BENCH_BENCH_UTIL_H_
#define EKTELO_BENCH_BENCH_UTIL_H_

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ektelo/ektelo.h"

namespace ektelo::bench {

/// A bench's command line: the flags it declares (e.g. --quick) and its
/// optional positional values, in order.  Anything else (an unknown flag,
/// a value that does not parse or is out of range, a surplus argument)
/// prints the usage line to stderr and exits 2, so a mistyped argument
/// never runs the bench on a default or on a zero.  Usage:
///
///   std::size_t rows = 30000;
///   double eps = 0.1;
///   Args(argc, argv).Count("rows", &rows).Positive("eps", &eps).Parse();
class Args {
 public:
  Args(int argc, char** argv) : argc_(argc), argv_(argv) {}

  /// A flag, false unless given.
  Args& Flag(const char* name, bool* value) {
    *value = false;
    flags_.push_back({name, value});
    return *this;
  }
  /// The next positional value: an integer > 0.
  Args& Count(const char* name, std::size_t* value) {
    positional_.push_back({name, value, nullptr});
    return *this;
  }
  /// The next positional value: a finite number > 0.
  Args& Positive(const char* name, double* value) {
    positional_.push_back({name, nullptr, value});
    return *this;
  }

  /// Reads argv into the declared values, or exits 2 with the usage line.
  void Parse() const {
    std::size_t next = 0;
    for (int i = 1; i < argc_; ++i) {
      const char* arg = argv_[i];
      if (std::strncmp(arg, "--", 2) == 0) {
        bool known = false;
        for (const FlagSpec& f : flags_)
          if (std::strcmp(arg, f.name) == 0) *f.value = known = true;
        if (!known) Usage();
      } else if (next == positional_.size() || !positional_[next++].Read(arg)) {
        Usage();
      }
    }
  }

 private:
  struct FlagSpec {
    const char* name;
    bool* value;
  };
  struct PositionalSpec {
    const char* name;
    std::size_t* count;
    double* positive;

    bool Read(const char* arg) const {
      char* end = nullptr;
      errno = 0;
      if (count != nullptr) {
        const unsigned long long v = std::strtoull(arg, &end, 10);
        if (!std::isdigit(static_cast<unsigned char>(arg[0])) ||
            *end != '\0' || errno != 0 || v == 0)
          return false;
        *count = static_cast<std::size_t>(v);
        return true;
      }
      const double v = std::strtod(arg, &end);
      if (end == arg || *end != '\0' || !std::isfinite(v) || v <= 0.0)
        return false;
      *positive = v;
      return true;
    }
  };

  [[noreturn]] void Usage() const {
    std::string line = "usage: " + std::string(argv_[0]);
    for (const FlagSpec& f : flags_) line += " [" + std::string(f.name) + "]";
    for (const PositionalSpec& p : positional_)
      line += " [" + std::string(p.name) +
              (p.count != nullptr ? " (integer > 0)]" : " (> 0)]");
    std::fprintf(stderr, "%s\n", line.c_str());
    std::exit(2);
  }

  int argc_;
  char** argv_;
  std::vector<FlagSpec> flags_;
  std::vector<PositionalSpec> positional_;
};

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
