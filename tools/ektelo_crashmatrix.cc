// Crash-consistency matrix runner (see serve/torture.h).
//
//   ektelo_crashmatrix [--dir DIR] [--quick] [--max N]
//
// Traces one clean run of the torture workload, then re-runs it in a
// forked child per I/O operation with a simulated kill (std::_Exit) at
// that operation, reopening and verifying the ledger after each crash.
// --quick crashes only at the first hit of each distinct failpoint site
// (the CI preset — still covers every site); --max caps the number of
// crash points.  Exit 0 when every invariant held at every
// crash point, 1 otherwise.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "serve/torture.h"

int main(int argc, char** argv) {
  ektelo::serve::torture::CrashMatrixOptions opts;
  opts.dir = "/tmp/ektelo_crashmatrix";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    char* end = nullptr;
    if (arg == "--dir" && i + 1 < argc) {
      opts.dir = argv[++i];
    } else if (arg == "--quick") {
      opts.quick = true;
    } else if (arg == "--max" && i + 1 < argc) {
      const unsigned long long v = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') {
        std::fprintf(stderr, "bad --max value\n");
        return 64;
      }
      opts.max_crashes = std::size_t(v);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--dir DIR] [--quick] [--max N]\n", argv[0]);
      return 64;
    }
  }

  const ektelo::serve::torture::CrashMatrixResult res =
      ektelo::serve::torture::RunCrashMatrix(opts);

  std::printf("clean-run I/O operations: %zu\n", res.total_ops);
  std::printf("crash points exercised:   %zu%s\n", res.crashes,
              opts.quick ? " (quick: first hit of each site)" : "");
  std::printf("distinct sites covered:   %zu\n", res.sites_covered.size());
  for (const std::string& s : res.sites_covered)
    std::printf("  site %s\n", s.c_str());
  if (!res.violations.empty()) {
    std::printf("INVARIANT VIOLATIONS: %zu\n", res.violations.size());
    for (const std::string& v : res.violations)
      std::printf("  VIOLATION %s\n", v.c_str());
    return 1;
  }
  std::printf("all invariants held at every crash point\n");
  return res.ok() ? 0 : 1;
}
