// The EKTELO serving daemon.  Example, as one command line:
//
//   ektelo_served --socket /tmp/ektelo.sock --ledger /var/lib/ektelo
//                 --tenant alpha:1.0:41:256:10000
//                 --tenant beta:0.5:43:256:10000
//
// Each --tenant is name:eps_total:seed:n:scale — a tenant served from a
// deterministic synthetic table (MakeHistogram1D kGaussianMix with the
// given domain size and scale, generated from the seed).  eps_total is
// the budget registered on FIRST start; a ledger that already knows the
// tenant keeps its durable balance — restarting never refreshes spent
// budget.  Runtime knobs come from the EKTELO_SERVE_* environment (see
// README "Serving"); SIGINT/SIGTERM or a client shutdown request stop
// the daemon cleanly (drain queued work, checkpoint the ledger).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "data/generators.h"
#include "serve/server.h"
#include "util/rng.h"

namespace {

volatile std::sig_atomic_t g_signal = 0;
void OnSignal(int) { g_signal = 1; }

std::optional<ektelo::serve::TenantSpec> ParseTenant(const std::string& spec) {
  // name:eps_total:seed:n:scale (trailing fields optional).
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = spec.find(':', start);
    parts.push_back(spec.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  if (parts.empty() || parts[0].empty() || parts.size() > 5)
    return std::nullopt;
  char* end = nullptr;
  double eps = 1.0;
  unsigned long long seed = 0, n = 256;
  double scale = 10000.0;
  if (parts.size() > 1) {
    eps = std::strtod(parts[1].c_str(), &end);
    if (end == parts[1].c_str() || *end != '\0' || !(eps >= 0.0))
      return std::nullopt;
  }
  if (parts.size() > 2) {
    seed = std::strtoull(parts[2].c_str(), &end, 10);
    if (end == parts[2].c_str() || *end != '\0') return std::nullopt;
  }
  if (parts.size() > 3) {
    n = std::strtoull(parts[3].c_str(), &end, 10);
    if (end == parts[3].c_str() || *end != '\0' || n == 0)
      return std::nullopt;
  }
  if (parts.size() > 4) {
    scale = std::strtod(parts[4].c_str(), &end);
    if (end == parts[4].c_str() || *end != '\0' || !(scale > 0.0))
      return std::nullopt;
  }
  ektelo::Rng rng{uint64_t(seed)};
  const ektelo::Vec hist = ektelo::MakeHistogram1D(
      ektelo::Shape1D::kGaussianMix, std::size_t(n), scale, &rng);
  return ektelo::serve::TenantSpec{parts[0],
                                   ektelo::TableFromHistogram(hist, "v"),
                                   uint64_t(seed), eps};
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH --ledger DIR "
               "[--tenant name:eps:seed:n:scale]...\n",
               argv0);
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  ektelo::serve::ServerOptions opts;
  std::vector<ektelo::serve::TenantSpec> tenants;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket" && i + 1 < argc) {
      opts.socket_path = argv[++i];
    } else if (arg == "--ledger" && i + 1 < argc) {
      opts.ledger_dir = argv[++i];
    } else if (arg == "--tenant" && i + 1 < argc) {
      auto t = ParseTenant(argv[++i]);
      if (!t.has_value()) {
        std::fprintf(stderr, "bad --tenant spec: %s\n", argv[i]);
        return Usage(argv[0]);
      }
      tenants.push_back(std::move(*t));
    } else {
      return Usage(argv[0]);
    }
  }
  if (opts.socket_path.empty() || opts.ledger_dir.empty())
    return Usage(argv[0]);
  if (tenants.empty()) {
    // A usable default pair for smoke runs.
    for (const char* spec : {"alpha:1.0:41:256:10000", "beta:1.0:43:256:10000"})
      if (auto t = ParseTenant(spec)) tenants.push_back(std::move(*t));
  }

  opts = ektelo::serve::ApplyServeEnv(opts);
  auto server =
      ektelo::serve::Server::Start(std::move(opts), std::move(tenants));
  if (!server.ok()) {
    std::fprintf(stderr, "ektelo_served: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::printf("ektelo_served: listening on %s\n",
              (*server)->socket_path().c_str());
  std::fflush(stdout);
  while (g_signal == 0 && !(*server)->stopped())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  (*server)->Stop();
  std::printf("ektelo_served: clean shutdown\n");
  return 0;
}
