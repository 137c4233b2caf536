// Observability overhead A/B: the same single-client request sequence
// against an in-process daemon with observability fully armed (timing
// histograms + per-request tracing, EKTELO_OBS=1 EKTELO_TRACE=1) versus
// fully disarmed.  Writes BENCH_obs.json with p50/p99 request latency
// in both modes; the committed copy at the repo root is the acceptance
// record that the armed serving path stays within 3% of disarmed.
// Replies are required to be bitwise identical across the two modes —
// observability is a passive observer, never an answer change.
//
//   ./bench_obs_overhead           # full run
//   ./bench_obs_overhead --quick   # CI smoke preset
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "data/generators.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

namespace fs = std::filesystem;
using namespace ektelo;
using serve::Client;
using serve::InvokeRequest;
using serve::ReplyCode;
using serve::Server;
using serve::ServerOptions;
using serve::TenantSpec;

struct LatencyResult {
  std::vector<double> seconds;  // per-request, timed client-side
  Vec first_estimate;           // cross-mode bitwise-equality check
  bool ok = false;

  double Percentile(double p) const {
    if (seconds.empty()) return 0.0;
    std::vector<double> s = seconds;
    std::sort(s.begin(), s.end());
    const std::size_t idx = std::min(
        s.size() - 1, std::size_t(p * double(s.size() - 1) + 0.5));
    return s[idx];
  }
};

/// One client fires `warmup + n` identical-structure requests (all
/// coalescable, so every timed request after the first replays from the
/// response cache — which makes the serve path itself, not the plan
/// solve, the thing under measurement).
LatencyResult RunSequence(bool armed, std::size_t warmup, std::size_t n,
                          std::size_t domain_n, double eps) {
  obs::SetTimingEnabled(armed);
  obs::SetTraceEnabled(armed);

  const std::string tag = armed ? "on" : "off";
  ServerOptions opts;
  opts.socket_path = "/tmp/ek_bench_obs_" + tag + ".sock";
  opts.ledger_dir =
      (fs::temp_directory_path() / ("ektelo_bench_obs_" + tag)).string();
  fs::remove(opts.socket_path);
  fs::remove_all(opts.ledger_dir);
  opts.workers = 2;

  Rng trng{41};
  const Vec hist = MakeHistogram1D(Shape1D::kGaussianMix, domain_n,
                                   /*scale=*/100000.0, &trng);
  const double budget = eps * double(warmup + n) * 2.0 + 1.0;
  auto server = Server::Start(
      opts, {TenantSpec{"alpha", TableFromHistogram(hist, "v"), 41, budget}});
  LatencyResult result;
  if (!server.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 server.status().ToString().c_str());
    return result;
  }
  auto client = Client::Connect(opts.socket_path);
  if (!client.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 client.status().ToString().c_str());
    return result;
  }

  InvokeRequest req;
  req.tenant = "alpha";
  req.plan = "H2";
  req.eps = eps;

  result.ok = true;
  for (std::size_t i = 0; i < warmup + n; ++i) {
    InvokeRequest r = req;
    r.request_id = std::uint64_t(i);
    WallTimer timer;
    auto reply = client->Invoke(r);
    const double elapsed = timer.Elapsed();
    if (!reply.ok() || reply->code != ReplyCode::kOk) {
      std::fprintf(stderr, "invoke %zu failed\n", i);
      result.ok = false;
      break;
    }
    if (result.first_estimate.empty()) result.first_estimate = reply->estimate;
    if (i >= warmup) result.seconds.push_back(elapsed);
  }

  (*server)->Stop();
  fs::remove(opts.socket_path);
  fs::remove_all(opts.ledger_dir);
  obs::SetTimingEnabled(true);  // restore the process defaults
  obs::SetTraceEnabled(false);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bench::Args(argc, argv).Flag("--quick", &quick).Parse();
  const std::size_t warmup = quick ? 10 : 30;
  const std::size_t n = quick ? 150 : 600;
  const std::size_t domain_n = quick ? 1024 : 4096;
  const double eps = 0.001;

  std::printf("Observability overhead A/B (quick=%d)\n", quick ? 1 : 0);
  std::printf("  %zu timed requests (+%zu warmup), 1D domain n=%zu\n\n", n,
              warmup, domain_n);

  const LatencyResult off =
      RunSequence(/*armed=*/false, warmup, n, domain_n, eps);
  const LatencyResult on =
      RunSequence(/*armed=*/true, warmup, n, domain_n, eps);
  if (!off.ok || !on.ok) return 1;

  // Armed observability must not change a single bit of any answer.
  if (on.first_estimate.size() != off.first_estimate.size() ||
      std::memcmp(on.first_estimate.data(), off.first_estimate.data(),
                  on.first_estimate.size() * sizeof(double)) != 0) {
    std::fprintf(stderr, "armed and disarmed replies differ bitwise\n");
    return 1;
  }

  const double p50_off = off.Percentile(0.50), p99_off = off.Percentile(0.99);
  const double p50_on = on.Percentile(0.50), p99_on = on.Percentile(0.99);
  const double overhead = p50_off > 0.0 ? p50_on / p50_off - 1.0 : 0.0;
  std::printf("  disarmed: p50 %8.1f us   p99 %8.1f us\n", p50_off * 1e6,
              p99_off * 1e6);
  std::printf("  armed:    p50 %8.1f us   p99 %8.1f us\n", p50_on * 1e6,
              p99_on * 1e6);
  std::printf("  p50 overhead: %+.2f%%\n", overhead * 100.0);

  bench::JsonRecords json;
  for (const bool armed : {false, true}) {
    const LatencyResult& r = armed ? on : off;
    json.StartRecord();
    json.Field("bench", std::string("obs_overhead"));
    json.Field("mode", std::string(armed ? "armed" : "disarmed"));
    json.Field("quick", double(quick ? 1 : 0));
    json.Field("requests", double(n));
    json.Field("domain_n", double(domain_n));
    json.Field("p50_s", r.Percentile(0.50));
    json.Field("p99_s", r.Percentile(0.99));
    json.Field("p50_overhead_pct", armed ? overhead * 100.0 : 0.0);
  }
  if (json.WriteFile("BENCH_obs.json"))
    std::printf("wrote BENCH_obs.json\n");

  // Gate: armed p50 within 3% of disarmed, with a 50us absolute floor
  // so scheduler jitter on a sub-millisecond path cannot flake the gate.
  return p50_on <= p50_off * 1.03 + 50e-6 ? 0 : 1;
}
