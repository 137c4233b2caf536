// Serving-layer batching A/B: an identical-request storm against an
// in-process daemon with coalescing ON (in-flight sharing + response
// cache) versus OFF (every request executes its own plan).  Writes
// BENCH_serve.json with both throughputs and the speedup; the committed
// copy at the repo root is the acceptance record that a hot dashboard
// pattern is >= 2x faster batched.  Replies are required to be bitwise
// identical across the two modes — coalescing is a pure wall-clock
// optimization, never an answer change.
//
//   ./bench_serve_throughput           # full storm
//   ./bench_serve_throughput --quick   # CI smoke preset
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
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
using serve::InvokeReply;
using serve::InvokeRequest;
using serve::ReplyCode;
using serve::Server;
using serve::ServerOptions;
using serve::TenantSpec;

struct StormResult {
  double seconds = 0.0;
  std::size_t ok = 0;
  std::uint64_t executions = 0;
  std::uint64_t coalesced = 0;
  Vec first_estimate;  // for the cross-mode bitwise-equality check
};

/// One ektelo_serve_requests{event=...} series from the registry.
std::uint64_t ServeEvents(const char* event) {
  const std::string labels = std::string("event=\"") + event + "\"";
  for (const obs::MetricInfo& m : obs::Registry::Global().Metrics())
    if (m.name == "ektelo_serve_requests" && m.labels == labels)
      return m.counter->Value();
  return 0;
}

/// `threads` clients each fire `per_thread` structurally identical
/// requests at a fresh server; returns wall time and the storm's
/// execution and coalescing counts (registry deltas).
StormResult RunStorm(bool coalesce, std::size_t threads,
                     std::size_t per_thread, std::size_t domain_n,
                     double eps) {
  const std::string tag = coalesce ? "co" : "nc";
  ServerOptions opts;
  opts.socket_path = "/tmp/ek_bench_serve_" + tag + ".sock";
  opts.ledger_dir =
      (fs::temp_directory_path() / ("ektelo_bench_serve_" + tag)).string();
  fs::remove(opts.socket_path);
  fs::remove_all(opts.ledger_dir);
  opts.workers = 4;

  Rng trng{41};
  const Vec hist = MakeHistogram1D(Shape1D::kGaussianMix, domain_n,
                                   /*scale=*/100000.0, &trng);
  // Budget covers the uncoalesced storm charging every single request.
  const double budget = eps * double(threads * per_thread) * 2.0 + 1.0;
  auto server = Server::Start(
      opts, {TenantSpec{"alpha", TableFromHistogram(hist, "v"), 41, budget}});
  if (!server.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 server.status().ToString().c_str());
    return {};
  }

  // H2 (hierarchical select + LM + least-squares inference) is the
  // representative dashboard query: each uncoalesced execution pays a
  // real inference solve, which is exactly the work coalescing shares.
  InvokeRequest req;
  req.tenant = "alpha";
  req.plan = "H2";
  req.eps = eps;
  req.coalesce = coalesce;

  StormResult result;
  const std::uint64_t executed0 = ServeEvents("executed");
  const std::uint64_t coalesced0 = ServeEvents("coalesced");
  std::atomic<std::size_t> ok{0};
  std::mutex first_mu;
  WallTimer timer;
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < threads; ++t)
    clients.emplace_back([&, t] {
      auto client = Client::Connect(opts.socket_path);
      if (!client.ok()) return;
      for (std::size_t i = 0; i < per_thread; ++i) {
        InvokeRequest r = req;
        r.request_id = std::uint64_t(t * per_thread + i);
        auto reply = client->Invoke(r);
        if (reply.ok() && reply->code == ReplyCode::kOk) {
          ++ok;
          std::lock_guard<std::mutex> lock(first_mu);
          if (result.first_estimate.empty())
            result.first_estimate = reply->estimate;
        }
      }
    });
  for (auto& th : clients) th.join();
  result.seconds = timer.Elapsed();
  result.ok = ok.load();
  result.executions = ServeEvents("executed") - executed0;
  result.coalesced = ServeEvents("coalesced") - coalesced0;
  (*server)->Stop();
  fs::remove(opts.socket_path);
  fs::remove_all(opts.ledger_dir);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bench::Args(argc, argv).Flag("--quick", &quick).Parse();
  const std::size_t threads = 4;
  const std::size_t per_thread = quick ? 25 : 100;
  const std::size_t domain_n = quick ? 2048 : 16384;
  const double eps = 0.001;
  const std::size_t total = threads * per_thread;

  std::printf("Serving batched-vs-unbatched storm (quick=%d)\n", quick ? 1 : 0);
  std::printf("  %zu clients x %zu identical requests, 1D domain n=%zu\n\n",
              threads, per_thread, domain_n);

  const StormResult unbatched =
      RunStorm(/*coalesce=*/false, threads, per_thread, domain_n, eps);
  const StormResult batched =
      RunStorm(/*coalesce=*/true, threads, per_thread, domain_n, eps);
  if (batched.ok != total || unbatched.ok != total) {
    std::fprintf(stderr, "storm incomplete: batched %zu/%zu unbatched %zu/%zu\n",
                 batched.ok, total, unbatched.ok, total);
    return 1;
  }
  // Coalescing must not change a single bit of any answer.
  if (batched.first_estimate.size() != unbatched.first_estimate.size() ||
      std::memcmp(batched.first_estimate.data(),
                  unbatched.first_estimate.data(),
                  batched.first_estimate.size() * sizeof(double)) != 0) {
    std::fprintf(stderr, "batched and unbatched replies differ bitwise\n");
    return 1;
  }

  const double thr_b = double(total) / batched.seconds;
  const double thr_u = double(total) / unbatched.seconds;
  const double speedup = thr_b / thr_u;
  std::printf("  unbatched: %8.1f req/s  (%zu executions)\n", thr_u,
              std::size_t(unbatched.executions));
  std::printf("  batched:   %8.1f req/s  (%zu executions, %zu coalesced)\n",
              thr_b, std::size_t(batched.executions),
              std::size_t(batched.coalesced));
  std::printf("  speedup:   %.2fx\n", speedup);

  bench::JsonRecords json;
  for (const bool co : {false, true}) {
    const StormResult& r = co ? batched : unbatched;
    json.StartRecord();
    json.Field("bench", std::string("serve_throughput"));
    json.Field("mode", std::string(co ? "batched" : "unbatched"));
    json.Field("quick", double(quick ? 1 : 0));
    json.Field("clients", double(threads));
    json.Field("requests", double(total));
    json.Field("domain_n", double(domain_n));
    json.Field("seconds", r.seconds);
    json.Field("req_per_s", double(total) / r.seconds);
    json.Field("executions", double(r.executions));
    json.Field("coalesced", double(r.coalesced));
    json.Field("speedup_vs_unbatched",
               co ? speedup : 1.0);
  }
  if (json.WriteFile("BENCH_serve.json"))
    std::printf("wrote BENCH_serve.json\n");
  return speedup >= 2.0 ? 0 : 1;
}
