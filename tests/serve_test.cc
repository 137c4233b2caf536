// The serving daemon end to end over its real unix socket: multi-tenant
// admission, restart durability (spent budget survives bit-for-bit),
// exhaustion refused before any kernel-side charge, identical-request
// coalescing hitting one execution, bitwise response determinism across
// EKTELO_THREADS settings, malformed-frame rejection, queue-full
// backpressure, the frame bytes on the wire, the CRC32C trailer refusing
// bit flips and bursts, a seeded mutation loop over every decoder of wire
// bytes, and a golden digest of the replies to a fixed request set.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>

#include "gtest/gtest.h"
#include "data/generators.h"
#include "linalg/simd/simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plans/pipeline.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "store/serialize.h"
#include "util/failpoint.h"
#include "util/net.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ektelo::serve {
namespace {

namespace fs = std::filesystem;

// sockaddr_un paths cap near 107 bytes: keep sockets directly in /tmp.
std::string FreshSock(const std::string& name) {
  const std::string path = "/tmp/ek_serve_" + name + ".sock";
  fs::remove(path);
  return path;
}

std::string FreshLedgerDir(const std::string& name) {
  const std::string dir =
      (fs::temp_directory_path() / ("ektelo_serve_test_" + name)).string();
  fs::remove_all(dir);
  return dir;
}

TenantSpec MakeTenant(const std::string& name, uint64_t seed,
                      double eps_total, std::size_t n = 128) {
  Rng rng{seed};
  const Vec hist =
      MakeHistogram1D(Shape1D::kGaussianMix, n, /*scale=*/5000.0, &rng);
  return TenantSpec{name, TableFromHistogram(hist, "v"), seed, eps_total};
}

InvokeRequest IdentityRequest(const std::string& tenant, double eps,
                              uint64_t request_id = 0) {
  InvokeRequest req;
  req.request_id = request_id;
  req.tenant = tenant;
  req.plan = "Identity";
  req.eps = eps;
  return req;
}

ServerOptions BaseOptions(const std::string& tag) {
  ServerOptions opts;
  opts.socket_path = FreshSock(tag);
  opts.ledger_dir = FreshLedgerDir(tag);
  return opts;
}

void Cleanup(const ServerOptions& opts) {
  fs::remove(opts.socket_path);
  fs::remove_all(opts.ledger_dir);
}

// Counter reads from the process-global metrics registry, the daemon's
// one source of stats.  Registry series are monotone across servers in
// one process, so assertions compare before/after deltas.
uint64_t RegistryCounter(const std::string& name, const std::string& labels) {
  for (const obs::MetricInfo& m : obs::Registry::Global().Metrics())
    if (m.type == obs::MetricType::kCounter && m.name == name &&
        m.labels == labels)
      return m.counter->Value();
  return 0;
}

uint64_t ServeEvents(const std::string& event) {
  return RegistryCounter("ektelo_serve_requests", "event=\"" + event + "\"");
}

TEST(Server, ServesTwoTenantsConcurrently) {
  ServerOptions opts = BaseOptions("two");
  auto server = Server::Start(
      opts, {MakeTenant("alpha", 41, 1.0), MakeTenant("beta", 43, 1.0)});
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  std::vector<std::thread> threads;
  std::vector<int> ok_counts(2, 0);
  for (int t = 0; t < 2; ++t)
    threads.emplace_back([&, t] {
      const std::string tenant = t == 0 ? "alpha" : "beta";
      auto client = Client::Connect(opts.socket_path);
      ASSERT_TRUE(client.ok());
      for (int i = 0; i < 4; ++i) {
        auto reply =
            client->Invoke(IdentityRequest(tenant, 0.05 + 0.01 * i));
        ASSERT_TRUE(reply.ok());
        if (reply->code == ReplyCode::kOk) ++ok_counts[std::size_t(t)];
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok_counts[0], 4);
  EXPECT_EQ(ok_counts[1], 4);

  const auto alpha = (*server)->ledger().Balance("alpha");
  ASSERT_TRUE(alpha.has_value());
  EXPECT_DOUBLE_EQ(alpha->spent, 0.05 + 0.06 + 0.07 + 0.08);
  (*server)->Stop();
  Cleanup(opts);
}

TEST(Server, RestartPreservesSpentBudgetExactly) {
  ServerOptions opts = BaseOptions("restart");
  double spent_before = 0.0;
  {
    auto server = Server::Start(opts, {MakeTenant("alpha", 41, 1.0)});
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    auto client = Client::Connect(opts.socket_path);
    ASSERT_TRUE(client.ok());
    for (double eps : {0.1, 0.2, 0.15}) {
      auto reply = client->Invoke(IdentityRequest("alpha", eps));
      ASSERT_TRUE(reply.ok());
      ASSERT_EQ(reply->code, ReplyCode::kOk);
    }
    spent_before = (*server)->ledger().Balance("alpha")->spent;
    (*server)->Stop();
  }
  // Same ledger dir, same declared eps_total: the durable balance wins
  // over the TenantSpec registration — restarting refreshes nothing.
  auto server = Server::Start(opts, {MakeTenant("alpha", 41, 1.0)});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const auto after = (*server)->ledger().Balance("alpha");
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->spent, spent_before);  // bitwise, not approximately
  (*server)->Stop();
  Cleanup(opts);
}

TEST(Server, ExhaustedTenantRefusedWithoutExecution) {
  ServerOptions opts = BaseOptions("exhaust");
  auto server = Server::Start(opts, {MakeTenant("alpha", 41, 0.1)});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = Client::Connect(opts.socket_path);
  ASSERT_TRUE(client.ok());

  auto ok = client->Invoke(IdentityRequest("alpha", 0.1));
  ASSERT_TRUE(ok.ok());
  ASSERT_EQ(ok->code, ReplyCode::kOk);
  const uint64_t execs_before = ServeEvents("executed");

  // Over-budget request: refused at admission, no kernel ever runs and
  // the durable ledger never sees a charge attempt's side effects.
  auto refused = client->Invoke(IdentityRequest("alpha", 0.05));
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(refused->code, ReplyCode::kBudgetExhausted);
  EXPECT_EQ(refused->eps_charged, 0.0);
  EXPECT_EQ(refused->estimate.size(), 0u);
  EXPECT_EQ(ServeEvents("executed"), execs_before);
  EXPECT_DOUBLE_EQ((*server)->ledger().Balance("alpha")->spent, 0.1);
  (*server)->Stop();
  Cleanup(opts);
}

TEST(Server, CoalescesIdenticalConcurrentRequests) {
  ServerOptions opts = BaseOptions("coalesce");
  opts.workers = 4;
  // Long enough for the storm to pile onto the in-flight leader.
  opts.test_execution_delay_ms = 100;
  auto server = Server::Start(opts, {MakeTenant("alpha", 41, 1.0)});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const uint64_t executed0 = ServeEvents("executed");
  const uint64_t coalesced0 = ServeEvents("coalesced");

  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  std::vector<InvokeReply> replies(kClients);
  for (int i = 0; i < kClients; ++i)
    threads.emplace_back([&, i] {
      auto client = Client::Connect(opts.socket_path);
      ASSERT_TRUE(client.ok());
      // Distinct request ids, identical structure: one content hash.
      auto reply =
          client->Invoke(IdentityRequest("alpha", 0.25, uint64_t(i)));
      ASSERT_TRUE(reply.ok());
      replies[std::size_t(i)] = std::move(*reply);
    });
  for (auto& th : threads) th.join();

  // One execution, one durable charge, identical bytes for everyone.
  for (const auto& r : replies) {
    ASSERT_EQ(r.code, ReplyCode::kOk);
    ASSERT_EQ(r.estimate.size(), replies[0].estimate.size());
    EXPECT_EQ(std::memcmp(r.estimate.data(), replies[0].estimate.data(),
                          r.estimate.size() * sizeof(double)),
              0);
  }
  EXPECT_EQ(ServeEvents("executed") - executed0, 1u);
  EXPECT_EQ(ServeEvents("coalesced") - coalesced0,
            std::uint64_t(kClients - 1));
  EXPECT_DOUBLE_EQ((*server)->ledger().Balance("alpha")->spent, 0.25);
  (*server)->Stop();
  Cleanup(opts);
}

// The other half of the hot-dashboard story: even when every request
// executes (response cache off, no concurrency to coalesce), a sparse-mode
// H2 request prepares its strategy once — the Select stage reuses the
// materialized operator prepared for the first request with the same
// public fields, and the answers stay bitwise identical.  The trace
// endpoint shows it on the plan.select span's `prepared` attribute.
TEST(Server, RepeatedExecutionsReuseThePreparedStrategy) {
  ClearPreparedStrategies();
  obs::SetTraceEnabled(true);
  ServerOptions opts = BaseOptions("prepared");
  opts.response_cache_entries = 0;
  auto server = Server::Start(opts, {MakeTenant("alpha", 41, 2.0, 512)});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = Client::Connect(opts.socket_path);
  ASSERT_TRUE(client.ok());

  InvokeRequest req = IdentityRequest("alpha", 0.1);
  req.plan = "H2";  // hierarchical select: a real materialization
  req.mode = 1;     // sparse: the strategy is materialized and prepared
  req.coalesce = false;
  const uint64_t executed0 = ServeEvents("executed");
  std::vector<Vec> estimates;
  for (int i = 0; i < 4; ++i) {
    auto reply = client->Invoke(req);
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply->code, ReplyCode::kOk);
    estimates.push_back(reply->estimate);
  }
  for (const Vec& e : estimates) {
    ASSERT_EQ(e.size(), estimates[0].size());
    EXPECT_EQ(std::memcmp(e.data(), estimates[0].data(),
                          e.size() * sizeof(double)),
              0);
  }
  EXPECT_EQ(ServeEvents("executed") - executed0, 4u);

  auto json = client->Trace();
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  const auto count = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = json->find(needle); at != std::string::npos;
         at = json->find(needle, at + 1))
      ++n;
    return n;
  };
  EXPECT_EQ(count("\"prepared\":\"miss\""), 1u) << *json;
  EXPECT_EQ(count("\"prepared\":\"hit\""), 3u) << *json;
  (*server)->Stop();
  obs::SetTraceEnabled(false);
  Cleanup(opts);
}

// The serving determinism contract: the same request stream produces
// bitwise-identical responses per tenant whether the kernel runs
// serially (EKTELO_THREADS=0) or on 4 pool threads, with coalescing on
// or off.  Fresh ledger each run so admission decisions match too.
TEST(Server, ResponsesBitwiseIdenticalAcrossThreadCounts) {
  std::vector<InvokeRequest> stream;
  for (int i = 0; i < 3; ++i) {
    stream.push_back(IdentityRequest("alpha", 0.05 + 0.01 * i));
    stream.push_back(IdentityRequest("beta", 0.07 + 0.01 * i));
  }
  stream.push_back(IdentityRequest("alpha", 0.05));  // coalescable repeat

  auto run = [&stream](std::size_t threads, bool coalesce,
                       const std::string& tag) {
    ThreadPool::Global().Resize(threads);
    ServerOptions opts = BaseOptions(tag);
    auto server = Server::Start(
        opts, {MakeTenant("alpha", 41, 1.0), MakeTenant("beta", 43, 1.0)});
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    auto client = Client::Connect(opts.socket_path);
    EXPECT_TRUE(client.ok());
    std::vector<Vec> estimates;
    for (InvokeRequest req : stream) {
      req.coalesce = coalesce;
      auto reply = client->Invoke(req);
      EXPECT_TRUE(reply.ok());
      EXPECT_EQ(reply->code, ReplyCode::kOk);
      estimates.push_back(reply->estimate);
    }
    (*server)->Stop();
    Cleanup(opts);
    return estimates;
  };

  const auto serial = run(0, true, "det0");
  const auto pooled = run(4, true, "det4");
  const auto uncoalesced = run(4, false, "det4nc");
  ThreadPool::Global().Resize(ThreadPool::DefaultThreadCount());

  ASSERT_EQ(serial.size(), pooled.size());
  ASSERT_EQ(serial.size(), uncoalesced.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].size(), pooled[i].size());
    EXPECT_EQ(std::memcmp(serial[i].data(), pooled[i].data(),
                          serial[i].size() * sizeof(double)),
              0)
        << "reply " << i << " differs between EKTELO_THREADS=0 and =4";
    ASSERT_EQ(serial[i].size(), uncoalesced[i].size());
    EXPECT_EQ(std::memcmp(serial[i].data(), uncoalesced[i].data(),
                          serial[i].size() * sizeof(double)),
              0)
        << "reply " << i << " differs with coalescing off";
  }
}

TEST(Server, MalformedFramesRejectedWithoutTakingServerDown) {
  ServerOptions opts = BaseOptions("garbage");
  auto server = Server::Start(opts, {MakeTenant("alpha", 41, 1.0)});
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // Raw garbage: the connection is dropped, the server lives on.
  {
    auto fd = net::ConnectUnix(opts.socket_path);
    ASSERT_TRUE(fd.ok());
    const uint8_t junk[] = "definitely not a frame";
    ASSERT_TRUE(net::SendAll(*fd, junk, sizeof(junk)).ok());
    uint8_t buf;
    EXPECT_FALSE(net::RecvAll(*fd, &buf, 1).ok());  // closed, no reply
    net::CloseFd(*fd);
  }
  // An intact frame of the retired stats tag (3) is an unknown type: the
  // connection is dropped without a reply.
  {
    auto fd = net::ConnectUnix(opts.socket_path);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(WriteFrame(*fd, MsgType(3), {}).ok());
    uint8_t buf;
    EXPECT_FALSE(net::RecvAll(*fd, &buf, 1).ok());
    net::CloseFd(*fd);
  }
  // An intact frame of the retired FNV-1a layout (magic "EKFR", u64
  // Checksum64 trailer) carrying a valid invoke: an old peer fails
  // closed on the magic, without a reply and without a charge.
  {
    const std::vector<uint8_t> body =
        EncodeInvokeRequest(IdentityRequest("alpha", 0.1));
    store::ByteWriter w;
    w.Raw(reinterpret_cast<const uint8_t*>("EKFR"), 4);
    w.U8(uint8_t(MsgType::kInvoke));
    w.U32(uint32_t(body.size()));
    w.Raw(body.data(), body.size());
    w.U64(store::Checksum64(body));
    const uint64_t received = ServeEvents("received");
    auto fd = net::ConnectUnix(opts.socket_path);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(net::SendAll(*fd, w.bytes().data(), w.bytes().size()).ok());
    uint8_t buf;
    EXPECT_FALSE(net::RecvAll(*fd, &buf, 1).ok());
    net::CloseFd(*fd);
    EXPECT_EQ(ServeEvents("received"), received);
  }
  // An intact invoke frame whose type byte flipped into one of the
  // payload-free requests (1 ^ 4 = kShutdown; kStatsProm and kTrace
  // alike) is dropped without a reply and without acting on it: the
  // daemon keeps serving, and nothing is received or charged.
  for (MsgType flipped :
       {MsgType::kShutdown, MsgType::kStatsProm, MsgType::kTrace}) {
    const uint64_t received = ServeEvents("received");
    auto fd = net::ConnectUnix(opts.socket_path);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(WriteFrame(*fd, flipped,
                           EncodeInvokeRequest(IdentityRequest("alpha", 0.1)))
                    .ok());
    uint8_t buf;
    EXPECT_FALSE(net::RecvAll(*fd, &buf, 1).ok());
    net::CloseFd(*fd);
    EXPECT_EQ(ServeEvents("received"), received);
  }
  // An intact frame whose invoke payload is garbage gets kBadRequest
  // on the same (still healthy) connection.
  {
    auto fd = net::ConnectUnix(opts.socket_path);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(
        WriteFrame(*fd, MsgType::kInvoke, {0xDE, 0xAD, 0xBE, 0xEF}).ok());
    MsgType type;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(ReadFrame(*fd, &type, &payload).ok());
    EXPECT_EQ(type, MsgType::kInvokeReply);
    InvokeReply reply;
    ASSERT_TRUE(DecodeInvokeReply(payload, &reply));
    EXPECT_EQ(reply.code, ReplyCode::kBadRequest);
    net::CloseFd(*fd);
  }
  // Bad requests (unknown tenant / plan / absurd eps) refuse cleanly.
  auto client = Client::Connect(opts.socket_path);
  ASSERT_TRUE(client.ok());
  auto reply = client->Invoke(IdentityRequest("ghost", 0.1));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->code, ReplyCode::kBadRequest);
  reply = client->Invoke(IdentityRequest("alpha", -1.0));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->code, ReplyCode::kBadRequest);
  // dims whose product wraps around size_t to the 128-cell domain
  // (2^64 + 128) must not pass as a match and reach the plan.
  InvokeRequest wrapped = IdentityRequest("alpha", 0.1);
  wrapped.plan = "QuadTree";
  wrapped.dims = {(std::size_t{1} << 57) + 1, 128};
  reply = client->Invoke(wrapped);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->code, ReplyCode::kBadRequest);
  // And the server still serves real work afterwards.
  reply = client->Invoke(IdentityRequest("alpha", 0.1));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->code, ReplyCode::kOk);
  (*server)->Stop();
  Cleanup(opts);
}

// A non-finite known total is a malformed request: refused at
// validation, before the ledger records a charge or a refund.
TEST(Server, NonFiniteKnownTotalRefusedBeforeCharging) {
  ServerOptions opts = BaseOptions("knowntotal");
  auto server = Server::Start(opts, {MakeTenant("alpha", 41, 1.0)});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = Client::Connect(opts.socket_path);
  ASSERT_TRUE(client.ok());
  const uint64_t refused_bad0 = ServeEvents("refused_bad");
  const uint64_t appends0 = RegistryCounter("ektelo_ledger_appends", "");

  for (double total : {std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::quiet_NaN()}) {
    InvokeRequest req = IdentityRequest("alpha", 0.1);
    req.plan = "MWEM";
    req.known_total = total;
    auto reply = client->Invoke(req);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->code, ReplyCode::kBadRequest) << reply->message;
    EXPECT_EQ(reply->eps_charged, 0.0);
  }
  EXPECT_EQ(ServeEvents("refused_bad") - refused_bad0, 2u);
  EXPECT_EQ(RegistryCounter("ektelo_ledger_appends", ""), appends0);
  EXPECT_EQ((*server)->ledger().Balance("alpha")->spent, 0.0);
  (*server)->Stop();
  Cleanup(opts);
}

TEST(Server, BoundedQueueRefusesOverloadWithQueueFull) {
  ServerOptions opts = BaseOptions("qfull");
  opts.workers = 1;
  opts.queue_capacity = 1;
  opts.test_execution_delay_ms = 300;
  auto server = Server::Start(opts, {MakeTenant("alpha", 41, 8.0)});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const uint64_t refused_queue0 = ServeEvents("refused_queue");

  constexpr int kClients = 6;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0}, queue_full{0};
  for (int i = 0; i < kClients; ++i)
    threads.emplace_back([&, i] {
      auto client = Client::Connect(opts.socket_path);
      ASSERT_TRUE(client.ok());
      // Distinct eps so no two requests share a content hash, and no
      // coalescing: every request needs a queue slot of its own.
      InvokeRequest req = IdentityRequest("alpha", 0.1 + 0.01 * i);
      req.coalesce = false;
      auto reply = client->Invoke(req);
      ASSERT_TRUE(reply.ok());
      if (reply->code == ReplyCode::kOk) ++ok;
      if (reply->code == ReplyCode::kQueueFull) ++queue_full;
    });
  for (auto& th : threads) th.join();

  // One in flight + one queued; the rest of the burst must bounce.
  EXPECT_GT(queue_full.load(), 0);
  EXPECT_GT(ok.load(), 0);
  EXPECT_EQ(ok.load() + queue_full.load(), kClients);
  // A refused request costs nothing.
  EXPECT_EQ(ServeEvents("refused_queue") - refused_queue0,
            std::uint64_t(queue_full.load()));
  (*server)->Stop();
  Cleanup(opts);
}

#if EKTELO_FAILPOINTS_ENABLED
TEST(Server, LedgerIoErrorFailsRequestClosedWithDurabilityError) {
  failpoint::Registry::Global().Reset();
  ServerOptions opts = BaseOptions("durability");
  auto server = Server::Start(opts, {MakeTenant("alpha", 41, 1.0)});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = Client::Connect(opts.socket_path);
  ASSERT_TRUE(client.ok());
  const uint64_t refused_durability0 = ServeEvents("refused_durability");

  // The ledger volume goes bad: the charge append fails, so the server
  // must refuse (nothing released) rather than hand out an uncharged
  // answer.  The advisory CanCharge pre-check does no I/O, so the
  // request reaches the authoritative worker-side Charge.
  ASSERT_TRUE(
      failpoint::Registry::Global().Arm("ledger.append", "error.eio"));
  auto reply = client->Invoke(IdentityRequest("alpha", 0.1));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->code, ReplyCode::kDurabilityError);
  EXPECT_TRUE(reply->estimate.empty());
  EXPECT_DOUBLE_EQ(reply->eps_charged, 0.0);

  // The failure is per-request, not a poisoned server: heal the disk
  // and the same request succeeds, with the refusal counted.
  failpoint::Registry::Global().Reset();
  reply = client->Invoke(IdentityRequest("alpha", 0.1));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->code, ReplyCode::kOk);
  EXPECT_EQ(ServeEvents("refused_durability") - refused_durability0, 1u);
  EXPECT_DOUBLE_EQ((*server)->ledger().Balance("alpha")->spent, 0.1);
  (*server)->Stop();
  Cleanup(opts);
}
#endif  // EKTELO_FAILPOINTS_ENABLED

TEST(Server, StaleQueuedRequestsRefusedAtTheDeadlineBeforeCharging) {
  ServerOptions opts = BaseOptions("deadline");
  opts.workers = 1;
  opts.queue_capacity = 4;
  opts.test_execution_delay_ms = 200;  // first request holds the worker
  opts.request_deadline_ms = 50;       // queued ones go stale behind it
  auto server = Server::Start(opts, {MakeTenant("alpha", 41, 8.0)});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const uint64_t refused_deadline0 = ServeEvents("refused_deadline");

  constexpr int kClients = 3;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0}, deadline{0};
  for (int i = 0; i < kClients; ++i)
    threads.emplace_back([&, i] {
      auto client = Client::Connect(opts.socket_path);
      ASSERT_TRUE(client.ok());
      InvokeRequest req = IdentityRequest("alpha", 0.1 + 0.01 * i);
      req.coalesce = false;
      auto reply = client->Invoke(req);
      ASSERT_TRUE(reply.ok());
      if (reply->code == ReplyCode::kOk) ++ok;
      if (reply->code == ReplyCode::kDeadlineExceeded) ++deadline;
    });
  for (auto& th : threads) th.join();

  // Whoever grabbed the worker first finishes; everyone stuck in queue
  // for 200ms blew the 50ms deadline and was refused pre-charge.
  EXPECT_GT(ok.load(), 0);
  EXPECT_GT(deadline.load(), 0);
  EXPECT_EQ(ok.load() + deadline.load(), kClients);
  EXPECT_EQ(ServeEvents("refused_deadline") - refused_deadline0,
            std::uint64_t(deadline.load()));
  // A deadline refusal charges nothing.
  const double spent = (*server)->ledger().Balance("alpha")->spent;
  EXPECT_LT(spent, 0.1 + 0.01 * kClients);
  (*server)->Stop();
  Cleanup(opts);
}

TEST(Client, ReadTimeoutSurfacesDeadlineExceededAfterRetries) {
  // A listener that accepts but never replies: every attempt must end
  // in kDeadlineExceeded, and the retry loop must give up cleanly.
  const std::string path = FreshSock("timeout");
  auto listener = net::UnixListener::Bind(path);
  ASSERT_TRUE(listener.ok());

  ClientOptions copts;
  copts.connect_timeout_ms = 1000;
  copts.read_timeout_ms = 50;
  copts.max_retries = 2;
  copts.backoff_base_ms = 1;
  copts.backoff_cap_ms = 4;
  auto client = Client::Connect(path, copts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  InvokeRequest req = IdentityRequest("alpha", 0.1);
  ASSERT_TRUE(req.coalesce);  // retryable-by-coalescing
  auto reply = client->Invoke(req);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded);

  // The metrics scrape is read-only and retries too, with the same
  // terminal status.
  auto stats = client->StatsProm();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kDeadlineExceeded);
  fs::remove(path);
}

TEST(Server, TraceCapturesFullRequestLifecycle) {
  obs::SetTraceEnabled(true);
  ServerOptions opts = BaseOptions("trace");
  auto server = Server::Start(opts, {MakeTenant("alpha", 41, 2.0)});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = Client::Connect(opts.socket_path);
  ASSERT_TRUE(client.ok());

  InvokeRequest req = IdentityRequest("alpha", 0.25, /*request_id=*/99);
  req.plan = "H2";  // hierarchy + inference: exercises every subsystem
  auto reply = client->Invoke(req);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->code, ReplyCode::kOk);

  // The daemon's trace endpoint returns Chrome trace_event JSON.
  auto json = client->Trace();
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_EQ(json->rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json->find("\"serve.execute\""), std::string::npos);

  // The published trace spans the whole lifecycle: queue wait, charge,
  // execution, plus plan / rewrite / cache / solver work underneath.
  const auto traces = obs::TraceStore::Global().Latest(1);
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0]->request_id, "99");
  std::set<std::string> span_types;
  for (const obs::TraceEvent& ev : traces[0]->Events())
    span_types.insert(ev.name);
  EXPECT_TRUE(span_types.count("serve.queue_wait")) << json->substr(0, 400);
  EXPECT_TRUE(span_types.count("serve.charge"));
  EXPECT_TRUE(span_types.count("serve.execute"));
  EXPECT_GE(span_types.size(), 6u);

  (*server)->Stop();
  obs::SetTraceEnabled(false);
  Cleanup(opts);
}

TEST(Server, RepliesBitwiseIdenticalWithTracingOnOrOff) {
  InvokeRequest req = IdentityRequest("alpha", 0.25, /*request_id=*/1);
  req.plan = "H2";
  Vec off_estimate;
  {
    obs::SetTraceEnabled(false);
    ServerOptions opts = BaseOptions("bitoff");
    auto server = Server::Start(opts, {MakeTenant("alpha", 41, 2.0)});
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    auto client = Client::Connect(opts.socket_path);
    ASSERT_TRUE(client.ok());
    auto reply = client->Invoke(req);
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply->code, ReplyCode::kOk);
    off_estimate = reply->estimate;
    (*server)->Stop();
    Cleanup(opts);
  }
  {
    obs::SetTraceEnabled(true);
    ServerOptions opts = BaseOptions("biton");
    auto server = Server::Start(opts, {MakeTenant("alpha", 41, 2.0)});
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    auto client = Client::Connect(opts.socket_path);
    ASSERT_TRUE(client.ok());
    auto reply = client->Invoke(req);
    obs::SetTraceEnabled(false);
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply->code, ReplyCode::kOk);
    ASSERT_EQ(reply->estimate.size(), off_estimate.size());
    EXPECT_EQ(std::memcmp(reply->estimate.data(), off_estimate.data(),
                          off_estimate.size() * sizeof(double)),
              0);
    (*server)->Stop();
    Cleanup(opts);
  }
}

TEST(Server, PrometheusStatsEndpointExposesServeCounters) {
  ServerOptions opts = BaseOptions("prom");
  auto server = Server::Start(opts, {MakeTenant("alpha", 41, 1.0)});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = Client::Connect(opts.socket_path);
  ASSERT_TRUE(client.ok());
  auto reply = client->Invoke(IdentityRequest("alpha", 0.1));
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->code, ReplyCode::kOk);

  auto text = client->StatsProm();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("# TYPE ektelo_serve_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text->find("ektelo_serve_requests_total{event=\"executed\"}"),
            std::string::npos);
  // Scrape-time gauges carry the tenant's durable balances, the one
  // charge included.
  EXPECT_NE(
      text->find(
          "ektelo_tenant_budget_eps{tenant=\"alpha\",kind=\"total\"} 1\n"),
      std::string::npos);
  EXPECT_NE(
      text->find(
          "ektelo_tenant_budget_eps{tenant=\"alpha\",kind=\"spent\"} 0.1\n"),
      std::string::npos)
      << *text;
  (*server)->Stop();
  Cleanup(opts);
}

// A 16x16 grid tenant over a two-attribute table, for the 2D plans.
TenantSpec MakeGridTenant(const std::string& name, uint64_t seed,
                          double eps_total) {
  constexpr std::size_t kSide = 16;
  Rng rng{seed};
  const Vec hist = MakeHistogram2D(kSide, kSide, /*scale=*/3000.0, &rng);
  Table table(Schema({{"x", kSide}, {"y", kSide}}));
  for (std::size_t i = 0; i < hist.size(); ++i) {
    const auto count = static_cast<std::size_t>(std::llround(hist[i]));
    for (std::size_t c = 0; c < count; ++c)
      table.AppendRow({uint32_t(i / kSide), uint32_t(i % kSide)});
  }
  return TenantSpec{name, std::move(table), seed, eps_total};
}

// FNV-1a over raw bytes: a digest defined here, so no library change
// can move it without also moving the replies.
uint64_t Fnv1a(uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001B3ull;
  return h;
}

// Pins the server's answers: a digest of the reply bits for twelve fixed
// requests over one 1D and one 2D tenant.  A change to the kernel, the
// plans or the serve path that alters any released estimate fails here.
// On a deliberate change, update kGolden from the failure message.
TEST(Server, GoldenReplyDigest) {
  constexpr uint64_t kGolden = 0x72751b452536687dull;
  const std::vector<RangeQuery> line = {{0, 127}, {3, 40}, {64, 64},
                                        {90, 120}};
  const std::vector<RangeQuery> grid = {{0, 255}, {17, 80}, {128, 200}};
  struct Shape {
    const char* tenant;
    const char* plan;
    double eps;
    std::vector<std::size_t> dims;
    std::size_t stripe_dim;
  };
  const Shape shapes[] = {
      {"line", "Identity", 0.1, {128}, 0},
      {"line", "H2", 0.1, {128}, 0},
      {"line", "HB", 0.2, {128}, 0},
      {"line", "Privelet", 0.1, {128}, 0},
      {"line", "DAWA", 0.2, {128}, 0},
      {"line", "MWEM", 0.3, {128}, 0},
      {"grid", "Identity", 0.1, {16, 16}, 0},
      {"grid", "UniformGrid", 0.2, {16, 16}, 0},
      {"grid", "QuadTree", 0.1, {16, 16}, 0},
      {"grid", "HB-Striped", 0.2, {16, 16}, 1},
      {"grid", "DAWA-Striped", 0.1, {16, 16}, 0},
      {"grid", "AdaptiveGrid", 0.2, {16, 16}, 0},
  };

  ServerOptions opts = BaseOptions("golden");
  std::vector<TenantSpec> tenants;
  tenants.push_back(MakeTenant("line", 41, 10.0));
  tenants.push_back(MakeGridTenant("grid", 47, 10.0));
  const double line_total = double(tenants[0].table.NumRows());
  auto server = Server::Start(opts, std::move(tenants));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = Client::Connect(opts.socket_path);
  ASSERT_TRUE(client.ok());

  uint64_t digest = 0xCBF29CE484222325ull;
  uint64_t id = 0;
  for (const Shape& s : shapes) {
    SCOPED_TRACE(std::string(s.plan) + "@" + s.tenant);
    InvokeRequest req;
    req.request_id = ++id;
    req.tenant = s.tenant;
    req.plan = s.plan;
    req.eps = s.eps;
    req.dims = s.dims;
    req.ranges = std::string(s.tenant) == "line" ? line : grid;
    req.stripe_dim = s.stripe_dim;
    if (std::string(s.plan) == "MWEM") req.known_total = line_total;
    auto reply = client->Invoke(req);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply->code, ReplyCode::kOk) << reply->message;
    const uint64_t n = reply->estimate.size();
    digest = Fnv1a(digest, &n, sizeof(n));
    digest = Fnv1a(digest, reply->estimate.data(), n * sizeof(double));
  }
  (*server)->Stop();
  Cleanup(opts);

  char hex[24];
  std::snprintf(hex, sizeof(hex), "0x%016llx", (unsigned long long)digest);
  EXPECT_EQ(digest, kGolden) << "reply digest is " << hex;
}

/// Sets environment variables for one scope and restores the previous
/// values (or absence) on exit.
class ScopedEnv {
 public:
  ScopedEnv(std::initializer_list<std::pair<const char*, const char*>> vars) {
    for (const auto& [name, value] : vars) {
      const char* old = std::getenv(name);
      saved_.push_back({name, old != nullptr, old != nullptr ? old : ""});
      ::setenv(name, value, 1);
    }
  }
  ~ScopedEnv() {
    for (const Saved& s : saved_) {
      if (s.had)
        ::setenv(s.name, s.value.c_str(), 1);
      else
        ::unsetenv(s.name);
    }
  }

 private:
  struct Saved {
    const char* name;
    bool had;
    std::string value;
  };
  std::vector<Saved> saved_;
};

// Out-of-range numeric settings warn and keep the default instead of
// wrapping: strtoull saturates on overflow, and the *_MS fields are ints.
TEST(ServeEnv, OutOfRangeValuesKeepTheDefaults) {
  ServerOptions defaults;
  defaults.workers = 3;
  defaults.queue_capacity = 17;
  defaults.request_deadline_ms = 250;
  defaults.slow_ms = 40;
  {
    ScopedEnv env({{"EKTELO_SERVE_WORKERS", "99999999999999999999"},
                   {"EKTELO_SERVE_QUEUE", "18446744073709551616"},
                   {"EKTELO_SERVE_DEADLINE_MS", "4294967346"},
                   {"EKTELO_SERVE_SLOW_MS", "2147483648"}});
    const ServerOptions got = ApplyServeEnv(defaults);
    EXPECT_EQ(got.workers, 3u);
    EXPECT_EQ(got.queue_capacity, 17u);
    EXPECT_EQ(got.request_deadline_ms, 250);
    EXPECT_EQ(got.slow_ms, 40);
  }
  {
    // The largest accepted values still parse.
    ScopedEnv env({{"EKTELO_SERVE_QUEUE", "18446744073709551615"},
                   {"EKTELO_SERVE_DEADLINE_MS", "2147483647"},
                   {"EKTELO_SERVE_SLOW_MS", "7"}});
    const ServerOptions got = ApplyServeEnv(defaults);
    EXPECT_EQ(uint64_t(got.queue_capacity), 18446744073709551615ull);
    EXPECT_EQ(got.request_deadline_ms, 2147483647);
    EXPECT_EQ(got.slow_ms, 7);
  }
}

// The frame layout on the wire, byte for byte: a 9-byte header (magic
// "EKFC", type, payload length, little-endian), the payload, and its
// 4-byte CRC32C.  The large payload overflows the socket buffer, so the
// gather write resumes mid-span.
TEST(Protocol, WriteFrameBytesOnTheWire) {
  for (std::size_t n : {std::size_t{0}, std::size_t{5},
                        std::size_t{700} << 10}) {
    SCOPED_TRACE("payload bytes=" + std::to_string(n));
    std::vector<uint8_t> payload(n);
    for (std::size_t i = 0; i < n; ++i) payload[i] = uint8_t(i * 131 % 251);
    std::vector<uint8_t> want = {0x45, 0x4B, 0x46, 0x43,
                                 uint8_t(MsgType::kInvokeReply)};
    for (int b = 0; b < 4; ++b) want.push_back(uint8_t(n >> (8 * b)));
    want.insert(want.end(), payload.begin(), payload.end());
    const uint32_t sum =
        simd::GetScalarTable()->crc32c(payload.data(), payload.size());
    for (int b = 0; b < 4; ++b) want.push_back(uint8_t(sum >> (8 * b)));

    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    Status sent;
    std::thread writer(
        [&] { sent = WriteFrame(fds[0], MsgType::kInvokeReply, payload); });
    std::vector<uint8_t> got(want.size());
    const Status read = net::RecvAll(fds[1], got.data(), got.size());
    writer.join();
    net::CloseFd(fds[0]);
    ASSERT_TRUE(sent.ok()) << sent.ToString();
    ASSERT_TRUE(read.ok()) << read.ToString();
    // Nothing beyond the frame: the peer sees EOF right after it.
    uint8_t extra;
    EXPECT_EQ(net::RecvAll(fds[1], &extra, 1).code(),
              StatusCode::kUnavailable);
    net::CloseFd(fds[1]);
    EXPECT_TRUE(got == want);
  }
}

constexpr std::size_t kFrameHeaderBytes = 9;
constexpr std::size_t kFrameTrailerBytes = 4;

// The bytes WriteFrame puts on the wire for one frame.
std::vector<uint8_t> FrameBytes(MsgType type,
                                const std::vector<uint8_t>& payload) {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread writer([&] {
    EXPECT_TRUE(WriteFrame(fds[0], type, payload).ok());
    net::CloseFd(fds[0]);
  });
  std::vector<uint8_t> frame(kFrameHeaderBytes + payload.size() +
                             kFrameTrailerBytes);
  EXPECT_TRUE(net::RecvAll(fds[1], frame.data(), frame.size()).ok());
  writer.join();
  net::CloseFd(fds[1]);
  return frame;
}

// Pushes raw bytes through a socketpair into ReadFrame.  The writer
// closes its end after the last byte, so a frame that claims more bytes
// than arrive ends in a mid-frame EOF rather than a hang.
Status ReadFrameFrom(const std::vector<uint8_t>& bytes, MsgType* type,
                     std::vector<uint8_t>* payload) {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread writer([&] {
    // Fails with EPIPE when ReadFrame gives up first; that is expected.
    (void)net::SendAll(fds[0], bytes.data(), bytes.size());
    net::CloseFd(fds[0]);
  });
  const Status s = ReadFrame(fds[1], type, payload);
  net::CloseFd(fds[1]);
  writer.join();
  return s;
}

void FlipBit(std::vector<uint8_t>* bytes, std::size_t bit) {
  (*bytes)[bit / 8] ^= uint8_t(1u << (bit % 8));
}

// Every single-bit flip of a 64-byte frame's payload or CRC32C trailer
// is refused as a checksum mismatch.  (The header is not under the
// checksum: its magic and length fail on their own.)
TEST(Protocol, ReadFrameRefusesEverySingleBitFlip) {
  std::vector<uint8_t> payload(64);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = uint8_t(i * 37 + 11);
  const std::vector<uint8_t> frame =
      FrameBytes(MsgType::kInvokeReply, payload);
  MsgType type;
  std::vector<uint8_t> got;
  ASSERT_TRUE(ReadFrameFrom(frame, &type, &got).ok());
  ASSERT_TRUE(got == payload);
  for (std::size_t bit = kFrameHeaderBytes * 8; bit < frame.size() * 8;
       ++bit) {
    std::vector<uint8_t> bad = frame;
    FlipBit(&bad, bit);
    const Status s = ReadFrameFrom(bad, &type, &got);
    ASSERT_EQ(s.code(), StatusCode::kInvalidArgument) << "bit " << bit;
    ASSERT_EQ(s.message(), "frame checksum mismatch") << "bit " << bit;
  }
}

// CRC32C detects every error burst of up to 32 bits.  Seeded bursts
// (first and last bit flipped, the bits between at random) at the start
// of the payload, in its middle, and across its end into the trailer of
// a 700 KiB frame, larger than the socket buffer.
TEST(Protocol, ReadFrameRefusesBurstsOfUpTo32Bits) {
  std::vector<uint8_t> payload(std::size_t{700} << 10);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = uint8_t(i * 131 % 251);
  const std::vector<uint8_t> frame =
      FrameBytes(MsgType::kInvokeReply, payload);
  const std::size_t bits = frame.size() * 8;
  const std::size_t starts[] = {kFrameHeaderBytes * 8,
                                kFrameHeaderBytes * 8 + payload.size() * 4,
                                bits - (kFrameTrailerBytes + 8) * 8};
  Rng rng(32);
  MsgType type;
  std::vector<uint8_t> got;
  for (std::size_t region : starts) {
    for (int trial = 0; trial < 8; ++trial) {
      const std::size_t len = std::size_t(rng.UniformInt(1, 32));
      const std::size_t first = std::min<std::size_t>(
          region + std::size_t(rng.UniformInt(0, 63)), bits - len);
      std::vector<uint8_t> bad = frame;
      FlipBit(&bad, first);
      if (len > 1) FlipBit(&bad, first + len - 1);
      for (std::size_t b = first + 1; b + 1 < first + len; ++b)
        if (rng.UniformInt(0, 1) == 1) FlipBit(&bad, b);
      const Status s = ReadFrameFrom(bad, &type, &got);
      ASSERT_EQ(s.code(), StatusCode::kInvalidArgument)
          << "burst of " << len << " bits at bit " << first;
    }
  }
}

// One seeded mutation of a frame or payload: flipped bits, a
// truncation, an edited length field (the frame's u32 at byte 5 when
// `frame`, otherwise a u64 overwritten at a random offset, where the
// payloads keep their string, vector and count lengths), or inserted
// bytes.
std::vector<uint8_t> Mutate(std::vector<uint8_t> m, bool frame, Rng* rng) {
  const auto pick = [rng](std::size_t n) {
    return std::size_t(rng->UniformInt(0, int64_t(n) - 1));
  };
  switch (rng->UniformInt(0, 3)) {
    case 0: {
      const int64_t flips = rng->UniformInt(1, 8);
      for (int64_t i = 0; i < flips && !m.empty(); ++i)
        FlipBit(&m, pick(m.size() * 8));
      break;
    }
    case 1:
      if (!m.empty()) m.resize(pick(m.size()));
      break;
    case 2: {
      const std::size_t at = frame ? 5 : pick(m.size() + 1);
      const std::size_t width = frame ? 4 : 8;
      uint64_t was = 0;
      for (std::size_t b = 0; b < width && at + b < m.size(); ++b)
        was |= uint64_t(m[at + b]) << (8 * b);
      const uint64_t values[] = {0,
                                 1,
                                 was - 1,
                                 was + 1,
                                 was * 2,
                                 was / 2,
                                 uint64_t(kMaxPayloadBytes),
                                 uint64_t(kMaxPayloadBytes) + 1,
                                 ~uint64_t{0},
                                 uint64_t(rng->UniformInt(0, INT64_MAX))};
      const uint64_t v = values[pick(std::size(values))];
      for (std::size_t b = 0; b < width && at + b < m.size(); ++b)
        m[at + b] = uint8_t(v >> (8 * b));
      break;
    }
    default: {
      const std::size_t at = pick(m.size() + 1);
      const std::size_t n = std::size_t(rng->UniformInt(1, 16));
      std::vector<uint8_t> extra(n);
      for (auto& b : extra) b = uint8_t(rng->UniformInt(0, 255));
      m.insert(m.begin() + std::ptrdiff_t(at), extra.begin(), extra.end());
      break;
    }
  }
  return m;
}

// The decoder of a message type's payload must either refuse the bytes
// or decode them to a message that re-encodes to exactly those bytes.
// Types without a payload decoder must carry the original payload
// unchanged (the checksum held).
::testing::AssertionResult FailsClosedOrRoundTrips(
    MsgType type, const std::vector<uint8_t>& payload,
    const std::vector<uint8_t>& original) {
  std::vector<uint8_t> again;
  switch (type) {
    case MsgType::kInvoke: {
      InvokeRequest req;
      if (!DecodeInvokeRequest(payload, &req))
        return ::testing::AssertionSuccess();
      again = EncodeInvokeRequest(req);
      break;
    }
    case MsgType::kInvokeReply: {
      InvokeReply reply;
      if (!DecodeInvokeReply(payload, &reply))
        return ::testing::AssertionSuccess();
      again = EncodeInvokeReply(reply);
      break;
    }
    case MsgType::kStatsPromReply:
    case MsgType::kTraceReply: {
      std::string text;
      if (!DecodeTextReply(payload, &text))
        return ::testing::AssertionSuccess();
      again = EncodeTextReply(text);
      break;
    }
    default:
      again = original;
      break;
  }
  if (again == payload) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "type " << int(type) << ": " << payload.size()
         << " bytes accepted, re-encoded as " << again.size()
         << " different bytes";
}

// Seeded mutation loop over every decoder of wire bytes: valid Invoke,
// InvokeReply and text-reply frames are mutated and pushed through a
// socketpair into ReadFrame and then the payload decoders, and the
// payloads are also mutated and decoded directly, bypassing the
// checksum.  Every case must fail closed or round-trip exactly.  The
// seeds are fixed; they are not tuned.
TEST(Protocol, MutatedFramesAndPayloadsFailClosedOrRoundTrip) {
  InvokeRequest req;
  req.request_id = 77;
  req.tenant = "alpha";
  req.plan = "HB-Striped";
  req.eps = 0.25;
  req.dims = {16, 8};
  req.ranges = {{0, 127}, {3, 40}, {64, 64}};
  req.known_total = 1000.0;
  req.stripe_dim = 1;
  req.mode = 1;
  InvokeReply reply;
  reply.request_id = 77;
  reply.message = "ok";
  reply.coalesced = true;
  reply.eps_charged = 0.25;
  reply.estimate = Vec(24);
  for (std::size_t i = 0; i < reply.estimate.size(); ++i)
    reply.estimate[i] = 0.5 * double(i) - 3.0;
  const std::pair<MsgType, std::vector<uint8_t>> seeds[] = {
      {MsgType::kInvoke, EncodeInvokeRequest(req)},
      {MsgType::kInvokeReply, EncodeInvokeReply(reply)},
      {MsgType::kStatsPromReply,
       EncodeTextReply("ektelo_serve_requests_total{event=\"executed\"} 3\n")},
  };
  constexpr int kMutationsPerSeed = 400;
  uint64_t seed = 1;
  for (const auto& [type, payload] : seeds) {
    SCOPED_TRACE("seed frame type " + std::to_string(int(type)));
    ASSERT_TRUE(FailsClosedOrRoundTrips(type, payload, payload));
    const std::vector<uint8_t> frame = FrameBytes(type, payload);
    Rng rng(seed++);
    for (int i = 0; i < kMutationsPerSeed; ++i) {
      const std::vector<uint8_t> bad = Mutate(frame, /*frame=*/true, &rng);
      MsgType got_type;
      std::vector<uint8_t> got;
      if (ReadFrameFrom(bad, &got_type, &got).ok()) {
        ASSERT_TRUE(FailsClosedOrRoundTrips(got_type, got, payload))
            << "frame mutation " << i;
      }
      const std::vector<uint8_t> body = Mutate(payload, /*frame=*/false, &rng);
      ASSERT_TRUE(FailsClosedOrRoundTrips(type, body, payload))
          << "payload mutation " << i;
    }
  }
}

// The text-blob payload the metrics scrape and the trace endpoint use
// round-trips exactly, and the decoder rejects any truncation or
// trailing byte instead of reading past or short of the layout.
TEST(Protocol, TextReplyRoundTrip) {
  const std::string text =
      "# TYPE ektelo_serve_requests_total counter\n"
      "ektelo_serve_requests_total{event=\"executed\"} 3\n";
  const std::vector<uint8_t> bytes = EncodeTextReply(text);
  std::string d;
  ASSERT_TRUE(DecodeTextReply(bytes, &d));
  EXPECT_EQ(d, text);

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::string t;
    EXPECT_FALSE(DecodeTextReply(
        std::vector<uint8_t>(bytes.begin(), bytes.begin() + len), &t))
        << "prefix len " << len;
  }
  std::vector<uint8_t> longer = bytes;
  longer.push_back(0);
  std::string t;
  EXPECT_FALSE(DecodeTextReply(longer, &t));
}

TEST(Client, ConnectTimeoutToBacklogOnlySocketIsBounded) {
  // Nobody is listening at all: connect must fail fast with a status,
  // not hang (ECONNREFUSED on a fresh path; the timeout bounds the rest).
  ClientOptions copts;
  copts.connect_timeout_ms = 100;
  copts.max_retries = 0;
  const auto t0 = std::chrono::steady_clock::now();
  auto client = Client::Connect("/tmp/ek_serve_nobody_home.sock", copts);
  EXPECT_FALSE(client.ok());
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

}  // namespace
}  // namespace ektelo::serve
