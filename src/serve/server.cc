#include "serve/server.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <list>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include <sys/socket.h>

#include "kernel/budget.h"
#include "kernel/handles.h"
#include "kernel/kernel.h"
#include "matrix/rewrite.h"
#include "obs/export.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plans/registry.h"
#include "store/serialize.h"
#include "util/bounded_queue.h"
#include "util/net.h"
#include "util/rng.h"

namespace ektelo::serve {

namespace {

/// Structural hash of a request's *content*: everything that shapes the
/// answer (plan, eps, domain, queries, totals, mode) and nothing that
/// does not (request_id, coalesce flag, tenant — the tenant enters the
/// noise seed separately).  Two requests with equal hashes are the same
/// query, so they may share one execution; the hash also keys the
/// per-execution noise stream, which is what makes replies bitwise
/// deterministic under any scheduling.
uint64_t RequestContentHash(const InvokeRequest& req) {
  store::ByteWriter w;
  w.U64(req.plan.size());
  w.Raw(reinterpret_cast<const uint8_t*>(req.plan.data()), req.plan.size());
  w.F64(req.eps);
  w.U64(req.dims.size());
  for (std::size_t d : req.dims) w.U64(d);
  w.U64(req.ranges.size());
  for (const RangeQuery& q : req.ranges) {
    w.U64(q.lo);
    w.U64(q.hi);
  }
  w.F64(req.known_total);
  w.U64(req.stripe_dim);
  w.U8(req.mode);
  return store::Checksum64(w.bytes());
}

std::string CoalesceKey(const std::string& tenant, uint64_t hash) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), ":%016llx", (unsigned long long)hash);
  return tenant + buf;
}

/// Strict numeric env parses: unparsable values, and values that overflow uint64 or exceed `max`,
/// warn on stderr and keep the default.
bool EnvU64(const char* name, uint64_t* out,
            uint64_t max = std::numeric_limits<uint64_t>::max()) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return false;
  if (*v >= '0' && *v <= '9') {
    char* end = nullptr;
    errno = 0;
    const unsigned long long parsed = std::strtoull(v, &end, 10);
    if (end != nullptr && *end == '\0') {
      if (errno != ERANGE && parsed <= max) {
        *out = parsed;
        return true;
      }
      std::fprintf(stderr, "ektelo: ignoring out-of-range %s=%s (max %llu)\n",
                   name, v, (unsigned long long)max);
      return false;
    }
  }
  std::fprintf(stderr, "ektelo: ignoring unparsable %s=%s\n", name, v);
  return false;
}

bool EnvF64(const char* name, double* out) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return false;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (end != v && end != nullptr && *end == '\0' && parsed >= 0.0) {
    *out = parsed;
    return true;
  }
  std::fprintf(stderr, "ektelo: ignoring unparsable %s=%s\n", name, v);
  return false;
}

/// Per-stage serve latency histograms, one label per lifecycle stage.
obs::Histogram& StageSeconds(const char* labels) {
  return obs::Registry::Global().GetHistogram(
      "ektelo_serve_stage_seconds",
      "Wall time of one serve request lifecycle stage", labels);
}
obs::Histogram& ValidateSeconds() {
  static obs::Histogram& h = StageSeconds("stage=\"validate\"");
  return h;
}
obs::Histogram& QueueWaitSeconds() {
  static obs::Histogram& h = StageSeconds("stage=\"queue_wait\"");
  return h;
}
obs::Histogram& ChargeSeconds() {
  static obs::Histogram& h = StageSeconds("stage=\"charge\"");
  return h;
}
obs::Histogram& ExecuteSeconds() {
  static obs::Histogram& h = StageSeconds("stage=\"execute\"");
  return h;
}
obs::Histogram& TotalSeconds() {
  static obs::Histogram& h = StageSeconds("stage=\"total\"");
  return h;
}

/// Serve request lifecycle counters, one `ektelo_serve_requests` series
/// per admission event.  The registry is their only home: they are
/// process-global and monotone across server restarts, so a per-server
/// count is the difference of two reads.
obs::Counter& ServeRequests(const char* event) {
  return obs::Registry::Global().GetCounter(
      "ektelo_serve_requests",
      "Serve request lifecycle outcomes, by admission event",
      std::string("event=\"") + event + "\"");
}
struct RequestCounters {
  obs::Counter& received = ServeRequests("received");
  obs::Counter& admitted = ServeRequests("admitted");
  obs::Counter& refused_budget = ServeRequests("refused_budget");
  obs::Counter& refused_queue = ServeRequests("refused_queue");
  obs::Counter& refused_bad = ServeRequests("refused_bad");
  obs::Counter& executed = ServeRequests("executed");
  obs::Counter& coalesced = ServeRequests("coalesced");
  obs::Counter& refused_durability = ServeRequests("refused_durability");
  obs::Counter& refused_deadline = ServeRequests("refused_deadline");
};
RequestCounters& Requests() {
  static RequestCounters c;
  return c;
}

}  // namespace

ServerOptions ApplyServeEnv(ServerOptions opts) {
  uint64_t u;
  if (EnvU64("EKTELO_SERVE_WORKERS", &u))
    opts.workers = std::max<std::size_t>(1, std::size_t(u));
  if (EnvU64("EKTELO_SERVE_QUEUE", &u))
    opts.queue_capacity = std::max<std::size_t>(1, std::size_t(u));
  if (EnvU64("EKTELO_SERVE_RESPONSE_CACHE", &u))
    opts.response_cache_entries = std::size_t(u);
  EnvF64("EKTELO_SERVE_MAX_EPS", &opts.max_eps);
  if (EnvU64("EKTELO_SERVE_FSYNC", &u)) opts.fsync_ledger = u != 0;
  constexpr uint64_t kIntMax = uint64_t(std::numeric_limits<int>::max());
  if (EnvU64("EKTELO_SERVE_DEADLINE_MS", &u, kIntMax))
    opts.request_deadline_ms = int(u);
  if (EnvU64("EKTELO_SERVE_SLOW_MS", &u, kIntMax)) opts.slow_ms = int(u);
  return opts;
}

struct Server::Impl {
  // ---- fixed at Start ----
  ServerOptions opts;
  struct Tenant {
    /// Frozen at Start: the table and its counts are built once and
    /// shared by every execution's kernel.
    std::shared_ptr<const PreparedTable> table;
    uint64_t seed = 0;
  };
  std::unordered_map<std::string, Tenant> tenants;
  std::vector<std::string> tenant_order;  // registration order
  std::unique_ptr<BudgetLedger> ledger;
  std::optional<net::UnixListener> listener;

  // ---- coalescing ----
  struct Inflight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    InvokeReply reply;  // the leader-shaped reply; followers re-stamp it

    void Publish(InvokeReply r) {
      {
        std::lock_guard<std::mutex> lock(mu);
        reply = std::move(r);
        done = true;
      }
      cv.notify_all();
    }
    InvokeReply Wait() {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done; });
      return reply;
    }
  };
  struct CachedAnswer {
    Vec estimate;
    std::list<std::string>::iterator lru_it;
  };
  std::mutex co_mu;  // guards inflight and the response cache
  std::unordered_map<std::string, std::shared_ptr<Inflight>> inflight;
  std::unordered_map<std::string, CachedAnswer> answers;
  std::list<std::string> answer_lru;  // front = most recent

  // ---- threads / lifecycle ----
  struct Task {
    InvokeRequest req;
    uint64_t hash = 0;
    std::string key;
    bool cacheable = false;
    std::shared_ptr<Inflight> fly;
    // Queue-entry time, for the per-request deadline check.
    std::chrono::steady_clock::time_point enqueued;
    // The leader's request trace (null when tracing is off): the worker
    // installs it so every span under execution lands in it.  The
    // shared_ptr keeps the trace alive however late the worker runs.
    std::shared_ptr<obs::RequestTrace> trace;
    // obs::NowNs() at enqueue, for the queue-wait span; 0 = disarmed.
    uint64_t enqueue_ns = 0;
  };
  std::unique_ptr<BoundedQueue<Task>> queue;
  std::vector<std::thread> workers;
  std::thread acceptor;
  std::mutex conn_mu;
  std::vector<std::thread> conn_threads;
  std::unordered_set<int> conn_fds;
  std::atomic<bool> stopping{false};
  std::mutex stop_mu;
  std::condition_variable stop_cv;
  bool stop_signaled = false;
  bool joined = false;

  // ------------------------------------------------------------ helpers

  /// Flips the server into shutdown mode (new invokes refuse with
  /// kShuttingDown, AcceptLoop winds down) and wakes WaitForShutdown /
  /// the daemon's stopped() poll.  Thread teardown stays in Stop().
  void SignalStop() {
    stopping.store(true);
    {
      std::lock_guard<std::mutex> lock(stop_mu);
      stop_signaled = true;
    }
    stop_cv.notify_all();
  }

  /// Response-cache lookup (co_mu held).  A hit is a free replay: the
  /// noisy answer it returns was already paid for when first computed.
  const CachedAnswer* CacheFind(const std::string& key) {
    auto it = answers.find(key);
    if (it == answers.end()) return nullptr;
    answer_lru.splice(answer_lru.begin(), answer_lru, it->second.lru_it);
    return &it->second;
  }

  void CacheInsert(const std::string& key, const Vec& estimate) {
    if (opts.response_cache_entries == 0) return;
    if (answers.count(key) != 0) return;
    answer_lru.push_front(key);
    answers[key] = {estimate, answer_lru.begin()};
    while (answers.size() > opts.response_cache_entries) {
      answers.erase(answer_lru.back());
      answer_lru.pop_back();
    }
  }

  /// Validation that needs no kernel and spends nothing.  Returns an
  /// explanation, or empty string when the request is well-formed.
  std::string Validate(const InvokeRequest& req) {
    if (req.tenant.empty() || tenants.count(req.tenant) == 0)
      return "unknown tenant \"" + req.tenant + "\"";
    const Plan* plan = PlanRegistry::Global().Find(req.plan);
    if (plan == nullptr) return "unknown plan \"" + req.plan + "\"";
    if (!(req.eps > 0.0) || !std::isfinite(req.eps))
      return "eps must be positive and finite";
    if (!std::isfinite(req.known_total)) return "known_total must be finite";
    if (opts.max_eps > 0.0 && req.eps > opts.max_eps)
      return "eps exceeds the per-request ceiling";
    if (req.mode > 2) return "bad matrix mode";
    const std::size_t domain =
        tenants.at(req.tenant).table->schema().TotalDomainSize();
    if (!req.dims.empty()) {
      for (std::size_t d : req.dims)
        if (d == 0) return "zero dimension";
      if (DimsProduct(req.dims) != domain)
        return "dims do not multiply out to the domain size";
    }
    for (const RangeQuery& q : req.ranges)
      if (q.lo > q.hi || q.hi >= domain) return "range out of domain";
    return "";
  }

  /// One fresh, deterministic execution.  The kernel seed is a pure
  /// function of (tenant seed, request content hash): identical requests
  /// reproduce bitwise, distinct requests draw unrelated noise, and no
  /// scheduling or coalescing decision can perturb either.
  StatusOr<Vec> Execute(const InvokeRequest& req, uint64_t hash) {
    const Plan* plan = PlanRegistry::Global().Find(req.plan);
    if (plan == nullptr) return Status::InvalidArgument("unknown plan");
    const Tenant& tenant = tenants.at(req.tenant);
    const uint64_t exec_seed = SplitMix64(tenant.seed ^ SplitMix64(hash));
    ProtectedKernel kernel(tenant.table, req.eps, exec_seed);
    ProtectedTable root = ProtectedTable::Root(&kernel);
    StatusOr<ProtectedVector> x = root.Vectorize();
    if (!x.ok()) return x.status();
    BudgetScope scope(req.eps);
    // Client-side randomness for plans that use it, derived from the
    // same lineage so it is equally schedule-independent.
    Rng rng(SplitMix64(exec_seed ^ 0xC11E57ull));
    PlanInput in;
    in.dims = req.dims;
    in.mode = MatrixMode(req.mode);
    in.rng = &rng;
    in.ranges = req.ranges;
    in.known_total = req.known_total;
    in.stripe_dim = req.stripe_dim;
    return plan->Execute(*x, scope, in);
  }

  // ------------------------------------------------------------ workers

  void ProcessTask(Task& t) {
    // Record into the leader's trace for the rest of this task; every
    // span below (charge, execute, and everything the plan opens) lands
    // in it.  All spans close before Publish wakes the leader, and the
    // Task's shared_ptr keeps the trace alive until then.
    obs::ScopedTraceContext tctx(t.trace.get());
    if (t.enqueue_ns != 0)
      obs::RecordManualSpan("serve.queue_wait", "serve", t.enqueue_ns,
                            obs::NowNs(), &QueueWaitSeconds());
    InvokeReply r;
    r.request_id = t.req.request_id;
    // Stale work is refused before the charge: epsilon spent on an
    // answer the client stopped waiting for is epsilon wasted.
    if (opts.request_deadline_ms > 0 &&
        std::chrono::steady_clock::now() - t.enqueued >
            std::chrono::milliseconds(opts.request_deadline_ms)) {
      r.code = ReplyCode::kDeadlineExceeded;
      r.message = "request exceeded the server deadline in queue";
      Requests().refused_deadline.Inc();
      {
        std::lock_guard<std::mutex> lock(co_mu);
        inflight.erase(t.key);
      }
      t.fly->Publish(std::move(r));
      return;
    }
    // Authoritative admission: the durable charge happens HERE, before
    // any kernel exists, and the answer is only released (published)
    // after the charge record is on disk.
    ChargeResult charge;
    {
      obs::Span charge_span("serve.charge", "serve", &ChargeSeconds());
      charge_span.Attr("eps", t.req.eps);
      charge = ledger->Charge(t.req.tenant, t.req.eps);
    }
    if (charge == ChargeResult::kIoError) {
      // Fail CLOSED: the ledger could not durably record the charge, so
      // no answer may be released.  (Charge-before-release means a torn
      // append can only ever over-count the spend, never under-count.)
      r.code = ReplyCode::kDurabilityError;
      r.message = "ledger write failed; request refused";
      Requests().refused_durability.Inc();
    } else if (charge == ChargeResult::kRefused) {
      r.code = ReplyCode::kBudgetExhausted;
      r.message = "tenant budget exhausted";
      Requests().refused_budget.Inc();
    } else {
      if (opts.test_execution_delay_ms > 0)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(opts.test_execution_delay_ms));
      StatusOr<Vec> est = [&] {
        obs::Span exec_span("serve.execute", "serve", &ExecuteSeconds());
        exec_span.Attr("eps", t.req.eps);
        return Execute(t.req, t.hash);
      }();
      if (!est.ok()) {
        // Nothing was released; return the epsilon to the tenant.
        ledger->Refund(t.req.tenant, t.req.eps);
        r.code = ReplyCode::kExecutionFailed;
        r.message = est.status().message();
      } else {
        r.code = ReplyCode::kOk;
        r.eps_charged = t.req.eps;
        r.estimate = std::move(est).value();
      }
    }
    {
      std::lock_guard<std::mutex> lock(co_mu);
      if (r.code == ReplyCode::kOk) {
        Requests().executed.Inc();
        if (t.cacheable) CacheInsert(t.key, r.estimate);
      }
      inflight.erase(t.key);
    }
    t.fly->Publish(std::move(r));
  }

  void WorkerLoop() {
    // Close() still delivers queued tasks, so every admitted request
    // gets a reply even across shutdown.
    while (std::optional<Task> t = queue->Pop()) ProcessTask(*t);
  }

  // -------------------------------------------------------- connections

  /// Observability shell around DoInvoke: opens the per-request trace
  /// (when armed) and the total-latency span, and emits the slow-request
  /// log line.  None of it can perturb the reply — spans and traces are
  /// write-only sinks, and the trace is published only after the reply
  /// bytes are final.
  InvokeReply HandleInvoke(InvokeRequest req) {
    std::shared_ptr<obs::RequestTrace> trace;
    if (obs::TraceEnabled()) {
      trace = std::make_shared<obs::RequestTrace>();
      trace->request_id = std::to_string(req.request_id);
      trace->tenant = req.tenant;
      trace->plan = req.plan;
    }
    obs::ScopedTraceContext tctx(trace.get());
    const uint64_t slow_t0 = opts.slow_ms > 0 ? obs::NowNs() : 0;
    const std::string tenant = req.tenant;  // req is consumed below
    const std::string plan = req.plan;
    const uint64_t rid = req.request_id;
    InvokeReply out;
    {
      obs::Span total("serve.request", "serve", &TotalSeconds());
      total.Attr("eps", req.eps);
      out = DoInvoke(std::move(req), trace);
    }
    if (slow_t0 != 0) {
      const double ms =
          static_cast<double>(obs::NowNs() - slow_t0) * 1e-6;
      if (ms > double(opts.slow_ms)) {
        char msbuf[32];
        std::snprintf(msbuf, sizeof(msbuf), "%.1f", ms);
        obs::Log(obs::Severity::kWarn, "serve_slow",
                 {{"tenant", tenant},
                  {"plan", plan},
                  {"request_id", std::to_string(rid)},
                  {"ms", msbuf},
                  {"code", std::to_string(int(out.code))}});
      }
    }
    if (trace != nullptr)
      obs::TraceStore::Global().Publish(std::move(trace));
    return out;
  }

  InvokeReply DoInvoke(InvokeRequest req,
                       const std::shared_ptr<obs::RequestTrace>& trace) {
    InvokeReply out;
    out.request_id = req.request_id;
    Requests().received.Inc();
    std::string err;
    {
      obs::Span vspan("serve.validate", "serve", &ValidateSeconds());
      err = Validate(req);
    }
    if (!err.empty()) {
      Requests().refused_bad.Inc();
      out.code = ReplyCode::kBadRequest;
      out.message = std::move(err);
      return out;
    }
    // Advisory fast path: refuse before any queue slot or kernel is
    // involved.  (Public-state decision — Alg. 2 refusals leak nothing.)
    if (!ledger->CanCharge(req.tenant, req.eps)) {
      Requests().refused_budget.Inc();
      out.code = ReplyCode::kBudgetExhausted;
      out.message = "tenant budget exhausted";
      return out;
    }

    const uint64_t hash = RequestContentHash(req);
    const std::string key = CoalesceKey(req.tenant, hash);
    std::shared_ptr<Inflight> fly;
    bool leader = true;
    if (req.coalesce) {
      std::lock_guard<std::mutex> lock(co_mu);
      if (const CachedAnswer* hit = CacheFind(key)) {
        Requests().coalesced.Inc();
        out.code = ReplyCode::kOk;
        out.coalesced = true;
        out.eps_charged = 0.0;  // replay of an already-charged answer
        out.estimate = hit->estimate;
        return out;
      }
      auto it = inflight.find(key);
      if (it != inflight.end()) {
        fly = it->second;
        leader = false;
      } else {
        fly = std::make_shared<Inflight>();
        inflight.emplace(key, fly);
      }
    } else {
      fly = std::make_shared<Inflight>();
    }

    if (leader) {
      Task task;
      task.req = req;
      task.hash = hash;
      task.key = key;
      task.cacheable = req.coalesce;
      task.fly = fly;
      task.enqueued = std::chrono::steady_clock::now();
      task.trace = trace;
      task.enqueue_ns = obs::ArmedFlags() != 0 ? obs::NowNs() : 0;
      if (!queue->TryPush(std::move(task))) {
        InvokeReply refusal;
        refusal.request_id = req.request_id;
        refusal.code = stopping.load() ? ReplyCode::kShuttingDown
                                       : ReplyCode::kQueueFull;
        refusal.message = stopping.load() ? "server shutting down"
                                          : "request queue full";
        Requests().refused_queue.Inc();
        if (req.coalesce) {
          std::lock_guard<std::mutex> lock(co_mu);
          inflight.erase(key);
        }
        // Followers that already joined this entry get the same refusal.
        fly->Publish(refusal);
        refusal.request_id = req.request_id;
        return refusal;
      }
      Requests().admitted.Inc();
    }

    out = fly->Wait();
    out.request_id = req.request_id;
    if (!leader) {
      out.coalesced = true;
      if (out.code == ReplyCode::kOk) out.eps_charged = 0.0;
      Requests().coalesced.Inc();
    }
    return out;
  }

  /// Prometheus scrape: counters and histograms are live already; only
  /// the scrape-time gauges (per-tenant budgets) need a refresh here.
  std::string BuildPromText() {
    obs::Registry& reg = obs::Registry::Global();
    for (const std::string& name : tenant_order) {
      if (auto b = ledger->Balance(name)) {
        reg.GetGauge("ektelo_tenant_budget_eps",
                     "Per-tenant durable epsilon budget",
                     "tenant=\"" + name + "\",kind=\"total\"")
            .Set(b->total);
        reg.GetGauge("ektelo_tenant_budget_eps",
                     "Per-tenant durable epsilon budget",
                     "tenant=\"" + name + "\",kind=\"spent\"")
            .Set(b->spent);
      }
    }
    return obs::PrometheusText(reg);
  }

  void ServeConnection(int fd) {
    for (;;) {
      MsgType type;
      std::vector<uint8_t> payload;
      Status st = ReadFrame(fd, &type, &payload);
      if (!st.ok()) break;  // clean close or poisoned stream: drop it
      if (type == MsgType::kInvoke) {
        InvokeRequest req;
        InvokeReply reply;
        if (!DecodeInvokeRequest(payload, &req)) {
          // The frame itself was intact (checksum passed), so the
          // stream is still synchronized; refuse just this request.
          Requests().received.Inc();
          Requests().refused_bad.Inc();
          reply.code = ReplyCode::kBadRequest;
          reply.message = "malformed invoke payload";
        } else {
          reply = HandleInvoke(std::move(req));
        }
        if (!WriteFrame(fd, MsgType::kInvokeReply, EncodeInvokeReply(reply))
                 .ok())
          break;
      } else if (!payload.empty()) {
        // kStatsProm, kTrace and kShutdown carry no payload.  The type
        // byte is outside the frame checksum, so one of them with a
        // payload is most likely an invoke whose type bit flipped (1 ^ 4
        // is kShutdown): drop the connection without acting on it.
        break;
      } else if (type == MsgType::kStatsProm) {
        if (!WriteFrame(fd, MsgType::kStatsPromReply,
                        EncodeTextReply(BuildPromText()))
                 .ok())
          break;
      } else if (type == MsgType::kTrace) {
        const std::string json =
            obs::ChromeTraceJson(obs::TraceStore::Global().Latest());
        if (!WriteFrame(fd, MsgType::kTraceReply, EncodeTextReply(json)).ok())
          break;
      } else if (type == MsgType::kShutdown) {
        (void)WriteFrame(fd, MsgType::kShutdownReply, {});
        SignalStop();
        break;
      } else {
        break;  // unknown message type: poisoned stream
      }
    }
    {
      std::lock_guard<std::mutex> lock(conn_mu);
      conn_fds.erase(fd);
    }
    net::CloseFd(fd);
  }

  void AcceptLoop() {
    while (!stopping.load()) {
      StatusOr<int> fd = listener->Accept(/*timeout_ms=*/100);
      if (!fd.ok()) {
        if (fd.status().code() == StatusCode::kUnavailable) continue;
        break;  // listener closed or fatal error
      }
      std::lock_guard<std::mutex> lock(conn_mu);
      if (stopping.load()) {
        net::CloseFd(*fd);
        break;
      }
      conn_fds.insert(*fd);
      const int cfd = *fd;
      conn_threads.emplace_back([this, cfd] { ServeConnection(cfd); });
    }
  }
};

Server::Server() : impl_(new Impl) {}

Server::~Server() { Stop(); }

StatusOr<std::unique_ptr<Server>> Server::Start(
    ServerOptions opts, std::vector<TenantSpec> tenants) {
  if (tenants.empty())
    return Status::InvalidArgument("a server needs at least one tenant");
  if (opts.socket_path.empty() || opts.ledger_dir.empty())
    return Status::InvalidArgument("socket_path and ledger_dir are required");

  // A client that disconnects while a reply is in flight must surface as
  // EPIPE through Status, never as a process-killing SIGPIPE.
  net::IgnoreSigpipe();

  std::unique_ptr<Server> server(new Server);
  Impl& im = *server->impl_;
  // Every event series is in the first scrape, even at 0.
  Requests();
  im.opts = opts;
  im.opts.workers = std::max<std::size_t>(1, im.opts.workers);
  im.opts.queue_capacity = std::max<std::size_t>(1, im.opts.queue_capacity);

  LedgerOptions lopts;
  lopts.fsync_each_charge = opts.fsync_ledger;
  im.ledger = BudgetLedger::Open(opts.ledger_dir, lopts);
  if (im.ledger == nullptr)
    return Status::Internal("cannot open budget ledger in " +
                            opts.ledger_dir +
                            " (held by a live process, or I/O error)");

  for (TenantSpec& t : tenants) {
    if (t.name.empty() || im.tenants.count(t.name) != 0)
      return Status::InvalidArgument("empty or duplicate tenant name");
    // A returning tenant keeps its durable balances: CreateTenant only
    // registers genuinely new names (restart preserves spent exactly).
    if (!im.ledger->Balance(t.name).has_value() &&
        !im.ledger->CreateTenant(t.name, t.eps_total))
      return Status::Internal("cannot register tenant " + t.name);
    im.tenant_order.push_back(t.name);
    im.tenants.emplace(
        t.name, Impl::Tenant{PreparedTable::Make(std::move(t.table)), t.seed});
  }

  StatusOr<net::UnixListener> listener = net::UnixListener::Bind(
      opts.socket_path);
  if (!listener.ok()) return listener.status();
  im.listener.emplace(std::move(listener).value());

  im.queue =
      std::make_unique<BoundedQueue<Impl::Task>>(im.opts.queue_capacity);
  for (std::size_t i = 0; i < im.opts.workers; ++i)
    im.workers.emplace_back([&im] { im.WorkerLoop(); });
  im.acceptor = std::thread([&im] { im.AcceptLoop(); });
  return server;
}

void Server::Stop() {
  Impl& im = *impl_;
  im.SignalStop();
  {
    std::lock_guard<std::mutex> lock(im.stop_mu);
    if (im.joined) return;
    im.joined = true;
  }
  // AcceptLoop polls `stopping` every Accept timeout, so it exits on
  // its own; joining it BEFORE closing the listener keeps Close from
  // racing a concurrent Accept on the same fd.
  if (im.acceptor.joinable()) im.acceptor.join();
  if (im.listener.has_value()) im.listener->Close();
  // Drain: queued tasks still execute and publish, so every admitted
  // request's connection thread wakes with a real reply.
  if (im.queue != nullptr) im.queue->Close();
  for (std::thread& w : im.workers)
    if (w.joinable()) w.join();
  // Unblock connection threads parked in ReadFrame.
  {
    std::lock_guard<std::mutex> lock(im.conn_mu);
    for (int fd : im.conn_fds) ::shutdown(fd, SHUT_RDWR);
  }
  for (;;) {
    std::vector<std::thread> threads;
    {
      std::lock_guard<std::mutex> lock(im.conn_mu);
      threads.swap(im.conn_threads);
    }
    if (threads.empty()) break;
    for (std::thread& t : threads)
      if (t.joinable()) t.join();
  }
  if (im.ledger != nullptr) im.ledger->Checkpoint();
}

bool Server::stopped() const { return impl_->stopping.load(); }

void Server::WaitForShutdown() {
  std::unique_lock<std::mutex> lock(impl_->stop_mu);
  impl_->stop_cv.wait(lock, [&] { return impl_->stop_signaled; });
}

StatsReply Server::Stats() const {
  StatsReply s;
  for (const std::string& name : impl_->tenant_order)
    if (auto b = impl_->ledger->Balance(name))
      s.tenants.push_back({name, b->total, b->spent});
  return s;
}

const std::string& Server::socket_path() const {
  return impl_->opts.socket_path;
}

BudgetLedger& Server::ledger() { return *impl_->ledger; }

}  // namespace ektelo::serve
