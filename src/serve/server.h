// The EKTELO serving daemon: a long-lived multi-tenant DP query server.
//
// The paper's kernel/client split (Sec. 3) becomes a process boundary:
// each tenant's protected table lives inside the daemon, clients send
// plan invocations (public inputs only — plan name, domain dims, ranges,
// epsilon) over a local socket, and the daemon executes the named
// PlanRegistry plan on the existing thread pool under a BudgetScope
// drawn from a durable per-tenant BudgetLedger.  What comes back over
// the wire is exactly what a kernel may release: noisy estimates and
// public refusal decisions.
//
// Request lifecycle:
//
//   connection thread          worker pool (N = EKTELO_SERVE_WORKERS)
//   -----------------          --------------------------------------
//   read + decode frame
//   validate (plan, tenant,
//     eps, dims)        -> kBadRequest
//   ledger CanCharge    -> kBudgetExhausted   (advisory fast path; no
//                                              kernel exists yet)
//   response cache hit  -> reply, coalesced   (no charge: DP post-
//                                              processing of a noisy
//                                              answer already paid for)
//   join in-flight twin -> wait for leader    (one execution, many
//                                              replies)
//   bounded queue full  -> kQueueFull         (backpressure, retryable)
//   enqueue, wait          pop task
//                          ledger Charge      (authoritative, durable
//                            -> kBudgetExhausted   BEFORE execution)
//                          fresh kernel, run plan
//                            -> on error: Refund, kExecutionFailed
//                          publish to leader + followers
//   send reply
//
// Determinism: a reply's estimate bytes are a pure function of (tenant
// seed, tenant table, request content).  Tenant tables are frozen at
// Start: each is prepared once (PreparedTable: the table plus its
// T-Vectorize counts), and every execution opens a fresh ProtectedKernel
// over that shared state, in O(1) of the table's rows.  The kernel is
// seeded by SplitMix64 over the tenant seed and the request's structural
// hash (plan, eps, dims, ranges, totals, mode — NOT the request id), so
// identical requests draw identical noise streams and distinct requests
// draw unrelated ones.  Replies are therefore bitwise identical across
// EKTELO_THREADS settings, worker counts, scheduling orders, and
// coalescing on/off — the serving-layer extension of the kernel's
// parallel-invariance contract.
//
// Coalescing: concurrent identical-structure requests elect one leader
// execution (followers wait and share the reply), and completed answers
// stay in a bounded per-server response cache.  Both are privacy-free
// replays of an answer whose epsilon was already durably charged; a
// cache eviction costs a re-charge on the next identical request
// (conservative — never under-counts).  Below the reply level, a
// sparse- or dense-mode request whose plan selects a data-independent
// strategy reuses the strategy prepared for an earlier request with the
// same public fields (plans/pipeline.h), so a hot dashboard pays for one
// materialization instead of many.
#ifndef EKTELO_SERVE_SERVER_H_
#define EKTELO_SERVE_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/table.h"
#include "serve/ledger.h"
#include "serve/protocol.h"
#include "util/status.h"

namespace ektelo::serve {

/// One tenant the daemon serves: a protected table, a root noise seed,
/// and the initial budget registered in the ledger on first start
/// (an existing ledger entry always wins — budgets are durable).
/// Server::Start takes ownership of the table and freezes it.
struct TenantSpec {
  std::string name;
  Table table;
  uint64_t seed = 0;
  double eps_total = 1.0;
};

struct ServerOptions {
  std::string socket_path;
  std::string ledger_dir;
  /// Worker threads executing plans (>= 1).  EKTELO_SERVE_WORKERS.
  std::size_t workers = 2;
  /// Bounded request-queue capacity; TryPush failure is the kQueueFull
  /// admission refusal.  EKTELO_SERVE_QUEUE.
  std::size_t queue_capacity = 64;
  /// Response-cache entries (0 disables the cache but keeps in-flight
  /// sharing for requests with `coalesce` set).
  /// EKTELO_SERVE_RESPONSE_CACHE.
  std::size_t response_cache_entries = 256;
  /// Per-request epsilon ceiling (requests above it are kBadRequest —
  /// one request may not drain a tenant in a single shot).
  /// EKTELO_SERVE_MAX_EPS; 0 = no ceiling.
  double max_eps = 0.0;
  /// fsync the ledger on every charge.  EKTELO_SERVE_FSYNC.
  bool fsync_ledger = false;
  /// Per-request deadline: an admitted request that sits in the worker
  /// queue longer than this is refused (kDeadlineExceeded) BEFORE its
  /// budget charge, so a backlogged server sheds stale work instead of
  /// spending epsilon on answers nobody is waiting for.
  /// EKTELO_SERVE_DEADLINE_MS; 0 = no deadline.
  int request_deadline_ms = 0;
  /// Slow-request log threshold: an Invoke whose total in-server wall
  /// time (decode to reply publish) exceeds this logs one structured
  /// stderr line (rate-limited per event).  EKTELO_SERVE_SLOW_MS;
  /// 0 = disabled.
  int slow_ms = 0;
  /// Test hook: sleep this long inside each worker execution, so tests
  /// can deterministically fill the bounded queue.  0 in production.
  int test_execution_delay_ms = 0;
};

/// Fills options from the EKTELO_SERVE_* environment on top of the
/// passed defaults (strict numeric parsing; unparsable values warn and
/// keep the default).
ServerOptions ApplyServeEnv(ServerOptions opts);

class Server {
 public:
  /// Opens the ledger (registering any tenant the ledger does not
  /// already know), binds the socket, and starts the acceptor and
  /// worker threads.  Errors: ledger lock held by a live process,
  /// un-bindable socket path, no tenants, duplicate tenant names.
  static StatusOr<std::unique_ptr<Server>> Start(
      ServerOptions opts, std::vector<TenantSpec> tenants);

  /// Stops accepting, drains queued work (every admitted request gets a
  /// reply), joins all threads, checkpoints the ledger.  Idempotent.
  void Stop();

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// True once a client shutdown request (or Stop) was observed.
  bool stopped() const;
  /// Blocks until a client shutdown request or Stop() arrives.
  void WaitForShutdown();

  /// Per-tenant ledger balances, in registration order.  Counters are
  /// not here: they live only in the metrics registry (scraped over the
  /// socket by Client::StatsProm).  Kept for servebench's check of the
  /// spent budget against the epsilon it saw released.
  StatsReply Stats() const;
  const std::string& socket_path() const;
  /// The live ledger (owned by the server) — for test assertions.
  BudgetLedger& ledger();

 private:
  Server();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ektelo::serve

#endif  // EKTELO_SERVE_SERVER_H_
