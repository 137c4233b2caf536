// Client library for the serving daemon: a synchronous connection
// speaking the serve/protocol.h framing.  One Client is one socket;
// requests on a single Client serialize (request, then reply), so
// concurrency is expressed by opening more Clients — which is also how
// the daemon's admission control and coalescing are exercised.
// Thread-compatible, not thread-safe: share nothing, or lock around it.
//
// Fault handling: every attempt is bounded (connect and read deadlines)
// and transport failures are retried with capped exponential backoff —
// but ONLY where a resend cannot double-spend.  A timed-out invoke may
// have executed and charged on the server, so Invoke retries only
// requests with `coalesce` set: an identical resend lands in the
// daemon's response cache or in-flight entry and is answered as a
// replay with eps_charged = 0 (idempotency by coalescing).  StatsProm
// and Trace are read-only and always retryable; Shutdown is never
// retried.  Backoff jitter is seeded (retry_seed) so tests replay
// identical schedules.
#ifndef EKTELO_SERVE_CLIENT_H_
#define EKTELO_SERVE_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "util/status.h"

namespace ektelo::serve {

struct ClientOptions {
  /// Bound on each connect attempt; 0 blocks indefinitely.
  int connect_timeout_ms = 5000;
  /// Bound on each request/reply round trip's socket reads and writes;
  /// expiry surfaces as kDeadlineExceeded.  0 blocks indefinitely.
  int read_timeout_ms = 30000;
  /// Retries after the first attempt (so max_retries = 2 means up to 3
  /// attempts).  Applies to transport failures only — refusal replies
  /// (budget, queue, bad request) are answers, not failures.
  int max_retries = 2;
  /// Backoff before retry k (0-based) is uniform in
  /// [d/2, d], d = min(backoff_cap_ms, backoff_base_ms << k).
  int backoff_base_ms = 20;
  int backoff_cap_ms = 1000;
  /// Seed for the deterministic backoff jitter stream.
  uint64_t retry_seed = 0;
};

class Client {
 public:
  /// Connects to a daemon's socket (one attempt, bounded by
  /// connect_timeout_ms; retries happen per-operation afterwards).
  static StatusOr<Client> Connect(const std::string& socket_path,
                                  ClientOptions opts = {});

  Client(Client&& o) noexcept;
  Client& operator=(Client&& o) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  /// One plan invocation; blocks for the reply.  A non-OK status means
  /// the *connection* failed — refusals (budget, queue, bad request)
  /// come back as an InvokeReply with the corresponding code.
  /// Transport failures are retried (reconnect + backoff) only when
  /// req.coalesce is set; kDeadlineExceeded after the last attempt
  /// means the request MAY still have executed server-side.
  StatusOr<InvokeReply> Invoke(const InvokeRequest& req);

  /// The daemon's metrics registry in Prometheus text exposition
  /// format.  Read-only; retried.
  StatusOr<std::string> StatsProm();

  /// The daemon's most recent request traces as Chrome trace_event
  /// JSON (load in Perfetto / chrome://tracing).  Empty traceEvents
  /// when the daemon runs without EKTELO_TRACE.  Read-only; retried.
  StatusOr<std::string> Trace();

  /// Asks the daemon to shut down; resolves once it acknowledges.
  /// Never retried (a resend could kill a freshly restarted daemon).
  Status Shutdown();

 private:
  Client(int fd, std::string path, ClientOptions opts)
      : fd_(fd), path_(std::move(path)), opts_(opts) {}

  /// Arms the per-attempt read/write deadlines on a fresh fd.
  Status ArmDeadlines(int fd) const;
  /// Sends one frame and reads its reply; after a retryable transport
  /// failure, backs off, reconnects and resends, up to `retries` times.
  StatusOr<std::vector<uint8_t>> RetryingRoundTrip(
      MsgType send_type, const std::vector<uint8_t>& payload,
      MsgType want_reply, int retries);
  /// The read-only text endpoints (Prometheus stats, traces): empty
  /// request, one text-blob reply, always retried.
  StatusOr<std::string> TextRoundTrip(MsgType send_type, MsgType want_reply);
  /// Drops the (poisoned) connection and dials again.
  Status Reconnect();
  /// Sleeps the jittered backoff before 0-based retry `attempt`.
  void Backoff(int attempt) const;

  int fd_ = -1;
  std::string path_;
  ClientOptions opts_;
};

}  // namespace ektelo::serve

#endif  // EKTELO_SERVE_CLIENT_H_
