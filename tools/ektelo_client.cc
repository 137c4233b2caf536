// CLI client for the serving daemon.
//
//   ektelo_client --socket PATH invoke --tenant alpha --plan Identity
//       --eps 0.1 [--ranges 0-3,5-9] [--dims 16x16] [--known-total 1e4]
//       [--mode implicit|dense|sparse] [--stripe-dim K] [--no-coalesce]
//       [--request-id N]
//   ektelo_client --socket PATH stats
//   ektelo_client --socket PATH trace [--out trace.json]
//   ektelo_client --socket PATH shutdown
//
// Global flags: --timeout-ms N (per-attempt connect AND read deadline),
// --retries N (transport retries; invoke retries only coalescable
// requests — see serve/client.h).
//
// stats prints the daemon's metrics registry in Prometheus text
// exposition format: request counters, stage latencies and per-tenant
// budgets (ektelo_tenant_budget_eps).  trace fetches the daemon's
// recent request traces as Chrome trace_event JSON (Perfetto-loadable);
// --out writes to a file instead of stdout.  Traces are empty unless
// the daemon runs with EKTELO_TRACE=1.
//
// Exit codes make refusals scriptable: 0 ok, 1 connection/protocol
// error, 2 budget exhausted, 3 queue full, 4 execution failed, 5 bad
// request, 6 server shutting down, 7 ledger durability failure (request
// failed closed), 8 deadline exceeded (server-side refusal OR client
// timeout after all retries).  Invoke prints a single summary line
// including a checksum of the estimate's exact bytes, so scripts can
// assert bitwise determinism across runs without parsing floats.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "serve/client.h"
#include "store/serialize.h"

namespace {

using ektelo::serve::InvokeRequest;
using ektelo::serve::ReplyCode;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--timeout-ms N] [--retries N]\n"
               "           invoke --tenant T --plan P --eps E\n"
               "           [--ranges a-b,c-d] [--dims AxBxC] [--mode m]\n"
               "           [--known-total X] [--stripe-dim K]\n"
               "           [--no-coalesce] [--request-id N]\n"
               "       %s --socket PATH stats\n"
               "       %s --socket PATH trace [--out FILE]\n"
               "       %s --socket PATH shutdown\n",
               argv0, argv0, argv0, argv0);
  return 64;
}

bool ParseRanges(const std::string& s, std::vector<ektelo::RangeQuery>* out) {
  std::size_t start = 0;
  while (start < s.size()) {
    std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    const std::string tok = s.substr(start, comma - start);
    const std::size_t dash = tok.find('-');
    if (dash == std::string::npos || dash == 0 || dash + 1 >= tok.size())
      return false;
    char* end = nullptr;
    const unsigned long long lo = std::strtoull(tok.c_str(), &end, 10);
    if (end != tok.c_str() + dash) return false;
    const unsigned long long hi =
        std::strtoull(tok.c_str() + dash + 1, &end, 10);
    if (*end != '\0' || hi < lo) return false;
    out->push_back({std::size_t(lo), std::size_t(hi)});
    start = comma + 1;
  }
  return !out->empty();
}

bool ParseDims(const std::string& s, std::vector<std::size_t>* out) {
  std::size_t start = 0;
  while (start < s.size()) {
    std::size_t x = s.find('x', start);
    if (x == std::string::npos) x = s.size();
    char* end = nullptr;
    const std::string tok = s.substr(start, x - start);
    const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
    if (end == tok.c_str() || *end != '\0' || v == 0) return false;
    out->push_back(std::size_t(v));
    start = x + 1;
  }
  return !out->empty();
}

int CodeToExit(ReplyCode code) {
  switch (code) {
    case ReplyCode::kOk: return 0;
    case ReplyCode::kBadRequest: return 5;
    case ReplyCode::kBudgetExhausted: return 2;
    case ReplyCode::kQueueFull: return 3;
    case ReplyCode::kExecutionFailed: return 4;
    case ReplyCode::kShuttingDown: return 6;
    case ReplyCode::kDurabilityError: return 7;
    case ReplyCode::kDeadlineExceeded: return 8;
  }
  return 1;
}

const char* CodeName(ReplyCode code) {
  switch (code) {
    case ReplyCode::kOk: return "OK";
    case ReplyCode::kBadRequest: return "BAD_REQUEST";
    case ReplyCode::kBudgetExhausted: return "BUDGET_EXHAUSTED";
    case ReplyCode::kQueueFull: return "QUEUE_FULL";
    case ReplyCode::kExecutionFailed: return "EXECUTION_FAILED";
    case ReplyCode::kShuttingDown: return "SHUTTING_DOWN";
    case ReplyCode::kDurabilityError: return "DURABILITY_ERROR";
    case ReplyCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
  }
  return "UNKNOWN";
}

/// Connection-level failures: a client-side timeout is its own exit
/// code (8) so scripts can tell "slow/hung daemon" from "no daemon".
int StatusToExit(const ektelo::Status& s) {
  return s.code() == ektelo::StatusCode::kDeadlineExceeded ? 8 : 1;
}

/// Checksum over the estimate's IEEE-754 bit patterns: equal checksums
/// across runs certify bitwise-identical answers.
uint64_t EstimateChecksum(const ektelo::Vec& v) {
  ektelo::store::ByteWriter w;
  w.F64s(v);
  return ektelo::store::Checksum64(w.bytes());
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path, command;
  ektelo::serve::ClientOptions copts;
  InvokeRequest req;
  int i = 1;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    char* end = nullptr;
    if (arg == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (arg == "--timeout-ms" && i + 1 < argc) {
      const long v = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || v < 0) return Usage(argv[0]);
      copts.connect_timeout_ms = int(v);
      copts.read_timeout_ms = int(v);
    } else if (arg == "--retries" && i + 1 < argc) {
      const long v = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || v < 0) return Usage(argv[0]);
      copts.max_retries = int(v);
    } else if (arg == "invoke" || arg == "stats" || arg == "trace" ||
               arg == "shutdown") {
      command = arg;
      ++i;
      break;
    } else {
      return Usage(argv[0]);
    }
  }
  if (socket_path.empty() || command.empty()) return Usage(argv[0]);

  std::string trace_out;  // trace: output path ("" = stdout)
  if (command == "stats" || command == "trace") {
    for (; i < argc; ++i) {
      const std::string arg = argv[i];
      if (command == "trace" && arg == "--out" && i + 1 < argc) {
        trace_out = argv[++i];
      } else {
        return Usage(argv[0]);
      }
    }
  }

  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    char* end = nullptr;
    if (arg == "--tenant" && i + 1 < argc) {
      req.tenant = argv[++i];
    } else if (arg == "--plan" && i + 1 < argc) {
      req.plan = argv[++i];
    } else if (arg == "--eps" && i + 1 < argc) {
      req.eps = std::strtod(argv[++i], &end);
      if (end == argv[i] || *end != '\0') return Usage(argv[0]);
    } else if (arg == "--ranges" && i + 1 < argc) {
      if (!ParseRanges(argv[++i], &req.ranges)) return Usage(argv[0]);
    } else if (arg == "--dims" && i + 1 < argc) {
      if (!ParseDims(argv[++i], &req.dims)) return Usage(argv[0]);
    } else if (arg == "--known-total" && i + 1 < argc) {
      req.known_total = std::strtod(argv[++i], &end);
      if (end == argv[i] || *end != '\0') return Usage(argv[0]);
    } else if (arg == "--stripe-dim" && i + 1 < argc) {
      req.stripe_dim = std::size_t(std::strtoull(argv[++i], &end, 10));
      if (end == argv[i] || *end != '\0') return Usage(argv[0]);
    } else if (arg == "--mode" && i + 1 < argc) {
      const std::string m = argv[++i];
      if (m == "dense") req.mode = 0;
      else if (m == "sparse") req.mode = 1;
      else if (m == "implicit") req.mode = 2;
      else return Usage(argv[0]);
    } else if (arg == "--no-coalesce") {
      req.coalesce = false;
    } else if (arg == "--request-id" && i + 1 < argc) {
      req.request_id = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') return Usage(argv[0]);
    } else {
      return Usage(argv[0]);
    }
  }

  auto client = ektelo::serve::Client::Connect(socket_path, copts);
  if (!client.ok()) {
    std::fprintf(stderr, "ektelo_client: %s\n",
                 client.status().ToString().c_str());
    return StatusToExit(client.status());
  }

  if (command == "shutdown") {
    const ektelo::Status s = client->Shutdown();
    if (!s.ok()) {
      std::fprintf(stderr, "ektelo_client: %s\n", s.ToString().c_str());
      return StatusToExit(s);
    }
    std::printf("shutdown acknowledged\n");
    return 0;
  }

  if (command == "trace") {
    auto json = client->Trace();
    if (!json.ok()) {
      std::fprintf(stderr, "ektelo_client: %s\n",
                   json.status().ToString().c_str());
      return StatusToExit(json.status());
    }
    if (trace_out.empty()) {
      std::printf("%s\n", json->c_str());
      return 0;
    }
    std::FILE* f = std::fopen(trace_out.c_str(), "w");
    if (f == nullptr ||
        std::fwrite(json->data(), 1, json->size(), f) != json->size() ||
        std::fclose(f) != 0) {
      if (f != nullptr) std::fclose(f);
      std::fprintf(stderr, "ektelo_client: cannot write %s\n",
                   trace_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu bytes to %s\n", json->size(),
                 trace_out.c_str());
    return 0;
  }

  if (command == "stats") {
    auto text = client->StatsProm();
    if (!text.ok()) {
      std::fprintf(stderr, "ektelo_client: %s\n",
                   text.status().ToString().c_str());
      return StatusToExit(text.status());
    }
    std::fwrite(text->data(), 1, text->size(), stdout);
    return 0;
  }

  if (req.tenant.empty() || req.plan.empty()) return Usage(argv[0]);
  auto reply = client->Invoke(req);
  if (!reply.ok()) {
    std::fprintf(stderr, "ektelo_client: %s\n",
                 reply.status().ToString().c_str());
    return StatusToExit(reply.status());
  }
  std::printf(
      "code=%s coalesced=%d eps_charged=%.9g n=%zu "
      "estimate_checksum=%016llx%s%s\n",
      CodeName(reply->code), reply->coalesced ? 1 : 0, reply->eps_charged,
      std::size_t(reply->estimate.size()),
      (unsigned long long)EstimateChecksum(reply->estimate),
      reply->message.empty() ? "" : " message=",
      reply->message.c_str());
  return CodeToExit(reply->code);
}
