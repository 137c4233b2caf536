// Wire protocol of the serving daemon: length-prefixed, checksummed
// binary frames over a local stream socket, built on the store/
// serialization primitives (little-endian framing, Checksum64) so both
// ends agree byte-for-byte regardless of host width or endianness.
//
// Frame layout:
//
//   {u32 magic "EKFR", u8 msg_type, u32 payload_len, payload bytes,
//    u64 Checksum64(payload)}
//
// Payloads are capped (kMaxPayloadBytes) so a hostile or corrupted
// length field cannot become an allocation bomb; a bad magic, oversized
// length, or checksum mismatch poisons the connection (the server drops
// it — there is no way to resynchronize a corrupt stream).
//
// Message types come in request/reply pairs.  An InvokeRequest names a
// plan in the PlanRegistry catalog and carries the *public* plan inputs
// only (domain dims, ranges, epsilon, mode...).  The private data never
// crosses the wire: tenants' protected tables live inside the daemon,
// and the reply carries the noisy estimate a kernel released.
#ifndef EKTELO_SERVE_PROTOCOL_H_
#define EKTELO_SERVE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "linalg/vec.h"
#include "util/status.h"
#include "workload/workloads.h"

namespace ektelo::serve {

inline constexpr uint32_t kFrameMagic = 0x52464B45u;  // "EKFR" little-endian
inline constexpr std::size_t kMaxPayloadBytes = std::size_t{64} << 20;

enum class MsgType : uint8_t {
  kInvoke = 1,
  kInvokeReply = 2,
  // Tags 3 and 4 carried a fixed-field counter snapshot.  They are
  // retired and never reused: the server treats them as unknown types
  // and drops the connection.  Counters are served by kStatsProm.
  kShutdown = 5,
  kShutdownReply = 6,
  // Observability endpoints.  Both replies carry one opaque text blob:
  // Prometheus exposition text for kStatsProm, Chrome trace_event JSON
  // for kTrace.
  kStatsProm = 7,
  kStatsPromReply = 8,
  kTrace = 9,
  kTraceReply = 10,
};

/// One plan invocation.  Every field is public, client-chosen metadata
/// (Sec. 4: plan inputs are data-independent); the server validates all
/// of it against the registry and the tenant's ledger before any kernel
/// interaction.
struct InvokeRequest {
  uint64_t request_id = 0;  // echoed in the reply; client correlation
  std::string tenant;
  std::string plan;   // PlanRegistry catalog name
  double eps = 0.0;   // budget this invocation may spend
  std::vector<std::size_t> dims;
  std::vector<RangeQuery> ranges;
  double known_total = 0.0;
  std::size_t stripe_dim = 0;
  uint8_t mode = 2;          // MatrixMode: 0 dense, 1 sparse, 2 implicit
  bool coalesce = true;      // allow identical-request coalescing
};

/// Reply codes mirror StatusCode where one fits; refusals are explicit
/// so clients can distinguish "budget gone" (permanent until topped up)
/// from "queue full" (retryable).
enum class ReplyCode : uint8_t {
  kOk = 0,
  kBadRequest = 1,       // unknown plan/tenant, malformed inputs
  kBudgetExhausted = 2,  // admission refusal: ledger cannot cover eps
  kQueueFull = 3,        // admission refusal: request queue at capacity
  kExecutionFailed = 4,  // plan returned an error (charge refunded)
  kShuttingDown = 5,
  // The ledger could not durably record the charge (disk I/O error).
  // The request fails CLOSED: nothing was released, and — because the
  // charge log is append-only and charge-before-release — at worst the
  // budget is over-counted, never under-counted.  Not retryable until
  // the operator restores the ledger volume.
  kDurabilityError = 6,
  // The request sat in the queue past the server's per-request deadline
  // and was refused before any charge.  Retryable.
  kDeadlineExceeded = 7,
};

struct InvokeReply {
  uint64_t request_id = 0;
  ReplyCode code = ReplyCode::kOk;
  std::string message;      // human-readable detail on non-kOk
  bool coalesced = false;   // answered from a leader's execution or the
                            // response cache rather than a fresh run
  double eps_charged = 0.0; // what the ledger durably recorded for THIS
                            // request (0 for refusals and coalesced
                            // replays of an already-charged structure)
  Vec estimate;             // empty on non-kOk
};

/// Per-tenant ledger balances of an in-process server (Server::Stats).
/// Not a wire message: over the socket, balances and counters are
/// served only by the metrics scrape (kStatsProm).  Kept because
/// servebench checks each tenant's ledger spend against the epsilon it
/// saw released.
struct StatsReply {
  struct Tenant {
    std::string name;
    double total = 0.0;
    double spent = 0.0;
  };
  std::vector<Tenant> tenants;
};

// ---- payload codecs (pure byte transforms; no I/O) ----

std::vector<uint8_t> EncodeInvokeRequest(const InvokeRequest& req);
bool DecodeInvokeRequest(const std::vector<uint8_t>& bytes,
                         InvokeRequest* req);

std::vector<uint8_t> EncodeInvokeReply(const InvokeReply& reply);
bool DecodeInvokeReply(const std::vector<uint8_t>& bytes, InvokeReply* reply);

/// kStatsPromReply / kTraceReply payload: one length-prefixed text blob
/// (Prometheus exposition text or Chrome trace_event JSON).  The blob
/// is opaque to the protocol layer; the payload cap still applies.
std::vector<uint8_t> EncodeTextReply(const std::string& text);
bool DecodeTextReply(const std::vector<uint8_t>& bytes, std::string* text);

// ---- framed I/O over a connected socket fd ----

/// Writes one frame.  Errors are connection-fatal.
Status WriteFrame(int fd, MsgType type, const std::vector<uint8_t>& payload);

/// Reads one frame.  kUnavailable = clean EOF at a frame boundary (peer
/// closed); any other error (bad magic, oversize, checksum mismatch,
/// mid-frame EOF) is connection-fatal.
Status ReadFrame(int fd, MsgType* type, std::vector<uint8_t>* payload);

}  // namespace ektelo::serve

#endif  // EKTELO_SERVE_PROTOCOL_H_
