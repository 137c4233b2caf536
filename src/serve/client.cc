#include "serve/client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "util/net.h"
#include "util/rng.h"

namespace ektelo::serve {

namespace {

/// Transport failures worth a reconnect-and-resend.  Refusals never get
/// here (they are InvokeReply codes, not statuses); kInvalidArgument
/// (oversized frame we built ourselves) would fail identically again.
bool RetryableTransport(const Status& s) {
  switch (s.code()) {
    case StatusCode::kUnavailable:       // peer closed between frames
    case StatusCode::kInternal:          // torn frame, connect/socket error
    case StatusCode::kDeadlineExceeded:  // attempt deadline expired
      return true;
    default:
      return false;
  }
}

/// Request/reply round trip with reply-type checking.
Status RoundTrip(int fd, MsgType send_type,
                 const std::vector<uint8_t>& payload, MsgType want_reply,
                 std::vector<uint8_t>* reply_payload) {
  if (fd < 0) return Status::Internal("client is closed");
  Status s = WriteFrame(fd, send_type, payload);
  if (!s.ok()) return s;
  MsgType got;
  s = ReadFrame(fd, &got, reply_payload);
  if (!s.ok()) {
    if (s.code() == StatusCode::kUnavailable)
      return Status::Internal("server closed the connection");
    return s;
  }
  if (got != want_reply)
    return Status::Internal("unexpected reply message type");
  return Status::Ok();
}

}  // namespace

StatusOr<Client> Client::Connect(const std::string& socket_path,
                                 ClientOptions opts) {
  net::IgnoreSigpipe();
  StatusOr<int> fd = net::ConnectUnix(socket_path, opts.connect_timeout_ms);
  if (!fd.ok()) return fd.status();
  Client c(*fd, socket_path, opts);
  if (Status s = c.ArmDeadlines(*fd); !s.ok()) return s;
  return c;
}

Status Client::ArmDeadlines(int fd) const {
  if (opts_.read_timeout_ms <= 0) return Status::Ok();
  EK_RETURN_IF_ERROR(net::SetRecvTimeout(fd, opts_.read_timeout_ms));
  return net::SetSendTimeout(fd, opts_.read_timeout_ms);
}

Status Client::Reconnect() {
  if (fd_ >= 0) net::CloseFd(fd_);
  fd_ = -1;
  StatusOr<int> fd = net::ConnectUnix(path_, opts_.connect_timeout_ms);
  if (!fd.ok()) return fd.status();
  if (Status s = ArmDeadlines(*fd); !s.ok()) {
    net::CloseFd(*fd);
    return s;
  }
  fd_ = *fd;
  return Status::Ok();
}

void Client::Backoff(int attempt) const {
  int delay = opts_.backoff_base_ms;
  for (int i = 0; i < attempt && delay < opts_.backoff_cap_ms; ++i)
    delay *= 2;
  delay = std::max(1, std::min(delay, opts_.backoff_cap_ms));
  // Uniform in [delay/2, delay]; the stream is a pure function of
  // (retry_seed, attempt) so a replayed failure backs off identically.
  const uint64_t r = SplitMix64(opts_.retry_seed ^ (uint64_t(attempt) + 1));
  const int jittered = delay / 2 + int(r % uint64_t(delay - delay / 2 + 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(jittered));
}

Client::Client(Client&& o) noexcept
    : fd_(o.fd_), path_(std::move(o.path_)), opts_(o.opts_) {
  o.fd_ = -1;
}

Client& Client::operator=(Client&& o) noexcept {
  if (this != &o) {
    if (fd_ >= 0) net::CloseFd(fd_);
    fd_ = o.fd_;
    path_ = std::move(o.path_);
    opts_ = o.opts_;
    o.fd_ = -1;
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) net::CloseFd(fd_);
}

StatusOr<std::vector<uint8_t>> Client::RetryingRoundTrip(
    MsgType send_type, const std::vector<uint8_t>& payload,
    MsgType want_reply, int retries) {
  Status last = Status::Ok();
  for (int attempt = 0; attempt <= std::max(0, retries); ++attempt) {
    if (attempt > 0) {
      Backoff(attempt - 1);
      if (Status s = Reconnect(); !s.ok()) {
        last = s;
        continue;
      }
    }
    std::vector<uint8_t> reply;
    last = RoundTrip(fd_, send_type, payload, want_reply, &reply);
    if (last.ok()) return reply;
    if (!RetryableTransport(last)) break;
  }
  return last;
}

StatusOr<InvokeReply> Client::Invoke(const InvokeRequest& req) {
  // A resend is only safe when the daemon can recognize it as the same
  // request: coalescable invokes replay from the response cache (or join
  // the in-flight execution) with eps_charged = 0, so a retry after an
  // ambiguous failure cannot double-spend.  Non-coalescable invokes get
  // exactly one attempt.
  EK_ASSIGN_OR_RETURN(
      const std::vector<uint8_t> payload,
      RetryingRoundTrip(MsgType::kInvoke, EncodeInvokeRequest(req),
                        MsgType::kInvokeReply,
                        req.coalesce ? opts_.max_retries : 0));
  InvokeReply reply;
  if (!DecodeInvokeReply(payload, &reply))
    return Status::Internal("malformed invoke reply");
  return reply;
}

StatusOr<std::string> Client::TextRoundTrip(MsgType send_type,
                                            MsgType want_reply) {
  EK_ASSIGN_OR_RETURN(
      const std::vector<uint8_t> payload,
      RetryingRoundTrip(send_type, {}, want_reply, opts_.max_retries));
  std::string text;
  if (!DecodeTextReply(payload, &text))
    return Status::Internal("malformed text reply");
  return text;
}

StatusOr<std::string> Client::StatsProm() {
  return TextRoundTrip(MsgType::kStatsProm, MsgType::kStatsPromReply);
}

StatusOr<std::string> Client::Trace() {
  return TextRoundTrip(MsgType::kTrace, MsgType::kTraceReply);
}

Status Client::Shutdown() {
  std::vector<uint8_t> payload;
  return RoundTrip(fd_, MsgType::kShutdown, {}, MsgType::kShutdownReply,
                   &payload);
}

}  // namespace ektelo::serve
