// Minimal local-socket plumbing for the serving daemon.
//
// The EKTELO serving protocol runs over an AF_UNIX stream socket: the
// daemon and its clients share a machine (the kernel/client split of
// paper Sec. 3 reified as a process boundary), so there is no TLS, no
// address resolution, and filesystem permissions on the socket path are
// the connection ACL.  This header wraps exactly the syscalls the server
// and client need — bind/listen/accept with a poll-based timeout (so the
// accept loop can observe a stop flag), connect, and EINTR-safe
// whole-buffer send/recv — behind Status-returning calls.  Frame layout
// on top of the byte stream lives in serve/protocol.h.
//
// POSIX-only (AF_UNIX sockets).
#ifndef EKTELO_UTIL_NET_H_
#define EKTELO_UTIL_NET_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace ektelo::net {

/// A listening AF_UNIX stream socket.  Move-only; closes on destruction
/// and removes the socket file it bound.
class UnixListener {
 public:
  /// Binds and listens on `path` (an existing socket file at the path is
  /// removed first — a previous daemon's leftover).  Path length is
  /// limited by sockaddr_un (~100 bytes).
  static StatusOr<UnixListener> Bind(const std::string& path,
                                     int backlog = 64);

  UnixListener(UnixListener&& o) noexcept;
  UnixListener& operator=(UnixListener&& o) noexcept;
  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;
  ~UnixListener();

  /// Waits up to timeout_ms for a connection.  Returns the connected fd,
  /// kUnavailable on timeout, or an error status (including after
  /// Close()).  The caller owns the returned fd.
  StatusOr<int> Accept(int timeout_ms);

  /// Closes the listening socket; a concurrent Accept fails promptly.
  void Close();

  const std::string& path() const { return path_; }

 private:
  UnixListener(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  int fd_ = -1;
  std::string path_;
};

/// Connects to a listening unix socket; the caller owns the returned fd.
/// With timeout_ms > 0 the connect itself is bounded (non-blocking
/// connect + poll) and kDeadlineExceeded reports expiry; 0 blocks.
StatusOr<int> ConnectUnix(const std::string& path, int timeout_ms = 0);

/// Bounds every subsequent Recv/Send on `fd` (SO_RCVTIMEO/SO_SNDTIMEO);
/// an expired I/O surfaces as kDeadlineExceeded from RecvAll/SendAll.
/// 0 restores fully blocking I/O.
Status SetRecvTimeout(int fd, int timeout_ms);
Status SetSendTimeout(int fd, int timeout_ms);

/// Writes all n bytes (EINTR-safe, SIGPIPE suppressed).
/// kDeadlineExceeded when a send timeout armed on the fd expires.
Status SendAll(int fd, const uint8_t* data, std::size_t n);

/// One contiguous run of bytes for SendAllV.
struct ByteSpan {
  const uint8_t* data;
  std::size_t size;
};

/// Writes the spans back to back, as if concatenated, with gather I/O
/// (sendmsg) instead of a staging copy.  At most kMaxSendSpans spans;
/// errors as SendAll.
inline constexpr std::size_t kMaxSendSpans = 8;
Status SendAllV(int fd, const ByteSpan* spans, std::size_t count);

/// Reads exactly n bytes.  kUnavailable on clean EOF at a frame boundary
/// (n bytes requested, zero read), kInternal on mid-buffer EOF or error,
/// kDeadlineExceeded when a receive timeout armed on the fd expires.
Status RecvAll(int fd, uint8_t* data, std::size_t n);

/// Close an fd obtained from Accept/ConnectUnix (EINTR-safe).
void CloseFd(int fd);

/// Process-wide SIGPIPE opt-out (idempotent).  Both the daemon and the
/// client call it at startup: a peer that hangs up mid-write must yield
/// EPIPE through a Status, never kill the process.  MSG_NOSIGNAL
/// already covers send(); this also covers any stray write() path.
void IgnoreSigpipe();

}  // namespace ektelo::net

#endif  // EKTELO_UTIL_NET_H_
