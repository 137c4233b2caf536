#include "util/net.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

namespace ektelo::net {

namespace {

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " +
                          std::strerror(errno));
}

/// Fills a sockaddr_un; false when the path does not fit (sun_path is a
/// fixed ~108-byte array and silent truncation would bind the wrong file).
bool FillAddr(const std::string& path, sockaddr_un* addr) {
  if (path.empty() || path.size() >= sizeof(addr->sun_path)) return false;
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

}  // namespace

StatusOr<UnixListener> UnixListener::Bind(const std::string& path,
                                          int backlog) {
  sockaddr_un addr;
  if (!FillAddr(path, &addr))
    return Status::InvalidArgument("socket path empty or too long: " + path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  // A stale socket file from a dead daemon would make bind fail with
  // EADDRINUSE forever; remove it.  A *live* daemon is still protected:
  // the ledger's single-writer lock refuses the second server instance
  // before it ever binds.
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = Errno("bind");
    ::close(fd);
    return s;
  }
  if (::listen(fd, backlog) != 0) {
    Status s = Errno("listen");
    ::close(fd);
    ::unlink(path.c_str());
    return s;
  }
  return UnixListener(fd, path);
}

UnixListener::UnixListener(UnixListener&& o) noexcept
    : fd_(o.fd_), path_(std::move(o.path_)) {
  o.fd_ = -1;
}

UnixListener& UnixListener::operator=(UnixListener&& o) noexcept {
  if (this != &o) {
    Close();
    fd_ = o.fd_;
    path_ = std::move(o.path_);
    o.fd_ = -1;
  }
  return *this;
}

UnixListener::~UnixListener() { Close(); }

void UnixListener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    if (!path_.empty()) ::unlink(path_.c_str());
  }
}

StatusOr<int> UnixListener::Accept(int timeout_ms) {
  if (fd_ < 0) return Status::FailedPrecondition("listener closed");
  pollfd p{fd_, POLLIN, 0};
  int rc;
  do {
    rc = ::poll(&p, 1, timeout_ms);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) return Errno("poll");
  if (rc == 0) return Status::Unavailable("accept timeout");
  int cfd;
  do {
    cfd = ::accept(fd_, nullptr, nullptr);
  } while (cfd < 0 && errno == EINTR);
  if (cfd < 0) return Errno("accept");
  return cfd;
}

StatusOr<int> ConnectUnix(const std::string& path, int timeout_ms) {
  sockaddr_un addr;
  if (!FillAddr(path, &addr))
    return Status::InvalidArgument("socket path empty or too long: " + path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");

  int saved_flags = 0;
  if (timeout_ms > 0) {
    saved_flags = ::fcntl(fd, F_GETFL, 0);
    if (saved_flags < 0 || ::fcntl(fd, F_SETFL, saved_flags | O_NONBLOCK) < 0) {
      Status s = Errno("fcntl");
      ::close(fd);
      return s;
    }
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0 && timeout_ms > 0 && errno == EINPROGRESS) {
    // Bounded wait for the three-way completion, then read the verdict.
    pollfd p{fd, POLLOUT, 0};
    do {
      rc = ::poll(&p, 1, timeout_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc == 0) {
      ::close(fd);
      return Status::DeadlineExceeded("connect timeout: " + path);
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (rc < 0 ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      if (err != 0) errno = err;
      Status s = Errno("connect");
      ::close(fd);
      return s;
    }
    rc = 0;
  }
  if (rc != 0) {
    Status s = Errno("connect");
    ::close(fd);
    return s;
  }
  if (timeout_ms > 0 && ::fcntl(fd, F_SETFL, saved_flags) < 0) {
    Status s = Errno("fcntl");
    ::close(fd);
    return s;
  }
  return fd;
}

namespace {

Status SetSockTimeout(int fd, int optname, int timeout_ms) {
  timeval tv{};
  if (timeout_ms > 0) {
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
  }
  if (::setsockopt(fd, SOL_SOCKET, optname, &tv, sizeof(tv)) != 0)
    return Errno("setsockopt");
  return Status::Ok();
}

}  // namespace

Status SetRecvTimeout(int fd, int timeout_ms) {
  return SetSockTimeout(fd, SO_RCVTIMEO, timeout_ms);
}

Status SetSendTimeout(int fd, int timeout_ms) {
  return SetSockTimeout(fd, SO_SNDTIMEO, timeout_ms);
}

Status SendAll(int fd, const uint8_t* data, std::size_t n) {
  const ByteSpan span{data, n};
  return SendAllV(fd, &span, 1);
}

Status SendAllV(int fd, const ByteSpan* spans, std::size_t count) {
  if (count > kMaxSendSpans)
    return Status::InvalidArgument("too many send spans");
  iovec iov[kMaxSendSpans];
  std::size_t live = 0;  // iov[0, live) is what remains to send
  for (std::size_t i = 0; i < count; ++i) {
    if (spans[i].size == 0) continue;
    iov[live].iov_base = const_cast<uint8_t*>(spans[i].data);
    iov[live].iov_len = spans[i].size;
    ++live;
  }
  iovec* next = iov;
  while (live > 0) {
    msghdr msg{};
    msg.msg_iov = next;
    msg.msg_iovlen = live;
    // MSG_NOSIGNAL: a peer that hung up yields EPIPE instead of killing
    // the process with SIGPIPE.
    const ssize_t rc = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (rc < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        return Status::DeadlineExceeded("send timeout");
      return Errno("sendmsg");
    }
    // Drop the fully sent spans and advance into a partly sent one.
    std::size_t sent = std::size_t(rc);
    while (live > 0 && sent >= next->iov_len) {
      sent -= next->iov_len;
      ++next;
      --live;
    }
    if (live > 0) {
      next->iov_base = static_cast<uint8_t*>(next->iov_base) + sent;
      next->iov_len -= sent;
    }
  }
  return Status::Ok();
}

Status RecvAll(int fd, uint8_t* data, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t rc = ::recv(fd, data + got, n - got, 0);
    if (rc < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        return Status::DeadlineExceeded("read timeout");
      return Errno("recv");
    }
    if (rc == 0) {
      // Clean hang-up between frames is the normal end of a connection;
      // EOF inside a frame is a torn message.
      return got == 0 ? Status::Unavailable("connection closed")
                      : Status::Internal("connection closed mid-frame");
    }
    got += std::size_t(rc);
  }
  return Status::Ok();
}

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

void IgnoreSigpipe() { ::signal(SIGPIPE, SIG_IGN); }

}  // namespace ektelo::net
