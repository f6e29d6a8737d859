#include "common/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "common/error.h"
#include "common/strings.h"

namespace bfpp::net {

namespace {

// Strips one trailing '\r' (CRLF clients) and reports whether anything
// is left — the shared "final unterminated line" rule of both
// transports: return it iff non-empty.
bool finish_eof_line(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return !line.empty();
}

}  // namespace

Stream::~Stream() {
  if (fd_ >= 0) ::close(fd_);
}

Stream::Stream(Stream&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      buffer_(std::move(other.buffer_)),
      head_(std::exchange(other.head_, 0)),
      scanned_(std::exchange(other.scanned_, 0)) {}

Stream& Stream::operator=(Stream&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    buffer_ = std::move(other.buffer_);
    head_ = std::exchange(other.head_, 0);
    scanned_ = std::exchange(other.scanned_, 0);
  }
  return *this;
}

bool Stream::read_line(std::string& line) {
  while (!next_line(line)) {
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n > 0) {
      buffer_.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // EOF (or a dead peer): hand back a non-empty unterminated final
    // line, exactly like read_stdio_line.
    return take_final_line(line);
  }
  return true;
}

bool Stream::write_all(const std::string& data) {
  size_t written = 0;
  while (written < data.size()) {
    // MSG_NOSIGNAL: a vanished client must surface as a return value,
    // not kill the server with SIGPIPE.
    const ssize_t n = ::send(fd_, data.data() + written, data.size() - written,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

bool Stream::set_nonblocking() {
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) >= 0;
}

IoStatus Stream::fill() {
  bool got_bytes = false;
  // A short burst, not read-until-EAGAIN: one connection must not be
  // able to starve the rest of the event loop with an endless firehose.
  for (int i = 0; i < 4; ++i) {
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n > 0) {
      buffer_.append(chunk, static_cast<size_t>(n));
      got_bytes = true;
      if (static_cast<size_t>(n) < sizeof(chunk)) break;  // kernel drained
      continue;
    }
    if (n == 0) return IoStatus::kEof;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return got_bytes ? IoStatus::kOk : IoStatus::kWouldBlock;
    }
    return IoStatus::kError;
  }
  return got_bytes ? IoStatus::kOk : IoStatus::kWouldBlock;
}

bool Stream::next_line(std::string& line) {
  const size_t newline = buffer_.find('\n', scanned_);
  if (newline == std::string::npos) {
    // Drop the returned lines once per batch, not once per line, and
    // remember how far the unterminated tail has been searched.
    buffer_.erase(0, head_);
    head_ = 0;
    scanned_ = buffer_.size();
    return false;
  }
  line.assign(buffer_, head_, newline - head_);
  head_ = scanned_ = newline + 1;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return true;
}

bool Stream::take_final_line(std::string& line) {
  line.assign(buffer_, head_);
  buffer_.clear();
  head_ = scanned_ = 0;
  return finish_eof_line(line);
}

IoStatus Stream::write_some(const std::string& data, size_t& offset) {
  while (offset < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + offset, data.size() - offset,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kWouldBlock;
      return IoStatus::kError;
    }
    offset += static_cast<size_t>(n);
  }
  return IoStatus::kOk;
}

bool read_stdio_line(std::FILE* in, std::string& line) {
  line.clear();
  int c;
  while ((c = std::fgetc(in)) != EOF) {
    if (c == '\n') {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return true;
    }
    line += static_cast<char>(c);
  }
  return finish_eof_line(line);
}

Listener::Listener(int port, int backlog) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  check_config(fd_ >= 0, str_format("socket: cannot create socket: %s",
                                    errno_string(errno).c_str()));
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(fd_, std::max(backlog, 16)) < 0) {
    const std::string why = errno_string(errno);
    ::close(fd_);
    fd_ = -1;
    throw ConfigError(str_format("socket: cannot listen on 127.0.0.1:%d: %s",
                                 port, why.c_str()));
  }
  // Non-blocking listener: try_accept() must return at once when no
  // connection is pending.
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL, 0) | O_NONBLOCK);

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = port;
  }
}

Listener::~Listener() {
  if (fd_ >= 0) ::close(fd_);
}

std::optional<Stream> Listener::try_accept() {
  while (true) {
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client >= 0) {
      // The event loop needs every client socket non-blocking. Linux
      // does not inherit O_NONBLOCK from the listener; set it here so
      // callers never have to remember.
      ::fcntl(client, F_SETFL, ::fcntl(client, F_GETFL, 0) | O_NONBLOCK);
      last_error_ = 0;
      return Stream(client);
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED) {
      last_error_ = 0;  // nothing usable pending right now
      return std::nullopt;
    }
    last_error_ = errno;
    return std::nullopt;
  }
}

WakePipe::WakePipe() {
  check_config(::pipe(fds_) == 0,
               str_format("socket: cannot create wake pipe: %s",
                          errno_string(errno).c_str()));
  for (const int fd : fds_) {
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    // Non-blocking on both ends: signal() must never stall a worker on
    // a full pipe, and drain() must never stall the event loop.
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  }
}

WakePipe::~WakePipe() {
  if (fds_[0] >= 0) ::close(fds_[0]);
  if (fds_[1] >= 0) ::close(fds_[1]);
}

void WakePipe::signal() {
  const char byte = 'w';
  // EAGAIN (pipe full) is success: a pending byte already guarantees
  // the next poll() wakes.
  [[maybe_unused]] const ssize_t n = ::write(fds_[1], &byte, 1);
}

void WakePipe::drain() {
  char sink[64];
  while (::read(fds_[0], sink, sizeof(sink)) > 0) {
  }
}

}  // namespace bfpp::net
