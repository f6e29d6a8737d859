// A blocking loopback client for the `bfpp serve` line protocol, and a
// guard that runs the server's event loop on its own thread, shared by
// test_golden.cpp and test_server.cpp. The server's own net::Stream is
// non-blocking and driven by its poll() loop; a test client just wants
// to send a request and wait for its lines.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "api/server.h"
#include "common/socket.h"

namespace bfpp::test_util {

class LineClient {
 public:
  // Connects to 127.0.0.1:`port`; connected() tells whether that worked.
  // A non-zero `read_timeout` makes a read that waits longer fail, so a
  // server that never answers fails the test instead of hanging it.
  explicit LineClient(int port, std::chrono::seconds read_timeout = {}) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    timeval timeout{};
    timeout.tv_sec = static_cast<time_t>(read_timeout.count());
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                     sizeof(timeout)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  [[nodiscard]] bool connected() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }

  // Sends all of `data`, retrying short writes and EINTR. False once the
  // peer is gone.
  bool send(std::string_view data) {
    while (!data.empty()) {
      const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      data.remove_prefix(static_cast<size_t>(n));
    }
    return true;
  }

  // Reads up to the next '\n' (consumed, and stripped along with a
  // preceding '\r'). At EOF a non-empty unterminated final line is
  // returned as-is; after that, and on a read error or timeout, false.
  bool read_line(std::string& line) {
    size_t newline;
    while ((newline = buffer_.find('\n')) == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n > 0) {
        buffer_.append(chunk, static_cast<size_t>(n));
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        line = std::move(buffer_);
        buffer_.clear();
        if (!line.empty() && line.back() == '\r') line.pop_back();
        return !line.empty();
      }
    }
    line.assign(buffer_, 0, newline);
    buffer_.erase(0, newline + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    return true;
  }

  // Reads `n` lines into `out`, each with its '\n' framing put back, so
  // the result is byte-comparable against Server::handle() output.
  bool read_lines(size_t n, std::string& out) {
    out.clear();
    std::string line;
    for (size_t i = 0; i < n; ++i) {
      if (!read_line(line)) return false;
      out += line + "\n";
    }
    return true;
  }

 private:
  int fd_ = -1;
  std::string buffer_;  // bytes read past the last returned line
};

// Runs server.serve_on(listener) on its own thread. The destructor asks
// the server to shut down and joins, so a test that returns early - a
// failed ASSERT_* - leaves no joinable std::thread behind to terminate
// the test binary.
class ServeThread {
 public:
  ServeThread(api::Server& server, net::Listener& listener)
      : server_(server), thread_([this, &listener] {
          exit_code_ = server_.serve_on(listener);
          returned_ = true;
        }) {}
  ~ServeThread() {
    server_.request_shutdown();
    (void)join();
  }
  ServeThread(const ServeThread&) = delete;
  ServeThread& operator=(const ServeThread&) = delete;

  // Waits for serve_on to return and returns its exit code.
  int join() {
    if (thread_.joinable()) thread_.join();
    return exit_code_;
  }
  // Whether serve_on has returned.
  [[nodiscard]] bool returned() const { return returned_; }

 private:
  api::Server& server_;
  std::atomic<int> exit_code_{-1};
  std::atomic<bool> returned_{false};
  std::thread thread_;  // last: it starts once the fields above exist
};

}  // namespace bfpp::test_util
