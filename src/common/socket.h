// Minimal POSIX transport helpers for the `bfpp serve` line protocol
// (api/server.h): a loopback listen socket, a connected socket with
// buffered line reads (blocking or non-blocking), a self-pipe wakeup
// channel for poll() loops, and the stdio line reader the --stdio
// transport shares with it.
//
// Scope is one local server - no TLS. The listener binds 127.0.0.1
// only: the experiment server is a local tool, not an internet-facing
// daemon (front it with an SSH tunnel or a reverse proxy to share it).
// Connections are accepted with the non-blocking try_accept(), which
// the event-driven serve loop multiplexes with fd() readiness.
#pragma once

#include <cstdio>
#include <optional>
#include <string>

namespace bfpp::net {

// Outcome of one non-blocking I/O step on a Stream.
enum class IoStatus {
  kOk,          // made progress (and, for writes, finished the buffer)
  kWouldBlock,  // nothing readable / socket buffer full - poll and retry
  kEof,         // orderly peer close (reads only)
  kError,       // the peer is gone (EPIPE, ECONNRESET, ...)
};

// A connected TCP socket (or any byte stream addressed by fd). Owns and
// closes the descriptor; move-only.
class Stream {
 public:
  explicit Stream(int fd) : fd_(fd) {}
  ~Stream();
  Stream(Stream&& other) noexcept;
  Stream& operator=(Stream&& other) noexcept;
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  // Reads up to the next '\n' (consumed, and stripped along with a
  // preceding '\r'). Returns false on EOF with nothing left to return; a
  // non-empty final unterminated line is returned as-is (so a client
  // that forgets the trailing newline before closing still gets an
  // answer - same contract as read_stdio_line). Retries EINTR.
  bool read_line(std::string& line);

  // Writes all of `data`, retrying short writes and EINTR. Returns false
  // once the peer is gone (EPIPE & friends).
  bool write_all(const std::string& data);

  // Flips O_NONBLOCK on: fill()/write_some() below then never block.
  // Returns false when fcntl rejects the flag.
  bool set_nonblocking();

  // Non-blocking read step: appends whatever the kernel has ready (up
  // to one burst of a few reads) to the internal buffer. kOk = bytes
  // arrived, kWouldBlock = nothing readable right now, kEof = peer
  // half-closed (buffered bytes stay extractable), kError = reset.
  // Retries EINTR. Requires set_nonblocking() for the non-blocking
  // guarantee; on a blocking fd the first read may block.
  IoStatus fill();

  // Extracts the next *complete* buffered line (terminated by '\n',
  // which is consumed; a preceding '\r' is stripped). No syscall:
  // returns false when the buffer holds no full line - pair with
  // fill(). A line may be empty (bare newline). Each buffered byte is
  // searched for '\n' once, however many fill() calls a line spans.
  bool next_line(std::string& line);

  // Bytes buffered but not yet returned as a line. Right after
  // next_line() returned false, the length of the unterminated line in
  // progress - what a line-length cap checks.
  [[nodiscard]] size_t buffered() const { return buffer_.size() - head_; }

  // After fill() reported kEof: hands back the final unterminated line
  // left in the buffer, iff non-empty after '\r' stripping - the same
  // contract read_line() and read_stdio_line() implement. Returns
  // false when nothing (or only a bare '\r') remained.
  bool take_final_line(std::string& line);

  // Non-blocking write step: sends data[offset..) as far as the socket
  // accepts, advancing `offset`. kOk = everything written, kWouldBlock
  // = socket buffer full (poll POLLOUT and retry), kError = peer gone.
  // MSG_NOSIGNAL and EINTR handling match write_all().
  IoStatus write_some(const std::string& data, size_t& offset);

  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string buffer_;  // bytes read; [0, head_) were already returned
  size_t head_ = 0;     // start of the first byte not yet returned
  size_t scanned_ = 0;  // buffer_[head_, scanned_) holds no '\n'
};

// The stdio twin of Stream::read_line, used by `bfpp serve --stdio`:
// identical semantics (strip '\n' and a preceding '\r'; a non-empty
// final unterminated line is returned, then EOF reports false).
bool read_stdio_line(std::FILE* in, std::string& line);

// A listening TCP socket on 127.0.0.1:`port`. Port 0 picks an ephemeral
// port (read it back with port()). `backlog` sizes the kernel queue of
// not-yet-accepted connections - a burst buffer for the event loop,
// which accepts (and admits or explicitly rejects) connections itself.
// Throws bfpp::ConfigError when the socket cannot be created or bound.
class Listener {
 public:
  explicit Listener(int port, int backlog = 16);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  // Non-blocking accept for poll() loops that watch fd() for POLLIN.
  // Returns the next pending connection as a *non-blocking* Stream, or
  // nullopt with last_error() == 0 when no connection is pending (or
  // only a transient error occurred) and last_error() == the errno on
  // an unrecoverable accept failure.
  std::optional<Stream> try_accept();

  // The listening descriptor (non-blocking), for poll()-based loops.
  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] int port() const { return port_; }
  // errno of the last try_accept() failure; 0 after a
  // no-connection-pending try_accept().
  [[nodiscard]] int last_error() const { return last_error_; }

 private:
  // Single-threaded by contract (nothing here to BFPP_GUARDED_BY):
  // fd_ and port_ are immutable after the constructor, and last_error_
  // is only touched by the one thread that calls try_accept().
  int fd_ = -1;
  int port_ = 0;
  int last_error_ = 0;
};

// A reusable self-pipe: the standard way to interrupt a poll() loop
// from another thread. The loop polls fd() for POLLIN; any thread calls
// signal() to make that poll return; the loop calls drain() before
// re-polling so the pipe is level-triggered but not sticky. Throws
// bfpp::ConfigError when the pipe cannot be created.
class WakePipe {
 public:
  WakePipe();
  ~WakePipe();
  WakePipe(const WakePipe&) = delete;
  WakePipe& operator=(const WakePipe&) = delete;

  // The read end, for poll(POLLIN). Never read it directly - drain().
  [[nodiscard]] int fd() const { return fds_[0]; }

  // Makes the next (or current) poll on fd() see POLLIN. Callable from
  // any thread; coalesces (a full pipe already wakes the reader).
  void signal();

  // Empties the pipe. Event-loop thread only, after poll() reported
  // fd() readable and before acting on the wakeup's cause.
  void drain();

 private:
  // Deliberately mutex-free: both fds are
  // immutable after the constructor and both ends are non-blocking, so
  // signal() is one async-signal-safe write() with no lock to rank
  // against the server's mutexes. TSan covers the cross-thread
  // handshake; the happens-before edge is the poll()/write() pair.
  int fds_[2] = {-1, -1};  // [0] polled + drained, [1] signalled
};

}  // namespace bfpp::net
