// The end-to-end half of the benchmark: `bfpp serve` runs as its own
// process (so its CPU time and RSS are its own), and one thread drives it
// over loopback TCP with a poll() closed loop - each connection sends its
// next request only after the previous response has fully arrived.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "api/server.h"
#include "bench.h"
#include "common/json.h"
#include "common/strings.h"

namespace perfbench {

using bfpp::str_format;

std::string snapshot_path(const std::string& work_dir) {
  return work_dir + "/snapshot.jsonl";
}

std::string pristine_snapshot_path(const std::string& work_dir) {
  return work_dir + "/snapshot.pristine.jsonl";
}

void write_snapshot(const Workload& workload, const std::string& work_dir) {
  const std::string path = pristine_snapshot_path(work_dir);
  std::remove(path.c_str());
  bfpp::api::ServeOptions options;
  options.cache_capacity = workload.capacity;
  options.cache_file = path;
  bfpp::api::Server server(options);
  for (const Request& r : workload.warm) {
    const std::string response = server.handle(r.line);
    if (response.find("\"ok\":true") == std::string::npos) {
      throw std::runtime_error("perfbench: warm request failed: " +
                               response.substr(0, 200));
    }
  }
  if (!server.persist_cache()) {
    throw std::runtime_error("perfbench: cannot write " + path);
  }
}

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("perfbench: " + what);
}

// A `bfpp serve` child process. The destructor kills and reaps it if it
// is still running, so no error path leaves a server behind.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::vector<std::string>& args)
      : started_ns_(now_ns()) {
    int fds[2];
    if (pipe(fds) != 0) fail("pipe: " + std::string(std::strerror(errno)));
    pid_ = fork();
    if (pid_ < 0) fail("fork: " + std::string(std::strerror(errno)));
    if (pid_ == 0) {
      const int devnull = open("/dev/null", O_RDWR);
      dup2(devnull, 0);
      dup2(devnull, 1);
      dup2(fds[1], 2);
      close(fds[0]);
      close(fds[1]);
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(binary.c_str()));
      for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      execv(binary.c_str(), argv.data());
      _exit(127);
    }
    close(fds[1]);
    err_fd_ = fds[0];
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    if (err_fd_ >= 0) close(err_fd_);
  }

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] int64_t started_ns() const { return started_ns_; }

  // Reads the server's stderr until it announces its port.
  int wait_for_port(int timeout_ms) {
    const int64_t deadline = now_ns() + int64_t{timeout_ms} * 1000000;
    while (true) {
      static const std::string kBanner = "listening on 127.0.0.1:";
      const size_t at = err_.find(kBanner);
      if (at != std::string::npos &&
          err_.find(' ', at + kBanner.size()) != std::string::npos) {
        return std::atoi(err_.c_str() + at + kBanner.size());
      }
      const int left = static_cast<int>((deadline - now_ns()) / 1000000);
      if (left <= 0) fail("server did not start: " + err_);
      pollfd p{err_fd_, POLLIN, 0};
      if (poll(&p, 1, left) <= 0) continue;
      char buf[4096];
      const ssize_t n = read(err_fd_, buf, sizeof buf);
      if (n <= 0) fail("server exited during start-up: " + err_);
      err_.append(buf, static_cast<size_t>(n));
    }
  }

  // Waits for a clean exit after a shutdown request.
  void reap() {
    int status = 0;
    const int64_t deadline = now_ns() + 30'000'000'000;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_ns() > deadline) fail("server did not exit after shutdown");
      drain_stderr();
      usleep(1000);
    }
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      fail(str_format("server exited with status %d: %s", status,
                      err_.c_str()));
    }
  }

  // user+sys CPU seconds and peak RSS (MiB) of the running server.
  [[nodiscard]] double cpu_seconds() const {
    std::ifstream in(str_format("/proc/%d/stat", pid_));
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const size_t paren = text.rfind(')');
    if (paren == std::string::npos) fail("cannot read server /proc stat");
    std::istringstream fields(text.substr(paren + 2));
    std::string f;
    double utime = 0, stime = 0;
    for (int i = 3; i <= 15 && fields >> f; ++i) {
      if (i == 14) utime = std::atof(f.c_str());
      if (i == 15) stime = std::atof(f.c_str());
    }
    return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
  }
  [[nodiscard]] double peak_rss_mb() const {
    std::ifstream in(str_format("/proc/%d/status", pid_));
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
    }
    fail("cannot read server VmHWM");
  }

 private:
  void drain_stderr() {
    pollfd p{err_fd_, POLLIN, 0};
    while (poll(&p, 1, 0) > 0) {
      char buf[4096];
      const ssize_t n = read(err_fd_, buf, sizeof buf);
      if (n <= 0) break;
      err_.append(buf, static_cast<size_t>(n));
    }
  }

  pid_t pid_ = -1;
  int err_fd_ = -1;
  int64_t started_ns_ = 0;
  std::string err_;
};

int connect_loopback(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket: " + std::string(std::strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    fail("connect: " + std::string(std::strerror(errno)));
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

// Incremental framing of one response: a header line, then as many
// payload lines as its "lines" field announces.
struct Framer {
  std::string buf;
  size_t scanned = 0;
  size_t header_end = std::string::npos;
  long lines_left = -1;

  // True once a complete response sits in buf.
  bool complete() {
    while (true) {
      const size_t nl = buf.find('\n', scanned);
      if (nl == std::string::npos) return false;
      scanned = nl + 1;
      if (header_end == std::string::npos) {
        header_end = nl;
        const size_t at = buf.find("\"lines\":");
        lines_left = at != std::string::npos && at < nl
                         ? std::strtol(buf.c_str() + at + 8, nullptr, 10)
                         : 0;
      } else {
        --lines_left;
      }
      if (lines_left == 0) return true;
    }
  }
  void reset() {
    buf.clear();
    scanned = 0;
    header_end = std::string::npos;
    lines_left = -1;
  }
};

// Blocking round trip of a one-line control request on `fd`.
std::string roundtrip(int fd, const std::string& line) {
  const std::string out = line + "\n";
  size_t off = 0;
  Framer f;
  const int64_t deadline = now_ns() + 60'000'000'000;
  while (true) {
    if (now_ns() > deadline) fail("control request timed out: " + line);
    pollfd p{fd, static_cast<short>(POLLIN | (off < out.size() ? POLLOUT : 0)), 0};
    if (poll(&p, 1, 1000) <= 0) continue;
    if (off < out.size() && (p.revents & POLLOUT)) {
      const ssize_t n = write(fd, out.data() + off, out.size() - off);
      if (n > 0) off += static_cast<size_t>(n);
    }
    if (p.revents & (POLLIN | POLLHUP | POLLERR)) {
      char buf[65536];
      const ssize_t n = read(fd, buf, sizeof buf);
      if (n == 0) fail("server closed the connection on: " + line);
      if (n > 0) f.buf.append(buf, static_cast<size_t>(n));
      if (f.complete()) return f.buf;
    }
  }
}

bfpp::api::ServeStats read_stats(int fd) {
  return bfpp::api::ServeStats::from_wire(
      bfpp::json::parse(roundtrip(fd, "{\"type\":\"stats\"}")));
}

// Busy and stolen ticks of the whole VM so far (/proc/stat "cpu" line).
struct CpuTicks {
  double busy = 0.0;
  double steal = 0.0;
};
CpuTicks vm_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
         softirq = 0, steal = 0;
  in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal;
  return {user + nice + system + irq + softirq, steal};
}

// Share of the CPU time the VM asked for between a and b that the
// hypervisor gave to someone else.
double steal_share(const CpuTicks& a, const CpuTicks& b) {
  const double stolen = b.steal - a.steal;
  const double wanted = stolen + b.busy - a.busy;
  return wanted > 0 ? stolen / wanted : 0.0;
}

void copy_file(const std::string& from, const std::string& to) {
  std::ifstream in(from, std::ios::binary);
  std::ofstream out(to, std::ios::binary | std::ios::trunc);
  out << in.rdbuf();
  out.close();
  if (!in || !out) fail("cannot copy " + from + " to " + to);
}

// Starts a server on the pristine snapshot and waits for its first
// successful response; setup_s runs from fork() to that response.
std::unique_ptr<ServerProcess> start_server(const Workload& w,
                                            const LoadOptions& o, int& port,
                                            int& fd, double& setup_s) {
  std::vector<std::string> args = {"serve", "--port", "0", "--cache-size",
                                   std::to_string(w.capacity)};
  if (w.snapshot) {
    copy_file(pristine_snapshot_path(o.work_dir), snapshot_path(o.work_dir));
    args.push_back("--cache-file");
    args.push_back(snapshot_path(o.work_dir));
  }
  auto server = std::make_unique<ServerProcess>(o.server_binary, args);
  port = server->wait_for_port(60000);
  fd = connect_loopback(port);
  const std::string pong = roundtrip(fd, "{\"type\":\"ping\"}");
  if (pong.find("\"ok\":true") == std::string::npos) fail("ping: " + pong);
  setup_s = static_cast<double>(now_ns() - server->started_ns()) / 1e9;
  return server;
}

void stop_server(ServerProcess& server, int fd) {
  const std::string ack = roundtrip(fd, "{\"type\":\"shutdown\"}");
  close(fd);
  if (ack.find("\"ok\":true") == std::string::npos) fail("shutdown: " + ack);
  server.reap();
}

// Is `response` a well-formed success for `r`? Empty string = yes.
std::string check_response(const Request& r, const std::string& response) {
  const size_t nl = response.find('\n');
  const std::string header = response.substr(0, nl);
  if (header.find("\"ok\":true") == std::string::npos) {
    return "not ok: " + header.substr(0, 200);
  }
  if (!r.sweep && !r.csv) {
    if (header.find("\"report\":{") == std::string::npos || nl + 1 != response.size()) {
      return "run response without exactly one report";
    }
    if (header.find("\"found\":true") == std::string::npos) {
      return "run response with found=false";
    }
    return {};
  }
  const std::string rows = str_format("\"rows\":%zu,", r.cells.size());
  if (header.find(rows) == std::string::npos) {
    return str_format("expected %zu rows: %s", r.cells.size(),
                      header.substr(0, 200).c_str());
  }
  return {};
}

struct Conn {
  int fd = -1;
  long req = -1;  // request in flight, -1 = idle
  int64_t sent_ns = 0;
  std::string out;
  size_t out_off = 0;
  Framer in;
};

}  // namespace

LoadResult run_load(const Workload& w, const LoadOptions& o) {
  LoadResult res;

  // References for the byte-identity sample, outside the timed window:
  // a cacheless in-process Server computes every sampled cell afresh.
  std::vector<std::string> reference(w.requests.size());
  {
    bfpp::api::ServeOptions ref_options;
    ref_options.cache_capacity = 0;
    bfpp::api::Server ref(ref_options);
    for (const size_t i : w.sample) {
      reference[i] = ref.handle(w.requests[i].line);
      if (o.corrupt_reference) reference[i][reference[i].size() / 2] ^= 0x20;
    }
  }

  // setup_s: several cold starts; the last server stays up for the run.
  int port = 0;
  int fd = -1;
  std::unique_ptr<ServerProcess> server;
  for (int s = 0; s < o.setups; ++s) {
    double setup = 0.0;
    const CpuTicks vm0 = vm_ticks();
    server = start_server(w, o, port, fd, setup);
    res.setup_s.push_back(setup);
    res.setup_steal_share.push_back(steal_share(vm0, vm_ticks()));
    if (s + 1 < o.setups) stop_server(*server, fd);
  }

  std::vector<Conn> conns(static_cast<size_t>(w.connections));
  conns[0].fd = fd;
  for (size_t c = 1; c < conns.size(); ++c) conns[c].fd = connect_loopback(port);
  const bfpp::api::ServeStats before = read_stats(fd);

  std::vector<std::string> kept(w.requests.size());
  std::vector<char> bad(w.requests.size(), 0);
  std::vector<char> sampled(w.requests.size(), 0);
  for (const size_t i : w.sample) sampled[i] = 1;
  auto note_error = [&](const std::string& e) {
    if (res.errors.size() < 5) res.errors.push_back(e);
  };

  // The host reference, run interleaved with the workload: a ~0.1 ms
  // loop every 10 ms on a side thread (~1% of one vCPU), sampling the
  // host speed the window actually ran at.
  std::jthread probe([&res](const std::stop_token& stop) {
    while (!stop.stop_requested()) {
      res.host_ref_us.push_back(host_ref_us());
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  const double cpu0 = server->cpu_seconds();
  const CpuTicks vm0 = vm_ticks();
  const int64_t t0 = now_ns();
  LoadResult::Round round;
  int64_t round_t = t0;
  double round_cpu = cpu0;
  CpuTicks round_vm = vm0;
  auto close_round = [&](int64_t at) {
    const double cpu = server->cpu_seconds();
    const CpuTicks vm = vm_ticks();
    round.seconds = static_cast<double>(at - round_t) / 1e9;
    round.steal_share = steal_share(round_vm, vm);
    round.server_cpu_s = cpu - round_cpu;
    res.rounds.push_back(std::move(round));
    round = {};
    round_t = at;
    round_cpu = cpu;
    round_vm = vm;
  };
  size_t next = 0;
  size_t done = 0;
  int64_t last_progress = t0;
  auto send = [&](Conn& c, size_t i) {
    c.req = static_cast<long>(i);
    c.out = w.requests[i].line + "\n";
    c.out_off = 0;
    c.in.reset();
    c.sent_ns = now_ns();
    const ssize_t n = write(c.fd, c.out.data(), c.out.size());
    if (n > 0) c.out_off = static_cast<size_t>(n);
    ++res.attempted;
  };
  std::vector<pollfd> pfds(conns.size());
  while (done < w.requests.size()) {
    // Dispatch: every idle connection takes the next request; a
    // duplicate pair waits until two connections are idle together.
    std::vector<size_t> idle;
    for (size_t c = 0; c < conns.size(); ++c) {
      if (conns[c].req < 0) idle.push_back(c);
    }
    size_t used = 0;
    while (next < w.requests.size() && used < idle.size()) {
      if (w.requests[next].pair_first) {
        if (idle.size() - used < 2) break;
        send(conns[idle[used++]], next);
        send(conns[idle[used++]], next + 1);
        next += 2;
      } else {
        send(conns[idle[used++]], next++);
      }
    }
    for (size_t c = 0; c < conns.size(); ++c) {
      const Conn& k = conns[c];
      pfds[c] = {k.fd,
                 static_cast<short>(k.req < 0 ? 0
                                              : POLLIN | (k.out_off < k.out.size()
                                                              ? POLLOUT
                                                              : 0)),
                 0};
    }
    const int ready = poll(pfds.data(), pfds.size(), 1000);
    if (ready < 0 && errno != EINTR) fail("poll: " + std::string(std::strerror(errno)));
    if (now_ns() - last_progress > 60'000'000'000) {
      note_error("no response for 60 s");
      break;
    }
    for (size_t c = 0; c < conns.size(); ++c) {
      Conn& k = conns[c];
      if (k.req < 0 || pfds[c].revents == 0) continue;
      if ((pfds[c].revents & POLLOUT) && k.out_off < k.out.size()) {
        const ssize_t n = write(k.fd, k.out.data() + k.out_off, k.out.size() - k.out_off);
        if (n > 0) k.out_off += static_cast<size_t>(n);
      }
      if (!(pfds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      char buf[65536];
      const ssize_t n = read(k.fd, buf, sizeof buf);
      if (n == 0) fail("server closed a connection mid-run");
      if (n < 0) continue;
      k.in.buf.append(buf, static_cast<size_t>(n));
      if (!k.in.complete()) continue;
      const int64_t end = now_ns();
      const size_t i = static_cast<size_t>(k.req);
      const std::string problem = check_response(w.requests[i], k.in.buf);
      if (!problem.empty()) {
        bad[i] = 1;
        note_error(str_format("request %zu: %s", i, problem.c_str()));
      }
      if (sampled[i]) kept[i] = std::move(k.in.buf);
      k.req = -1;
      ++done;
      round.sojourn_ms.push_back(static_cast<double>(end - k.sent_ns) / 1e6);
      round.cells += w.requests[i].cells.size();
      res.cells += w.requests[i].cells.size();
      if (end - round_t >= kRoundNs) close_round(end);
      last_progress = end;
    }
  }
  if (!round.sojourn_ms.empty()) close_round(now_ns());
  probe.request_stop();
  probe.join();
  res.window_s = static_cast<double>(now_ns() - t0) / 1e9;
  res.steal_share = steal_share(vm0, vm_ticks());
  res.peak_rss_mb = server->peak_rss_mb();

  const bfpp::api::ServeStats after = read_stats(fd);
  for (size_t c = 1; c < conns.size(); ++c) close(conns[c].fd);
  stop_server(*server, fd);

  const uint64_t lat_n = after.latency.count - before.latency.count;
  res.service_mean_us =
      lat_n > 0 ? static_cast<double>(after.latency.sum_us - before.latency.sum_us) /
                      static_cast<double>(lat_n)
                : 0.0;
  res.hits = after.cache.hits - before.cache.hits;
  res.misses = after.cache.misses - before.cache.misses;
  res.insertions = after.cache.insertions - before.cache.insertions;
  res.evictions = after.cache.evictions - before.cache.evictions;
  res.coalesced = after.cache.coalesced - before.cache.coalesced;
  const CacheCounts& x = w.expected;
  res.counts_ok = res.hits + res.coalesced == x.hits_plus_coalesced &&
                  res.misses == x.misses && res.insertions == x.insertions &&
                  res.evictions == x.evictions &&
                  (!x.coalesced_fixed || res.coalesced == 0);
  if (!res.counts_ok) {
    note_error(str_format(
        "cache counts hits=%llu coalesced=%llu misses=%llu insertions=%llu "
        "evictions=%llu, expected hits+coalesced=%llu misses=%llu "
        "insertions=%llu evictions=%llu",
        (unsigned long long)res.hits, (unsigned long long)res.coalesced,
        (unsigned long long)res.misses, (unsigned long long)res.insertions,
        (unsigned long long)res.evictions,
        (unsigned long long)x.hits_plus_coalesced, (unsigned long long)x.misses,
        (unsigned long long)x.insertions, (unsigned long long)x.evictions));
  }

  // Byte identity of the sample against the serial reference.
  for (const size_t i : w.sample) {
    if (!kept[i].empty() && kept[i] != reference[i]) {
      bad[i] = 1;
      note_error(str_format("request %zu differs from the handle() reference", i));
    }
  }
  // A request never answered counts as failed too.
  res.failed = w.requests.size() - done;
  for (const char b : bad) res.failed += static_cast<uint64_t>(b);
  return res;
}

}  // namespace perfbench
