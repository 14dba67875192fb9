#include "redirect_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <limits>
#include <stdexcept>

namespace perfbench {
namespace {

constexpr std::uint64_t kFailed = std::numeric_limits<std::uint64_t>::max();
// Requests that fall due within one quantum go out in one write per
// connection; the wait counts in their latency, which runs from due time.
constexpr std::uint64_t kSendQuantumNs = 50'000;
constexpr double kWindowS = 0.25;

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket: " + std::string(strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const std::string why = strerror(errno);
    ::close(fd);
    throw std::runtime_error("connect to port " + std::to_string(port) +
                             ": " + why);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

// Parses an unsigned decimal at p, advancing p past it and one separator.
bool take_u32(const char*& p, const char* end, std::uint32_t& out) {
  if (p >= end || *p < '0' || *p > '9') return false;
  std::uint64_t v = 0;
  while (p < end && *p >= '0' && *p <= '9') {
    v = v * 10 + static_cast<std::uint64_t>(*p - '0');
    if (v > 0xffffffffu) return false;
    ++p;
  }
  out = static_cast<std::uint32_t>(v);
  if (p < end && *p == ' ') ++p;
  return true;
}

bool take_double(const char*& p, const char* end, double& out) {
  char buf[64];
  std::size_t n = 0;
  while (p + n < end && p[n] != ' ' && n + 1 < sizeof buf) {
    buf[n] = p[n];
    ++n;
  }
  if (n == 0) return false;
  buf[n] = '\0';
  char* stop = nullptr;
  out = std::strtod(buf, &stop);
  if (stop != buf + n) return false;
  p += n;
  if (p < end && *p == ' ') ++p;
  return true;
}

// Bit i set when the answer line equals table i's expected answer; 0 when
// it is not a REPLICA/ORIGIN answer or matches no table.
std::uint8_t match_answer(const char* line, std::size_t len,
                          const RedirectRequest& req,
                          const std::vector<const AnswerTable*>& tables) {
  const char* p = line;
  const char* end = line + len;
  bool at_primary = false;
  std::uint32_t target = 0;
  double cost = 0.0;
  if (len > 8 && std::memcmp(p, "REPLICA ", 8) == 0) {
    p += 8;
  } else if (len > 7 && std::memcmp(p, "ORIGIN ", 7) == 0) {
    p += 7;
    at_primary = true;
  } else {
    return 0;
  }
  if (!take_u32(p, end, target) || !take_double(p, end, cost)) return 0;
  std::uint8_t matches = 0;
  for (std::size_t t = 0; t < tables.size(); ++t) {
    const Expected& e = tables[t]->at(req.server, req.site);
    const bool same_target =
        e.at_primary == at_primary &&
        (at_primary ? target == req.site : target == e.server);
    if (same_target && std::fabs(e.cost - cost) <= 1e-4 * (1.0 + e.cost)) {
      matches = static_cast<std::uint8_t>(matches | (1u << t));
    }
  }
  return matches;
}

double percentile_us(std::vector<std::uint64_t>& v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k = std::min(
      v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  const std::uint64_t x = v[k];
  return x == kFailed ? std::numeric_limits<double>::infinity()
                      : static_cast<double>(x) * 1e-3;
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t check_generations(const PhaseResult& phase,
                                const std::vector<ReloadEvent>& reloads) {
  std::uint64_t wrong = 0;
  for (const auto& p : phase.pending) {
    const auto overlaps = [&](std::uint64_t a, std::uint64_t b) {
      return a <= p.recv_ns && p.sent_ns <= b;
    };
    std::uint8_t allowed = 0;
    int serving = 0;
    std::uint64_t stable_from = 0;
    for (const auto& r : reloads) {
      if (r.sent_ns > 0 && overlaps(stable_from, r.sent_ns - 1)) {
        allowed = static_cast<std::uint8_t>(allowed | (1u << serving));
      }
      if (overlaps(r.sent_ns, r.replied_ns)) {
        allowed = static_cast<std::uint8_t>(allowed | (1u << serving) |
                                            (1u << r.table));
      }
      serving = r.table;
      stable_from = r.replied_ns;
    }
    if (overlaps(stable_from, std::numeric_limits<std::uint64_t>::max())) {
      allowed = static_cast<std::uint8_t>(allowed | (1u << serving));
    }
    if ((allowed & p.matches) == 0) ++wrong;
  }
  return wrong;
}

struct OpenLoopClient::Conn {
  explicit Conn(int fd_arg) : fd(fd_arg) {}
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd = -1;
  std::string out;          // bytes not yet written
  std::size_t out_off = 0;  // written prefix of `out`
  std::string in;           // partial reply line
  // Requests on this connection, oldest first: index into requests_, due
  // time, send time (0 until written), and the byte offset in the
  // connection's output stream where each request's line ends.
  struct Inflight {
    std::size_t req = 0;
    std::uint64_t due_ns = 0;
    std::uint64_t sent_ns = 0;
    std::uint64_t stream_end = 0;
  };
  std::vector<Inflight> queue;
  std::size_t head = 0;          // first unanswered entry
  std::size_t unsent = 0;        // first entry not yet written
  std::uint64_t stream_bytes = 0;   // bytes appended so far
  std::uint64_t written_bytes = 0;  // bytes written so far
};

OpenLoopClient::OpenLoopClient(std::uint16_t port, std::size_t connections,
                               std::vector<RedirectRequest> requests)
    : requests_(std::move(requests)) {
  if (requests_.empty()) throw std::runtime_error("no requests to send");
  char buf[64];
  for (const auto& r : requests_) {
    const int n = std::snprintf(buf, sizeof buf, "GET %u %u %u\n", r.server,
                                r.site, r.object);
    lines_.append(buf, static_cast<std::size_t>(n));
    line_end_.push_back(static_cast<std::uint32_t>(lines_.size()));
  }
  for (std::size_t c = 0; c < connections; ++c) {
    conns_.push_back(std::make_unique<Conn>(connect_loopback(port)));
  }
}

OpenLoopClient::~OpenLoopClient() = default;

PhaseResult OpenLoopClient::run(double rate, double seconds,
                                const std::vector<const AnswerTable*>& tables) {
  // Sub-millisecond send deadlines need a tight timer slack.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  PhaseResult res;
  const auto total =
      static_cast<std::uint64_t>(std::llround(rate * seconds));
  res.attempted = total;
  if (total == 0) return res;
  const double ns_per_req = 1e9 / rate;
  std::vector<std::uint64_t> latency(total, kFailed);
  std::vector<std::uint64_t> lag(total, kFailed);
  std::vector<std::uint8_t> ok(total, 0);
  const std::size_t nconn = conns_.size();
  for (const auto& c : conns_) {
    c->out.clear();
    c->out_off = 0;
    c->in.clear();
    c->queue.clear();
    c->queue.reserve(total / nconn + 1);
    c->head = c->unsent = 0;
    c->stream_bytes = c->written_bytes = 0;
  }
  std::vector<std::size_t> req_of(total);
  std::vector<pollfd> pfd(nconn);
  char rbuf[1 << 16];

  const std::uint64_t start = now_ns() + 1'000'000;  // 1 ms to settle
  const std::uint64_t last_due =
      start + static_cast<std::uint64_t>(static_cast<double>(total - 1) *
                                         ns_per_req);
  const std::uint64_t give_up = last_due + 3'000'000'000ull;
  std::uint64_t scheduled = 0;
  std::uint64_t answered = 0;
  std::uint64_t last_flush = 0;
  bool backlog_end_taken = false;

  while (answered < total) {
    std::uint64_t now = now_ns();
    if (now > give_up) {
      if (res.first_error.empty()) res.first_error = "replies timed out";
      break;
    }
    // Schedule every request that has fallen due.
    if (now >= start && scheduled < total) {
      const auto due_count = std::min<std::uint64_t>(
          total, static_cast<std::uint64_t>(
                     static_cast<double>(now - start) / ns_per_req) +
                     1);
      while (scheduled < due_count) {
        const std::uint64_t k = scheduled++;
        Conn& c = *conns_[k % nconn];
        const std::size_t r = cursor_;
        cursor_ = (cursor_ + 1) % requests_.size();
        req_of[k] = r;
        const std::size_t b = r == 0 ? 0 : line_end_[r - 1];
        const std::size_t e = line_end_[r];
        c.out.append(lines_, b, e - b);
        c.stream_bytes += e - b;
        c.queue.push_back(
            {static_cast<std::size_t>(k),
             start + static_cast<std::uint64_t>(static_cast<double>(k) *
                                                ns_per_req),
             0, c.stream_bytes});
      }
    }
    if (!backlog_end_taken && scheduled == total) {
      backlog_end_taken = true;
      res.backlog_end = total - answered;
    }
    res.backlog_max = std::max(res.backlog_max, scheduled - answered);
    // Write what is pending, at most once per send quantum so that
    // requests falling due within one quantum share a write.
    const bool flush = now >= last_flush + kSendQuantumNs || scheduled == total;
    if (flush) last_flush = now;
    for (const auto& cp : conns_) {
      if (!flush) break;
      Conn& c = *cp;
      if (c.out_off >= c.out.size()) continue;
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
        res.first_error = "send: " + std::string(strerror(errno));
        goto done;
      }
      c.out_off += static_cast<std::size_t>(n);
      c.written_bytes += static_cast<std::uint64_t>(n);
      const std::uint64_t sent_at = now_ns();
      while (c.unsent < c.queue.size() &&
             c.queue[c.unsent].stream_end <= c.written_bytes) {
        auto& q = c.queue[c.unsent++];
        q.sent_ns = sent_at;
        lag[q.req] = sent_at > q.due_ns ? sent_at - q.due_ns : 0;
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
    }
    // Wait for replies until the next request falls due.
    {
      std::uint64_t wait_ns = 0;
      now = now_ns();
      if (scheduled < total) {
        const std::uint64_t next_due =
            start + static_cast<std::uint64_t>(static_cast<double>(scheduled) *
                                               ns_per_req);
        const std::uint64_t wake = std::max(next_due, last_flush + kSendQuantumNs);
        wait_ns = wake > now ? wake - now : 0;
      } else {
        wait_ns = 10'000'000;
      }
      for (std::size_t i = 0; i < nconn; ++i) {
        pfd[i].fd = conns_[i]->fd;
        pfd[i].events = POLLIN;
        if (conns_[i]->out_off < conns_[i]->out.size()) pfd[i].events |= POLLOUT;
        pfd[i].revents = 0;
      }
      timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000ull),
                  static_cast<long>(wait_ns % 1'000'000'000ull)};
      const int ready = ::ppoll(pfd.data(), nconn, &ts, nullptr);
      if (ready < 0 && errno != EINTR) {
        res.first_error = "poll: " + std::string(strerror(errno));
        break;
      }
      if (ready <= 0) continue;
    }
    for (std::size_t i = 0; i < nconn; ++i) {
      if ((pfd[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = *conns_[i];
      const ssize_t n = ::recv(c.fd, rbuf, sizeof rbuf, MSG_DONTWAIT);
      if (n == 0) {
        res.first_error = "daemon closed the connection";
        goto done;
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
        res.first_error = "recv: " + std::string(strerror(errno));
        goto done;
      }
      ++res.recv_calls;
      const std::uint64_t recv_at = now_ns();
      const char* p = rbuf;
      const char* end = rbuf + n;
      while (p < end) {
        const char* nl = static_cast<const char*>(
            std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
        if (nl == nullptr) {
          c.in.append(p, static_cast<std::size_t>(end - p));
          break;
        }
        const char* line = p;
        std::size_t len = static_cast<std::size_t>(nl - p);
        if (!c.in.empty()) {
          c.in.append(p, len);
          line = c.in.data();
          len = c.in.size();
        }
        p = nl + 1;
        if (c.head >= c.unsent) {
          res.first_error = "reply to a request not yet sent";
          goto done;
        }
        const auto& q = c.queue[c.head++];
        ++answered;
        const std::uint8_t all =
            static_cast<std::uint8_t>((1u << tables.size()) - 1u);
        const std::uint8_t m =
            match_answer(line, len, requests_[req_of[q.req]], tables);
        if (m == all) {
          ok[q.req] = 1;
        } else if (m != 0) {
          ok[q.req] = 1;
          res.pending.push_back({q.sent_ns, recv_at, m});
        } else {
          ++res.wrong;
          if (res.first_error.empty()) {
            res.first_error = "unexpected answer '" + std::string(line, len) +
                              "' to GET " +
                              std::to_string(requests_[req_of[q.req]].server) +
                              " " +
                              std::to_string(requests_[req_of[q.req]].site);
          }
        }
        if (ok[q.req]) latency[q.req] = recv_at - q.due_ns;
        if (!c.in.empty() && line == c.in.data()) c.in.clear();
      }
    }
  }
done:
  res.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  std::uint64_t good = 0;
  for (const auto o : ok) good += o;
  res.answered = answered;
  res.failed = total - good;
  {
    const auto per_window = static_cast<std::uint64_t>(
        std::max(1.0, rate * kWindowS));
    for (std::uint64_t w0 = 0; w0 + per_window <= total; w0 += per_window) {
      std::vector<std::uint64_t> win(
          latency.begin() + static_cast<std::ptrdiff_t>(w0),
          latency.begin() + static_cast<std::ptrdiff_t>(w0 + per_window));
      res.window_p50s_us.push_back(percentile_us(win, 0.50));
      res.window_p99s_us.push_back(percentile_us(win, 0.99));
    }
    res.window_p50_us = median(res.window_p50s_us);
    res.window_p99_us = median(res.window_p99s_us);
  }
  res.lag_p99_us = percentile_us(lag, 0.99);
  if (res.failed > 0 && res.first_error.empty()) {
    res.first_error = std::to_string(res.failed) + " requests failed";
  }
  // A phase that broke off leaves unread replies behind; the connections
  // cannot be reused after that.
  if (answered < total || !res.first_error.empty()) {
    for (const auto& c : conns_) {
      if (c->fd >= 0) ::close(c->fd);
      c->fd = -1;
    }
  }
  return res;
}

ControlClient::ControlClient(std::uint16_t port) : fd_(connect_loopback(port)) {}

ControlClient::~ControlClient() {
  if (fd_ >= 0) ::close(fd_);
}

std::string ControlClient::call(const std::string& command) {
  const std::string line = command + "\n";
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n =
        ::send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("control send: " + std::string(strerror(errno)));
    }
    off += static_cast<std::size_t>(n);
  }
  for (;;) {
    const auto nl = pending_.find('\n');
    if (nl != std::string::npos) {
      std::string reply = pending_.substr(0, nl);
      pending_.erase(0, nl + 1);
      return reply;
    }
    pollfd p{fd_, POLLIN, 0};
    if (::poll(&p, 1, 30'000) <= 0) {
      throw std::runtime_error("control reply timed out for: " + command);
    }
    char buf[4096];
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      throw std::runtime_error("control connection closed during: " + command);
    }
    pending_.append(buf, static_cast<std::size_t>(n));
  }
}

}  // namespace perfbench
