// Open-loop redirect client and control-socket client for the redirectd
// part of the benchmark.
//
// The load client sends `GET <server> <site> <object>` lines on a fixed
// schedule (request k is due at start + k / rate), spread round-robin over
// a few pipelined connections, from one thread.  Each request is timed from
// when it was due, so a stall in the daemon also delays every request
// queued behind it.  Replies are read in blocks and every REPLICA/ORIGIN
// answer is checked against a ranking computed locally.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// The answer the daemon must give for one (client server, site) pair.
struct Expected {
  bool at_primary = true;
  std::uint32_t server = 0;
  double cost = 0.0;
};

/// Expected answers of one placement, N x M row-major.
struct AnswerTable {
  std::size_t sites = 0;
  std::vector<Expected> cells;
  const Expected& at(std::uint32_t server, std::uint32_t site) const {
    return cells[static_cast<std::size_t>(server) * sites + site];
  }
};

/// One placement swap made through the control socket.
struct ReloadEvent {
  std::uint64_t sent_ns = 0;
  std::uint64_t replied_ns = 0;
  int table = 0;  // index of the answer table it installs
};

struct RedirectRequest {
  std::uint32_t server = 0;
  std::uint32_t site = 0;
  std::uint32_t object = 0;
};

struct PhaseResult {
  double wall_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t answered = 0;
  /// Refused, malformed, unavailable, missing or wrong answers.
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  /// Latency percentiles, timed from due time, of each 0.25 s window of
  /// due time, and their medians: a host scheduling stall then moves one
  /// window, not the result.  Failures count as missing every limit.
  std::vector<double> window_p50s_us;
  std::vector<double> window_p99s_us;
  double window_p50_us = 0.0;
  double window_p99_us = 0.0;
  /// How late the generator put requests on the wire.
  double lag_p99_us = 0.0;
  std::uint64_t backlog_max = 0;
  /// Requests due but unanswered when the last request fell due.
  std::uint64_t backlog_end = 0;
  std::uint64_t recv_calls = 0;
  std::string first_error;
  /// Answers that match a placement other than tables[0], or whose
  /// placements disagree, kept for check_generations(); bit i of `matches`
  /// is set when the answer equals tables[i]'s.
  struct Pending {
    std::uint64_t sent_ns = 0;
    std::uint64_t recv_ns = 0;
    std::uint8_t matches = 0;
  };
  std::vector<Pending> pending;
};

/// Counts the pending answers that no placement serving between their send
/// and their reply would give.  The daemon starts on table 0; each reload
/// installs its table somewhere between its send and its reply.
std::uint64_t check_generations(const PhaseResult& phase,
                                const std::vector<ReloadEvent>& reloads);

std::uint64_t now_ns();

/// Median of `v` (0 when empty).
double median(std::vector<double> v);

class OpenLoopClient {
 public:
  /// Connects `connections` pipelined TCP connections to 127.0.0.1:port.
  OpenLoopClient(std::uint16_t port, std::size_t connections,
                 std::vector<RedirectRequest> requests);
  ~OpenLoopClient();
  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  /// Offers `rate` requests/s for `seconds`.  With one table every answer
  /// must match it; with several (placements swapped during the phase)
  /// answers that are not plainly table 0's are kept in `pending` for
  /// check_generations().
  PhaseResult run(double rate, double seconds,
                  const std::vector<const AnswerTable*>& tables);

 private:
  struct Conn;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<RedirectRequest> requests_;
  std::string lines_;
  std::vector<std::uint32_t> line_end_;
  std::size_t cursor_ = 0;
};

/// Blocking line client for the daemon's control socket.
class ControlClient {
 public:
  explicit ControlClient(std::uint16_t port);
  ~ControlClient();
  ControlClient(const ControlClient&) = delete;
  ControlClient& operator=(const ControlClient&) = delete;
  /// Sends one command line and returns the reply line without its newline.
  std::string call(const std::string& command);

 private:
  int fd_ = -1;
  std::string pending_;
};

}  // namespace perfbench
