// The load generator: launches omqe_server on the workload's files and
// drives it over loopback TCP, closed loop (prepare-office, stream-chain)
// or open loop (interactive-chain), checking every answer it can.
#ifndef SERVEBENCH_DRIVE_H_
#define SERVEBENCH_DRIVE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "wire.h"
#include "workloads.h"

namespace sb {

struct Ctx {
  Workload w;
  std::string server_bin;
  std::string ontology_path;
  std::string data_path;
  Dataset data;
  Reference ref;
  /// The server command line (for the run record).
  std::vector<std::string> ServerArgv() const;
};

/// A span recorded by the generator around one call into the server:
/// name, start, end, the span that caused it, and its request id.
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  uint64_t id;
  uint64_t parent;
  uint64_t request;
};

/// Spans of one generator thread, kept in memory and written at the end.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}
  /// Records a span and returns its id (0 when tracing is off).
  uint64_t Add(const char* name, int64_t start, int64_t end, uint64_t parent,
               uint64_t request);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  static std::atomic<uint64_t> next_id_;
  bool on_;
  std::vector<Span> spans_;
};

/// What one pass of a workload measured. Latencies are per request, timed
/// from when the request was due.
struct PassStats {
  uint64_t sent = 0;
  std::map<std::string, uint64_t> errors;  // ERR replies by code
  uint64_t dropped = 0;                    // connections lost
  uint64_t unanswered = 0;                 // requests without a reply
  uint64_t rows_received = 0;
  uint64_t sessions_checked = 0;           // fully drained and compared
  uint64_t prepares_checked = 0;
  std::vector<std::string> mismatches;     // answer-check failures
  std::vector<double> request_us;          // OPEN / FETCH / CLOSE
  std::vector<double> fetch_us;            // FETCH only
  std::vector<double> prepare_ms;
  // Per session of each mode: rows received per second of the session's
  // duration (OPEN due until the CLOSE reply).
  std::vector<double> partial_rates, complete_rates;
  // Open-loop bookkeeping.
  std::vector<double> lag_us;              // send time minus due time
  std::vector<double> backlog_outside_prepare;  // sessions in flight
  double backlog_end = 0;
  std::string invalid;                     // why the sample is unusable
  std::vector<Span> spans;

  void Merge(PassStats&& o);
  void AddSession(bool complete, double rows, int64_t ns) {
    if (ns > 0) {
      (complete ? complete_rates : partial_rates)
          .push_back(rows * 1e9 / static_cast<double>(ns));
    }
  }
  uint64_t failed() const;
  /// Rows per second of the run's faster sessions (kFastQuantile): how fast
  /// a session streams.
  double PartialRowsPerS() const {
    return Quantile(partial_rates, 1 - kFastQuantile);
  }
  double CompleteRowsPerS() const {
    return Quantile(complete_rates, 1 - kFastQuantile);
  }
};

/// A launched server that is ready for measured requests.
struct LiveServer {
  std::unique_ptr<ServerProcess> proc;
  uint16_t port = 0;
  double setup_s = 0;   // launch until ready
  double prepare_ms = 0;  // the setup PREPARE roundtrip (chain workloads)
};

/// Launches the server and makes it ready: waits for it to listen and, for
/// the chain workloads, PREPAREs the served query. "" on success.
std::string Launch(const Ctx& ctx, LiveServer* out);

/// Runs the workload's traffic for `seconds` against `port`.
PassStats RunWorkload(const Ctx& ctx, uint16_t port, double seconds,
                      bool trace);

/// Open-loop interactive mix: user sessions (OPEN, FETCH 16 twice, CLOSE,
/// each step sent when the previous reply arrives) arrive at the workload's
/// fixed rate over three connections; with `reprepare`, a fourth connection
/// re-PREPAREs a second name every period. Marks the pass invalid when the
/// generator fell behind or the backlog outside PREPARE windows grew.
PassStats RunOpenInteractive(const Ctx& ctx, uint16_t port, double seconds,
                             bool trace, bool reprepare);

/// Closed-loop interactive mix on one connection (OPEN, FETCH 16 twice,
/// CLOSE, back to back): the baseline for the open loop's queueing, and the
/// TCP rung of the FETCH-16 ladder.
PassStats RunClosedInteractive(const Ctx& ctx, uint16_t port, double seconds);

/// Closed-loop FETCH-256 drains on one connection, whole partial and
/// complete sessions in pairs until `seconds` pass: the TCP rung of the
/// FETCH-256 ladder.
PassStats RunClosedStream(const Ctx& ctx, uint16_t port, double seconds);

/// Reads METRICS json, checks the server's own counters against what the
/// generator received (rows emitted == rows received, opened == closed +
/// reaped + live), records peak RSS, and shuts the server down. Appends
/// check failures to *mismatches. Returns VmHWM in MB.
double FinishServer(LiveServer* server, uint64_t rows_received,
                    std::vector<std::string>* mismatches);

}  // namespace sb

#endif  // SERVEBENCH_DRIVE_H_
