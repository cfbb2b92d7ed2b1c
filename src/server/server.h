// The query-serving server loop: one OmqeServer binds a QueryRegistry and a
// SessionManager over a fixed (vocabulary, ontology, database) environment
// and executes protocol requests (protocol.h).
//
// HandleLine() is the transport-agnostic core: one request line in, the
// response block (data lines + terminator) out. It is safe to call from any
// number of threads — PREPARE serializes on the registry's prepare mutex
// (query parsing interns into the shared vocabulary), while FETCH/row
// rendering takes a shared vocabulary lock so readers proceed in parallel.
//
// Three transports drive it:
//   - InProcessClient: HandleLine on the caller's thread — what the tests
//     and bench_server use (the request path a connection takes, minus the
//     socket).
//   - ServeTcp(): a POSIX accept loop; each connection gets its own thread
//     running read-line/handle/write-block until QUIT/EOF. SHUTDOWN stops
//     the accept loop, joins the connection threads, and returns.
//   - stdio (examples/omqe_server --stdio): read stdin, write stdout.
#ifndef OMQE_SERVER_SERVER_H_
#define OMQE_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/metrics.h"
#include "data/schema.h"
#include "server/protocol.h"
#include "server/registry.h"
#include "server/session_manager.h"

namespace omqe::server {

/// Stderr logging verbosity for connection-lifecycle events (accept,
/// write-timeout close, oversize close, forced close, slow request). Events
/// at or below the configured level are emitted as one structured
/// `key=value` line each; everything still ticks its counter regardless.
enum class LogLevel {
  kError = 0,
  kWarn = 1,   ///< default: closes, slow requests
  kInfo = 2,   ///< + accepts / connection lifecycle
  kDebug = 3,
};

/// Parses "error"/"warn"/"info"/"debug" (case-insensitive).
bool ParseLogLevel(std::string_view text, LogLevel* out);

struct ServerOptions {
  SessionLimits limits;
  RegistryOptions registry;
  /// Cap on rows a single FETCH may return (protocol hygiene). 0 = none.
  uint64_t max_fetch_batch = 100000;
  /// Per-connection input-buffer bound: a request line longer than this
  /// answers ERR BADREQ and closes the connection (a text protocol has no
  /// business carrying megabyte lines; an unbounded buffer is a memory DoS
  /// waiting for a client that never sends '\n'). 0 = unbounded.
  size_t max_line_bytes = 1u << 20;
  /// Per-response write timeout (ms): a connection whose reader stalls past
  /// this while the server has response bytes pending is closed (a stalled
  /// reader must not pin a connection thread forever). 0 = no timeout.
  int64_t write_timeout_ms = 10'000;
  /// SHUTDOWN drain budget (ms): connections still alive past this after
  /// the accept loop stops are force-closed (::shutdown on the socket).
  /// 0 = wait indefinitely.
  int64_t drain_deadline_ms = 5'000;
  /// When > 0, shrink each accepted connection's SO_SNDBUF to this many
  /// bytes. A latency/robustness test knob: with a tiny send buffer a
  /// non-reading client stalls the writer within one response block, making
  /// the write timeout deterministic to exercise.
  int sndbuf_bytes = 0;
  /// Stderr verbosity for connection-lifecycle events (see LogLevel).
  LogLevel log_level = LogLevel::kWarn;
  /// When > 0, a request whose handling takes longer than this logs one
  /// structured slow-request line (kWarn) carrying the request, the
  /// duration, and — when tracing is armed — the spans this thread recorded
  /// during the request. 0 = disabled.
  int64_t slow_request_ms = 0;
};

/// Transport/robustness counters — lock-free striped metric counters living
/// in the server's metric registry (so METRICS and robustness_test read the
/// same cells). They tick on connection threads concurrently.
struct WireStats {
  metrics::Counter* write_timeout_closes = nullptr;///< stalled readers closed
  metrics::Counter* oversized_lines = nullptr;     ///< BADREQ line-too-long
  metrics::Counter* forced_closes = nullptr;       ///< drain-deadline shutdowns
};

class OmqeServer {
 public:
  /// The environment must outlive the server. `vocab` stays unfrozen (query
  /// constants intern on PREPARE); all access is lock-disciplined here.
  /// When limits.idle_timeout_ms > 0 a background reaper thread closes
  /// idle sessions on a half-timeout cadence (stopped by the destructor).
  OmqeServer(Vocabulary* vocab, const Ontology* onto, const Database* db,
             ServerOptions options = {});
  ~OmqeServer();

  /// Executes one request line; appends response lines (each ending in \n)
  /// to *out. Returns false when the connection should close (QUIT) or the
  /// whole server should stop (SHUTDOWN; shutdown_requested() turns true).
  bool HandleLine(std::string_view line, std::string* out);

  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }
  /// Programmatic equivalent of the SHUTDOWN verb (used by transports on
  /// fatal errors so connection loops observe the stop and exit).
  void RequestShutdown() { shutdown_.store(true, std::memory_order_release); }

  /// Graceful-shutdown entry point (the SHUTDOWN verb): raises the shutdown
  /// flag AND puts the registry into sticky drain — the in-flight PREPARE's
  /// token is revoked so drain is not held hostage by a long chase
  /// saturation, and any PREPARE still parked on the prepare mutex (token
  /// not yet published, so CancelInFlight alone could not reach it) fails
  /// fast with Cancelled instead of chasing during drain. Connection drain
  /// itself — waiting out live connections up to drain_deadline_ms, then
  /// force-closing — is ServeTcp's job, since it owns the connection
  /// threads.
  void BeginShutdown() {
    RequestShutdown();
    registry_.BeginDrain();
  }

  QueryRegistry& registry() { return registry_; }
  SessionManager& sessions() { return sessions_; }
  WireStats& wire_stats() { return wire_stats_; }
  const ServerOptions& options() const { return options_; }
  /// The server's metric registry: every counter/gauge/histogram of the
  /// registry, session manager, wire layer, and per-verb latency lives here.
  /// Per-server (not Global()) so tests with many servers stay isolated.
  metrics::Registry& metric_registry() { return metrics_; }

  /// Emits one structured `key=value` stderr line when `level` is at or
  /// below the configured log_level. Public: the transports and the CLI
  /// front end log through the server they serve.
  void LogEvent(LogLevel level, const char* event,
                const std::string& detail) const;

 private:
  void DoPrepare(const Request& req, std::string* out);
  void DoOpen(const Request& req, std::string* out);
  void DoFetch(const Request& req, std::string* out);
  void DoMetrics(const Request& req, std::string* out);
  void DoTrace(const Request& req, std::string* out);
  /// The verb switch HandleLine wraps with latency/trace instrumentation.
  bool Dispatch(const Request& req, std::string* out);

  Vocabulary* vocab_;
  ServerOptions options_;
  /// Declared before the components that register metrics in it, so it is
  /// destroyed after them (they unbind their gauge callbacks on teardown).
  metrics::Registry metrics_;
  QueryRegistry registry_;
  SessionManager sessions_;
  /// Per-verb request-latency histograms, indexed by Verb.
  static constexpr size_t kNumVerbs = static_cast<size_t>(Verb::kShutdown) + 1;
  metrics::Histogram* verb_latency_[kNumVerbs] = {};
  /// PREPARE writes the vocabulary (parse interns constants, preprocessing
  /// reads arities and registers fresh relations); row rendering reads it.
  /// Readers share; each PREPARE is exclusive for its whole duration.
  mutable std::shared_mutex vocab_mu_;
  WireStats wire_stats_;
  std::atomic<bool> shutdown_{false};
  // Idle-session reaper (only started when an idle timeout is configured).
  std::mutex reaper_mu_;
  std::condition_variable reaper_cv_;
  bool reaper_stop_ = false;
  std::thread reaper_;
};

/// The in-process stand-in for a network connection, used by the tests and
/// bench_server: each request runs HandleLine on the caller's thread, as a
/// connection thread does.
class InProcessClient {
 public:
  explicit InProcessClient(OmqeServer* server) : server_(server) {}

  /// Executes `line` and returns its response block.
  std::string Roundtrip(std::string_view line);

 private:
  OmqeServer* server_;
};

/// Serves the protocol on a loopback TCP port — one dedicated thread per
/// connection, finished connection threads reaped on every accept tick.
/// Blocks until a SHUTDOWN request arrives, then joins the remaining
/// connections and returns OK. `port` 0 picks an ephemeral port;
/// `on_bound`, when set, is invoked with the bound port after listen()
/// succeeds and before the first accept — the race-free way for callers
/// (tests, scripts) to learn the port.
Status ServeTcp(OmqeServer* server, uint16_t port,
                std::function<void(uint16_t)> on_bound = nullptr);

/// Connects to a running server, sends each line of `script`, and collects
/// every response line. Returns an error if the connection fails; protocol
/// ERR lines are the caller's to inspect. Used by omqe_server --client.
StatusOr<std::string> TcpExchange(const std::string& host, uint16_t port,
                                  const std::string& script);

}  // namespace omqe::server

#endif  // OMQE_SERVER_SERVER_H_
