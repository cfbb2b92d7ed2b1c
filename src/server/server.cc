#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>

#include "base/cancel.h"
#include "base/fault.h"
#include "base/str.h"
#include "base/timer.h"
#include "base/trace.h"
#include "cq/parser.h"
#include "server/protocol.h"

namespace omqe::server {

namespace {

/// Registry options with the server's metric registry injected (unless the
/// caller already supplied one) — evaluated in the member-init list, where
/// `metrics_` is constructed before `registry_`.
RegistryOptions WithMetrics(RegistryOptions o, metrics::Registry* m) {
  if (o.metrics == nullptr) o.metrics = m;
  return o;
}

/// The wire name of `verb`, doubling as its trace-span name and latency
/// label. Static literals: trace rings store the pointer, never a copy.
const char* VerbName(Verb verb) {
  switch (verb) {
    case Verb::kPrepare: return "PREPARE";
    case Verb::kOpen: return "OPEN";
    case Verb::kFetch: return "FETCH";
    case Verb::kReset: return "RESET";
    case Verb::kClose: return "CLOSE";
    case Verb::kEvict: return "EVICT";
    case Verb::kMetrics: return "METRICS";
    case Verb::kTrace: return "TRACE";
    case Verb::kQuit: return "QUIT";
    case Verb::kShutdown: return "SHUTDOWN";
  }
  return "?";
}

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kError: return "error";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kInfo: return "info";
    case LogLevel::kDebug: return "debug";
  }
  return "?";
}

}  // namespace

bool ParseLogLevel(std::string_view text, LogLevel* out) {
  std::string lower;
  lower.reserve(text.size());
  for (char c : text) {
    lower.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (lower == "error") *out = LogLevel::kError;
  else if (lower == "warn") *out = LogLevel::kWarn;
  else if (lower == "info") *out = LogLevel::kInfo;
  else if (lower == "debug") *out = LogLevel::kDebug;
  else return false;
  return true;
}

// ---------------------------------------------------------------------------
// OmqeServer.
// ---------------------------------------------------------------------------

OmqeServer::OmqeServer(Vocabulary* vocab, const Ontology* onto,
                       const Database* db, ServerOptions options)
    : vocab_(vocab),
      options_(options),
      registry_(onto, db, WithMetrics(options.registry, &metrics_)),
      sessions_(options.limits, &metrics_) {
  OMQE_CHECK(vocab_ != nullptr);
  wire_stats_.write_timeout_closes =
      metrics_.GetCounter("omqe_write_timeout_closes_total");
  wire_stats_.oversized_lines =
      metrics_.GetCounter("omqe_oversized_lines_total");
  wire_stats_.forced_closes = metrics_.GetCounter("omqe_forced_closes_total");
  // The fault injector is process-global; expose it as a callback gauge so
  // the metric is a view, never a copy that can lag.
  metrics_.GetGauge("omqe_faults_fired")->SetCallback([]() -> int64_t {
    return static_cast<int64_t>(FaultInjector::Instance().fired());
  });
  for (size_t v = 0; v < kNumVerbs; ++v) {
    std::string name = "omqe_request_latency_ns{verb=\"";
    name += VerbName(static_cast<Verb>(v));
    name += "\"}";
    verb_latency_[v] = metrics_.GetHistogram(name);
  }
  if (options_.limits.idle_timeout_ms > 0) {
    // Sessions go idle without traffic, so reaping needs its own clock: a
    // half-timeout cadence bounds overstay at 1.5x the configured limit.
    reaper_ = std::thread([this] {
      const auto period =
          std::chrono::milliseconds(std::max<int64_t>(
              1, options_.limits.idle_timeout_ms / 2));
      std::unique_lock<std::mutex> lock(reaper_mu_);
      while (!reaper_cv_.wait_for(lock, period,
                                  [this] { return reaper_stop_; })) {
        sessions_.ReapIdle();
      }
    });
  }
}

void OmqeServer::LogEvent(LogLevel level, const char* event,
                          const std::string& detail) const {
  if (level > options_.log_level) return;
  // One write per event: format the whole line first so concurrent
  // connection threads never interleave mid-line.
  std::string line = "omqe_server ts_ns=";
  line += std::to_string(NowNanos());
  line += " level=";
  line += LogLevelName(level);
  line += " event=";
  line += event;
  if (!detail.empty()) {
    line += ' ';
    line += detail;
  }
  line += '\n';
  std::fwrite(line.data(), 1, line.size(), stderr);
}

OmqeServer::~OmqeServer() {
  if (reaper_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(reaper_mu_);
      reaper_stop_ = true;
    }
    reaper_cv_.notify_one();
    reaper_.join();
  }
}

void OmqeServer::DoPrepare(const Request& req, std::string* out) {
  // Exclusive for the WHOLE prepare, not just the parse: ParseCQ interns
  // query constants, and the preprocessing phase both reads the vocabulary
  // on every row access (arities) and registers fresh relations during
  // normalization — all of which must not run concurrently with another
  // PREPARE's writes or a FETCH's shared-lock renders.
  std::unique_lock<std::shared_mutex> lock(vocab_mu_);
  StatusOr<CQ> query = ParseCQ(req.query_text, vocab_);
  if (!query.ok()) {
    *out += ErrLineFor(query.status()) + "\n";
    return;
  }
  auto prepared = registry_.Prepare(req.name, query.value());
  if (!prepared.ok()) {
    // PREPARE's ResourceExhausted refusals (the admission estimate and the
    // chase fact budget) depend only on the query and the fixed environment,
    // so an identical resend fails the same way: answer the non-retryable
    // BADREQ, not ErrCodeFor's OVERLOAD.
    const Status& s = prepared.status();
    *out += (s.code() == StatusCode::kResourceExhausted
                 ? ErrLine(ErrCode::kBadReq, s.message())
                 : ErrLineFor(s)) +
            "\n";
    return;
  }
  *out += OkLine("PREPARED " + req.name + " trees=" +
                 std::to_string((*prepared)->num_progress_trees()) +
                 " chase_facts=" +
                 std::to_string((*prepared)->chase().db.TotalFacts())) +
          "\n";
}

void OmqeServer::DoOpen(const Request& req, std::string* out) {
  std::shared_ptr<const PreparedOMQ> prepared = registry_.Get(req.name);
  if (prepared == nullptr) {
    *out += ErrLine(ErrCode::kNotFound,
                    "unknown prepared query '" + req.name + "'") +
            "\n";
    return;
  }
  auto sid = sessions_.Open(std::move(prepared), req.complete);
  if (!sid.ok()) {
    *out += ErrLineFor(sid.status()) + "\n";
    return;
  }
  *out += OkLine("OPEN " + std::to_string(sid.value())) + "\n";
}

void OmqeServer::DoFetch(const Request& req, std::string* out) {
  uint64_t n = req.count;
  if (options_.max_fetch_batch > 0 && n > options_.max_fetch_batch) {
    n = options_.max_fetch_batch;
  }
  std::vector<ValueTuple> rows;
  bool done = false;
  Status status = sessions_.Fetch(req.session, n, &rows, &done);
  if (!status.ok()) {
    *out += ErrLineFor(status) + "\n";
    return;
  }
  {
    // Shared: rendering only reads the vocabulary's symbol tables. Hot
    // path — append in place (no per-row temporaries) and resolve
    // constants through the allocation-free name ref.
    std::shared_lock<std::shared_mutex> lock(vocab_mu_);
    for (const ValueTuple& row : rows) {
      out->append("ROW ");
      for (uint32_t i = 0; i < row.size(); ++i) {
        if (i) out->push_back(',');
        Value v = row[i];
        if (IsConstant(v)) {
          out->append(vocab_->ConstantName(v));
        } else if (v == kStar) {
          out->push_back('*');
        } else {
          out->append(vocab_->ValueName(v));
        }
      }
      out->push_back('\n');
    }
  }
  *out += OkLine("FETCH " + std::to_string(rows.size()) +
                 (done ? " done" : " more")) +
          "\n";
}

void OmqeServer::DoMetrics(const Request& req, std::string* out) {
  if (req.arg == "json") {
    *out += StatLine(metrics_.RenderBenchJson()) + "\n";
  } else {
    const std::string text = metrics_.RenderPrometheus();
    size_t start = 0;
    while (start < text.size()) {
      size_t nl = text.find('\n', start);
      if (nl == std::string::npos) nl = text.size();
      *out += MetricLine(std::string_view(text).substr(start, nl - start)) +
              "\n";
      start = nl + 1;
    }
  }
  *out += OkLine("METRICS") + "\n";
}

void OmqeServer::DoTrace(const Request& req, std::string* out) {
  if (req.arg == "on") {
    // Re-arm from a clean buffer so a dump reflects traffic since this
    // TRACE on, not whatever an earlier armed window left behind.
    trace::Clear();
    trace::Enable();
    *out += OkLine("TRACE on") + "\n";
    return;
  }
  if (req.arg == "off") {
    trace::Disable();
    *out += OkLine("TRACE off") + "\n";
    return;
  }
  // dump: recording continues while we snapshot (seqlock slots).
  std::vector<trace::Span> spans = trace::Dump();
  for (const trace::Span& s : spans) {
    *out += SpanLine(trace::FormatSpan(s)) + "\n";
  }
  *out += OkLine("TRACE " + std::to_string(spans.size()) + " spans") + "\n";
}

bool OmqeServer::HandleLine(std::string_view line, std::string* out) {
  auto request = ParseRequest(line);
  if (!request.ok()) {
    *out += ErrLine(ErrCode::kBadReq, request.status().message()) + "\n";
    return true;
  }
  const Request& req = request.value();
  const int64_t start_ns = NowNanos();
  bool keep;
  {
    trace::ScopedSpan span(VerbName(req.verb));
    keep = Dispatch(req, out);
  }
  const int64_t dur_ns = NowNanos() - start_ns;
  verb_latency_[static_cast<size_t>(req.verb)]->Record(
      static_cast<uint64_t>(dur_ns));
  if (options_.slow_request_ms > 0 &&
      dur_ns >= options_.slow_request_ms * 1'000'000) {
    // Structured slow-request line, with the spans this thread recorded
    // during the request when tracing is armed (arm via TRACE on or
    // --slow-request-ms, which enables tracing in the CLI front end).
    std::string detail = "verb=";
    detail += VerbName(req.verb);
    detail += " dur_ns=" + std::to_string(dur_ns);
    detail += " request=\"";
    detail.append(line.substr(0, 200));
    detail += '"';
    for (const trace::Span& s : trace::DumpCurrentThread(start_ns)) {
      detail += " span=\"" + trace::FormatSpan(s) + "\"";
    }
    LogEvent(LogLevel::kWarn, "slow_request", detail);
  }
  return keep;
}

bool OmqeServer::Dispatch(const Request& req, std::string* out) {
  switch (req.verb) {
    case Verb::kPrepare:
      DoPrepare(req, out);
      return true;
    case Verb::kOpen:
      DoOpen(req, out);
      return true;
    case Verb::kFetch:
      DoFetch(req, out);
      return true;
    case Verb::kReset: {
      Status s = sessions_.Reset(req.session);
      *out += (s.ok() ? OkLine("RESET " + std::to_string(req.session))
                      : ErrLineFor(s)) +
              "\n";
      return true;
    }
    case Verb::kClose: {
      Status s = sessions_.Close(req.session);
      *out += (s.ok() ? OkLine("CLOSE " + std::to_string(req.session))
                      : ErrLineFor(s)) +
              "\n";
      return true;
    }
    case Verb::kEvict:
      *out += (registry_.Evict(req.name)
                   ? OkLine("EVICT " + req.name)
                   : ErrLine(ErrCode::kNotFound,
                             "unknown prepared query '" + req.name + "'")) +
              "\n";
      return true;
    case Verb::kMetrics:
      DoMetrics(req, out);
      return true;
    case Verb::kTrace:
      DoTrace(req, out);
      return true;
    case Verb::kQuit:
      *out += OkLine("BYE") + "\n";
      return false;
    case Verb::kShutdown:
      BeginShutdown();
      *out += OkLine("SHUTDOWN") + "\n";
      return false;
  }
  return true;  // unreachable
}

// ---------------------------------------------------------------------------
// InProcessClient.
// ---------------------------------------------------------------------------

std::string InProcessClient::Roundtrip(std::string_view line) {
  std::string out;
  server_->HandleLine(line, &out);
  return out;
}

// ---------------------------------------------------------------------------
// TCP transport.
// ---------------------------------------------------------------------------

namespace {

/// Writes all of `data` to the non-blocking `fd`, polling POLLOUT in short
/// slices while the socket's send buffer is full. False closes the
/// connection: a real write error, an injected socket.write fault, or —
/// the case this function exists for — a reader stalled past the write
/// timeout (a kernel buffer that stays full means the client stopped
/// reading; without the deadline that client pins this connection thread
/// forever). Slices stay short so a server-wide shutdown is observed
/// within ~100ms even mid-stall.
bool SendAll(OmqeServer* server, int fd, std::string_view data) {
  trace::ScopedSpan span("conn.write", data.size());
  const int64_t timeout_ms = server->options().write_timeout_ms;
  const Deadline deadline =
      timeout_ms > 0 ? Deadline::AfterMillis(timeout_ms) : Deadline::Never();
  size_t written = 0;
  while (written < data.size()) {
    if (FaultFires(kFaultSocketWrite)) return false;
    ssize_t w = ::write(fd, data.data() + written, data.size() - written);
    if (w > 0) {
      written += static_cast<size_t>(w);
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      if (deadline.expired()) {
        server->wire_stats().write_timeout_closes->Inc();
        server->LogEvent(LogLevel::kWarn, "write_timeout_close",
                         "fd=" + std::to_string(fd) + " pending_bytes=" +
                             std::to_string(data.size() - written));
        return false;
      }
      if (server->shutdown_requested()) return false;
      int64_t slice = 100;
      if (!deadline.never()) {
        slice = std::min<int64_t>(
            slice, std::max<int64_t>(deadline.remaining_ms(), 1));
      }
      struct pollfd pfd = {fd, POLLOUT, 0};
      ::poll(&pfd, 1, static_cast<int>(slice));
      continue;
    }
    return false;  // EPIPE / reset / forced shutdown
  }
  return true;
}

/// Handles one request line on `fd`; returns false when the connection
/// should close. Blank lines and '#' comments are skipped, not answered.
bool HandleConnectionLine(OmqeServer* server, int fd, std::string_view line) {
  std::string_view trimmed = Trim(line);
  if (trimmed.empty() || trimmed[0] == '#') return true;
  std::string response;
  bool open = server->HandleLine(trimmed, &response);
  if (!SendAll(server, fd, response)) return false;
  return open;
}

/// Reads protocol lines off `fd`, handling each, until QUIT/SHUTDOWN, EOF,
/// a protocol violation (a line past max_line_bytes), or a server-wide
/// shutdown. A final line arriving without a trailing newline before EOF is
/// still executed and answered. The fd is NOT closed here — ServeTcp owns
/// it, so its drain path can force-::shutdown a straggler without racing
/// fd-number reuse.
void ServeConnection(OmqeServer* server, int fd) {
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open && !server->shutdown_requested()) {
    struct pollfd pfd = {fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, 200);
    if (ready < 0) {
      if (errno == EINTR) continue;  // interrupted by a signal: not fatal
      break;
    }
    if (ready == 0) continue;  // timeout: re-check shutdown
    if (FaultFires(kFaultSocketRead)) break;  // injected: drop the connection
    const int64_t read_start_ns = trace::Enabled() ? NowNanos() : 0;
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (read_start_ns != 0 && n > 0) {
      trace::RecordSpan("conn.read", read_start_ns,
                        NowNanos() - read_start_ns,
                        static_cast<uint64_t>(n));
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      continue;  // non-blocking fd: poll readiness can be spurious
    }
    if (n <= 0) {
      // EOF (or error): execute whatever is buffered as the last line.
      if (n == 0 && open && !buffer.empty()) {
        HandleConnectionLine(server, fd, buffer);
      }
      break;
    }
    buffer.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    for (size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      std::string_view line(buffer.data() + start, nl - start);
      start = nl + 1;
      open = HandleConnectionLine(server, fd, line);
      if (!open) break;
    }
    buffer.erase(0, start);
    // Input-buffer bound: what remains is one line still missing its '\n'.
    // Past the cap it can only grow, so answer BADREQ and hang up rather
    // than buffer without limit for a client that never sends a newline.
    const size_t cap = server->options().max_line_bytes;
    if (open && cap > 0 && buffer.size() > cap) {
      server->wire_stats().oversized_lines->Inc();
      server->LogEvent(LogLevel::kWarn, "oversize_close",
                       "fd=" + std::to_string(fd) + " buffered_bytes=" +
                           std::to_string(buffer.size()));
      SendAll(server, fd,
              ErrLine(ErrCode::kBadReq,
                      "line too long (max " + std::to_string(cap) + " bytes)") +
                  "\n");
      break;
    }
  }
  // FIN now (the client's read unblocks immediately); the fd itself is
  // closed by ServeTcp when it reaps this thread.
  ::shutdown(fd, SHUT_WR);
}

/// A connection thread plus its completion flag and fd, so the accept loop
/// can join finished threads as it goes (instead of accumulating one handle
/// per connection for the life of the server) and the drain path can
/// force-close stragglers.
struct Connection {
  std::thread thread;
  std::shared_ptr<std::atomic<bool>> done;
  int fd = -1;
};

}  // namespace

Status ServeTcp(OmqeServer* server, uint16_t port,
                std::function<void(uint16_t)> on_bound) {
  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) return Status::Internal("socket() failed");
  int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    ::close(listen_fd);
    return Status::Internal(std::string("bind() failed: ") +
                            std::strerror(errno));
  }
  if (::listen(listen_fd, 64) < 0) {
    ::close(listen_fd);
    return Status::Internal("listen() failed");
  }
  if (on_bound != nullptr) {
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd, reinterpret_cast<struct sockaddr*>(&addr), &len);
    on_bound(ntohs(addr.sin_port));
  }
  // One thread per connection: a connection lives as long as the client
  // keeps it open, so a fixed set of workers would let idle keep-alive
  // connections starve every later one.
  std::vector<Connection> connections;
  auto reap_finished = [&connections] {
    for (size_t i = 0; i < connections.size();) {
      if (connections[i].done->load(std::memory_order_acquire)) {
        connections[i].thread.join();
        ::close(connections[i].fd);
        connections[i] = std::move(connections.back());
        connections.pop_back();
      } else {
        ++i;
      }
    }
  };
  while (!server->shutdown_requested()) {
    struct pollfd pfd = {listen_fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, 200);
    if (ready < 0) {
      if (errno == EINTR) continue;  // interrupted by a signal: not fatal
      // Real poll failure: stop serving. The flag makes the live
      // connection loops exit, so the join below cannot hang.
      server->RequestShutdown();
      break;
    }
    reap_finished();  // connection churn must not accumulate dead handles
    if (ready == 0) continue;  // timeout: re-check shutdown
    int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) continue;
    server->LogEvent(LogLevel::kInfo, "accept", "fd=" + std::to_string(conn));
    // Non-blocking: the write path (SendAll) polls POLLOUT with a deadline
    // instead of blocking forever in write() on a stalled reader, and the
    // read path tolerates a spurious wakeup.
    int flags = ::fcntl(conn, F_GETFL, 0);
    if (flags >= 0) ::fcntl(conn, F_SETFL, flags | O_NONBLOCK);
    // Every reply is one write(); without TCP_NODELAY, Nagle holds a short
    // reply back until the client acknowledges the previous one, which a
    // client waiting on that reply delays by its delayed-ACK timer.
    int nodelay = 1;
    ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    if (server->options().sndbuf_bytes > 0) {
      int sndbuf = server->options().sndbuf_bytes;
      ::setsockopt(conn, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
    }
    Connection c;
    c.done = std::make_shared<std::atomic<bool>>(false);
    c.fd = conn;
    c.thread = std::thread([server, conn, done = c.done] {
      ServeConnection(server, conn);
      done->store(true, std::memory_order_release);
    });
    connections.push_back(std::move(c));
  }
  ::close(listen_fd);
  // Drain: connection loops poll with a 200ms timeout and observe the
  // shutdown flag, so normally every thread exits within one interval. A
  // straggler (e.g. stalled mid-write against a dead reader) gets until the
  // drain deadline, then its socket is force-shut — which pops its poll and
  // fails its next read/write — and the join completes.
  const int64_t drain_ms = server->options().drain_deadline_ms;
  const Deadline drain =
      drain_ms > 0 ? Deadline::AfterMillis(drain_ms) : Deadline::Never();
  bool forced = false;
  while (!connections.empty()) {
    reap_finished();
    if (connections.empty()) break;
    if (!forced && drain.expired()) {
      forced = true;
      for (Connection& c : connections) {
        server->wire_stats().forced_closes->Inc();
        server->LogEvent(LogLevel::kWarn, "forced_close",
                         "fd=" + std::to_string(c.fd) + " reason=drain_deadline");
        ::shutdown(c.fd, SHUT_RDWR);
      }
    }
    struct timespec ts = {0, 10'000'000};  // 10ms
    ::nanosleep(&ts, nullptr);
  }
  // Every connection is gone; close out the sessions they left behind so a
  // clean SHUTDOWN releases the prepared-artifact references it holds.
  server->sessions().CloseAll();
  return Status::OK();
}

StatusOr<std::string> TcpExchange(const std::string& host, uint16_t port,
                                  const std::string& script) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("socket() failed");
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host address '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return Status::Internal(std::string("connect() failed: ") +
                            std::strerror(errno));
  }
  std::string payload = script;
  if (!payload.empty() && payload.back() != '\n') payload += '\n';
  size_t written = 0;
  while (written < payload.size()) {
    ssize_t w = ::write(fd, payload.data() + written, payload.size() - written);
    if (w <= 0) {
      ::close(fd);
      return Status::Internal("write() failed");
    }
    written += static_cast<size_t>(w);
  }
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char chunk[4096];
  for (;;) {
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      ::close(fd);
      return Status::Internal("read() failed");
    }
    if (n == 0) break;
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

}  // namespace omqe::server
