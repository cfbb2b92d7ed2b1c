// omqe_server: the wire front end of the query-serving subsystem — load an
// ontology and database, then serve the line protocol (server/protocol.h)
// over TCP or stdio. Also doubles as the protocol client for scripting and
// the CI smoke job.
//
//   # serve the built-in demo environment on an ephemeral port
//   $ ./omqe_server --port=0
//   omqe_server: listening on 127.0.0.1:37211
//
//   # serve a real environment
//   $ ./omqe_server --ontology=onto.txt --data=facts.txt --port=7411
//
//   # REPL over stdio (each request line answered on stdout)
//   $ ./omqe_server --stdio
//
//   # client mode: send stdin's request lines to a running server, print
//   # every response line; exit 1 if any response is ERR
//   $ printf '...exchange...' | ./omqe_server --client --port=7411
//   (e.g. the lines PREPARE q1 q(x,y) :- HasOffice(x,y) / OPEN q1 /
//   FETCH 1 10 / CLOSE 1 / SHUTDOWN)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "base/fault.h"
#include "base/rng.h"
#include "base/timer.h"
#include "base/trace.h"
#include "data/loader.h"
#include "server/protocol.h"
#include "server/server.h"
#include "tgd/parser.h"

using namespace omqe;

namespace {

const char* kDemoOntology = R"(
  Researcher(x) -> exists y. HasOffice(x, y)
  HasOffice(x, y) -> Office(y)
  Office(x) -> exists y. InBuilding(x, y)
)";

const char* kDemoData = R"(
  Researcher(mary)
  Researcher(john)
  Researcher(mike)
  HasOffice(mary, room1)
  HasOffice(john, room4)
  InBuilding(room1, main1)
)";

/// Ceiling of every millisecond flag: 10^12 ms (about 31.7 years). As
/// nanoseconds that is 10^18, which leaves room below INT64_MAX (~9.2e18)
/// for any steady-clock reading it is added to.
constexpr uint64_t kMaxMillis = 1'000'000'000'000;

std::string ReadFileOr(const char* path, const char* fallback) {
  if (path == nullptr) return fallback;
  auto text = ReadFileToString(path);
  if (!text.ok()) {
    std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(text).value();
}

std::string ReadAllStdin() {
  std::string text;
  char buffer[1 << 12];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), stdin)) > 0) text.append(buffer, n);
  return text;
}

/// One exchange, retried up to `retries` extra times when the ONLY errors
/// in the response are retryable (DEADLINE / OVERLOAD — see protocol.h's
/// taxonomy). Exponential backoff with full jitter: attempt k sleeps a
/// uniform draw from [0, backoff_ms * 2^k], so a thundering herd of refused
/// clients decorrelates instead of reconverging on the same tick.
int RunClient(const std::string& host, uint16_t port, uint32_t retries,
              uint64_t backoff_ms) {
  const std::string script = ReadAllStdin();
  Rng rng(static_cast<uint64_t>(NowNanos()));
  for (uint32_t attempt = 0;; ++attempt) {
    auto response = server::TcpExchange(host, port, script);
    if (!response.ok()) {
      std::fprintf(stderr, "%s\n", response.status().ToString().c_str());
      return 1;
    }
    if (attempt < retries && server::AnyRetryableError(response.value())) {
      uint64_t ceiling = backoff_ms << std::min<uint32_t>(attempt, 16);
      uint64_t sleep_ms = ceiling > 0 ? rng.Below(ceiling + 1) : 0;
      std::fprintf(stderr,
                   "omqe_server: retryable failure, attempt %u/%u, backing "
                   "off %llu ms\n",
                   attempt + 1, retries,
                   static_cast<unsigned long long>(sleep_ms));
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      continue;
    }
    std::fputs(response.value().c_str(), stdout);
    // Any ERR terminator fails the exchange (the CI smoke contract).
    return server::AnyError(response.value()) ? 1 : 0;
  }
}

int RunStdio(server::OmqeServer* srv) {
  char line[1 << 16];
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    size_t len = std::strlen(line);
    while (len > 0 && (line[len - 1] == '\n' || line[len - 1] == '\r')) line[--len] = 0;
    size_t first = 0;
    while (first < len && (line[first] == ' ' || line[first] == '\t')) ++first;
    if (first == len || line[first] == '#') continue;  // blank / comment
    std::string out;
    bool keep_going = srv->HandleLine(std::string_view(line, len), &out);
    std::fputs(out.c_str(), stdout);
    std::fflush(stdout);
    if (!keep_going) break;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* ontology_path = nullptr;
  const char* data_path = nullptr;
  bool client = false;
  bool stdio = false;
  bool have_port = false;
  uint16_t port = 0;
  std::string host = "127.0.0.1";
  uint64_t retries = 0;
  uint64_t backoff_ms = 100;
  server::ServerOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto value = [&](std::string_view prefix) -> const char* {
      return arg.substr(0, prefix.size()) == prefix ? argv[i] + prefix.size()
                                                    : nullptr;
    };
    // Range-checked numeric flag: the protocol's strict ParseU64 plus a
    // ceiling, so an out-of-range value (--port=65537) is an error, never a
    // wrapped port (or a millisecond flag past kMaxMillis).
    auto numeric = [&](const char* v, uint64_t max_value, uint64_t* out) {
      uint64_t parsed = 0;
      if (!server::ParseU64(v, &parsed) || parsed > max_value) {
        std::fprintf(stderr, "%.*s expects an integer in [0, %llu], got '%s'\n",
                     static_cast<int>(arg.size() - std::strlen(v)), argv[i],
                     static_cast<unsigned long long>(max_value), v);
        std::exit(2);
      }
      *out = parsed;
      return parsed;
    };
    uint64_t n = 0;
    if (const char* v = value("--ontology=")) ontology_path = v;
    else if (const char* v = value("--data=")) data_path = v;
    else if (const char* v = value("--port=")) {
      port = static_cast<uint16_t>(numeric(v, 65535, &n));
      have_port = true;
    } else if (const char* v = value("--host=")) host = v;
    else if (const char* v = value("--max-rows=")) {
      numeric(v, UINT64_MAX, &options.limits.max_rows);
    } else if (const char* v = value("--max-sessions=")) {
      options.limits.max_sessions = static_cast<uint32_t>(numeric(v, UINT32_MAX, &n));
    } else if (const char* v = value("--idle-timeout-ms=")) {
      options.limits.idle_timeout_ms =
          static_cast<int64_t>(numeric(v, kMaxMillis, &n));
    } else if (const char* v = value("--prepare-deadline-ms=")) {
      numeric(v, kMaxMillis, &options.registry.prepare_deadline_ms);
    } else if (const char* v = value("--fetch-deadline-ms=")) {
      numeric(v, kMaxMillis, &options.limits.fetch_deadline_ms);
    } else if (const char* v = value("--write-timeout-ms=")) {
      options.write_timeout_ms = static_cast<int64_t>(numeric(v, kMaxMillis, &n));
    } else if (const char* v = value("--drain-deadline-ms=")) {
      options.drain_deadline_ms = static_cast<int64_t>(numeric(v, kMaxMillis, &n));
    } else if (const char* v = value("--max-line-bytes=")) {
      options.max_line_bytes = static_cast<size_t>(numeric(v, UINT32_MAX, &n));
    } else if (const char* v = value("--retries=")) {
      numeric(v, 100, &retries);
    } else if (const char* v = value("--backoff-ms=")) {
      numeric(v, 60'000, &backoff_ms);
    } else if (const char* v = value("--log-level=")) {
      if (!server::ParseLogLevel(v, &options.log_level)) {
        std::fprintf(stderr,
                     "--log-level expects error|warn|info|debug, got '%s'\n",
                     v);
        return 2;
      }
    } else if (const char* v = value("--slow-request-ms=")) {
      options.slow_request_ms = static_cast<int64_t>(numeric(v, kMaxMillis, &n));
      // Arm tracing so slow-request lines carry the spans recorded during
      // the offending request (HandleLine dumps the current thread's ring).
      if (options.slow_request_ms > 0) trace::Enable();
    } else if (const char* v = value("--fault=")) {
      // --fault=<point>:<spec>, e.g. --fault=chase.round:n2 or
      // --fault=socket.write:p0.01@7 — arms one injection point (fault.h).
      std::string_view spec_arg = v;
      size_t colon = spec_arg.rfind(':');
      FaultSpec spec;
      if (colon == std::string_view::npos || colon == 0 ||
          !ParseFaultSpec(spec_arg.substr(colon + 1), &spec)) {
        std::fprintf(stderr,
                     "--fault expects <point>:<spec> with spec nK, pF, or "
                     "pF@seed, got '%s'\n",
                     v);
        return 2;
      }
      FaultInjector::Instance().Arm(std::string(spec_arg.substr(0, colon)),
                                    spec);
    } else if (arg == "--client") {
      client = true;
    } else if (arg == "--stdio") {
      stdio = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }

  if (client) {
    if (!have_port) {
      std::fprintf(stderr, "--client needs --port=N\n");
      return 2;
    }
    return RunClient(host, port, static_cast<uint32_t>(retries), backoff_ms);
  }

  Vocabulary vocab;
  auto onto = ParseOntology(ReadFileOr(ontology_path, kDemoOntology), &vocab);
  if (!onto.ok()) {
    std::fprintf(stderr, "ontology: %s\n", onto.status().ToString().c_str());
    return 1;
  }
  Ontology ontology = std::move(onto).value();
  Database db(&vocab);
  if (Status s = LoadFacts(ReadFileOr(data_path, kDemoData), &db); !s.ok()) {
    std::fprintf(stderr, "data: %s\n", s.ToString().c_str());
    return 1;
  }

  server::OmqeServer srv(&vocab, &ontology, &db, options);
  std::fprintf(stderr, "omqe_server: %zu facts loaded\n", db.TotalFacts());
  if (stdio) return RunStdio(&srv);

  if (!have_port) {
    std::fprintf(stderr, "pass --port=N (0 = ephemeral), --stdio, or --client\n");
    return 2;
  }
  Status s = server::ServeTcp(&srv, port, [](uint16_t bound) {
    std::fprintf(stderr, "omqe_server: listening on 127.0.0.1:%u\n", bound);
  });
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "omqe_server: shutdown complete\n");
  return 0;
}
