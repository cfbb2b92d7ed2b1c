// Robustness of the serving stack under deadlines, cancellation and
// injected faults:
//   - a PREPARE that exceeds its deadline answers ERR DEADLINE within 2x the
//     deadline, publishes nothing, and leaves the name re-preparable — the
//     acceptance contract;
//   - cooperative chase cancellation aborts cleanly, by deadline and by a
//     cross-thread Cancel (the ASan/TSan payload for the token plumbing);
//   - fetch deadlines return partial batches without ever losing or
//     duplicating rows;
//   - closing a session or displacing a prepared artifact tears it down
//     before the call returns, on a thread holding no lock;
//   - the fault-injection sweep drives every declared point and checks the
//     differential oracle: each request either completes correctly or fails
//     with a clean error — never a silently truncated success;
//   - wire-level garbage (oversized lines, binary junk, partial lines) is
//     answered with the BADREQ taxonomy, not a crash;
//   - a stalled reader trips the write timeout instead of pinning a
//     connection thread forever.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "base/cancel.h"
#include "base/counted_mutex.h"
#include "base/fault.h"
#include "base/timer.h"
#include "chase/chase.h"
#include "core/omq.h"
#include "core/prepared.h"
#include "eval/brute.h"
#include "server/protocol.h"
#include "server/registry.h"
#include "server/server.h"
#include "server/session_manager.h"
#include "test_util.h"

namespace omqe {
namespace {

using server::ResponseRows;
using server::ResponseTerminator;
using testing::World;

/// Clears the process-wide fault injector around every test that arms it,
/// so a failing assertion cannot leak an armed point into later tests.
struct FaultGuard {
  FaultGuard() { FaultInjector::Instance().Reset(); }
  ~FaultGuard() { FaultInjector::Instance().Reset(); }
};

// ---------------------------------------------------------------------------
// Shared environments.
// ---------------------------------------------------------------------------

/// The paper's office environment behind a live server (same shape as
/// server_test's fixture).
struct OfficeServer : World {
  Ontology onto;
  std::unique_ptr<server::OmqeServer> srv;

  explicit OfficeServer(server::ServerOptions options = {}) {
    onto = Onto(R"(
      Researcher(x) -> exists y. HasOffice(x, y)
      HasOffice(x, y) -> Office(y)
      Office(x) -> exists y. InBuilding(x, y)
    )");
    Load(R"(
      Researcher(mary) Researcher(john) Researcher(mike)
      HasOffice(mary, room1) HasOffice(john, room4)
      InBuilding(room1, main1)
    )");
    srv = std::make_unique<server::OmqeServer>(&vocab, &onto, &db, options);
  }
};

constexpr char kOfficeQuery[] =
    "q(x1, x2, x3) :- HasOffice(x1, x2), InBuilding(x2, x3)";

/// An environment whose PREPARE-time chase runs for seconds: a 2x-branching
/// existential frontier over 128 seeds, driven to depth ~15 by a 12-atom
/// path query. Every test that prepares the heavy query arms a deadline or
/// a cancel, so the chase never runs to completion — the size only has to
/// dominate the deadline with a wide margin on fast hardware.
struct HeavyServer : World {
  Ontology onto;
  std::unique_ptr<server::OmqeServer> srv;

  explicit HeavyServer(server::ServerOptions options = {}) {
    onto = Onto("P(x) -> exists y1, y2. P(y1), P(y2), E(x, y1)");
    for (int i = 0; i < 128; ++i) Load("P(s" + std::to_string(i) + ")");
    // The admission estimator would (correctly) reject this ontology from
    // structure alone; disable it — these tests are about what happens when
    // the expensive phase actually runs.
    options.registry.max_estimated_chase_facts = 0;
    srv = std::make_unique<server::OmqeServer>(&vocab, &onto, &db, options);
  }
};

constexpr char kHeavyQuery[] =
    "q(x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13) :- "
    "E(x1, x2), E(x2, x3), E(x3, x4), E(x4, x5), E(x5, x6), E(x6, x7), "
    "E(x7, x8), E(x8, x9), E(x9, x10), E(x10, x11), E(x11, x12), "
    "E(x12, x13)";

/// The oracle rows of the office query, rendered like the wire.
std::set<std::string> OfficeOracle(OfficeServer* w) {
  auto prepared = w->srv->registry().Get("offices");
  EXPECT_NE(prepared, nullptr);
  std::set<std::string> want;
  for (const ValueTuple& t : BruteMinimalPartialAnswers(
           w->Query(kOfficeQuery), prepared->chase().db)) {
    want.insert(w->Render(t));
  }
  return want;
}

// ---------------------------------------------------------------------------
// Raw-socket helpers for the wire-level tests.
// ---------------------------------------------------------------------------

int ConnectLoopback(uint16_t port, int rcvbuf_bytes = 0) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf_bytes > 0) {
    // Must be set BEFORE connect to affect the advertised window.
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                 sizeof(rcvbuf_bytes));
  }
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)),
      0)
      << std::strerror(errno);
  return fd;
}

bool SendRaw(int fd, std::string_view data) {
  size_t written = 0;
  while (written < data.size()) {
    ssize_t w = ::send(fd, data.data() + written, data.size() - written,
                       MSG_NOSIGNAL);
    if (w <= 0) return false;
    written += static_cast<size_t>(w);
  }
  return true;
}

std::string RecvAll(int fd) {
  std::string out;
  char chunk[4096];
  for (;;) {
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    out.append(chunk, static_cast<size_t>(n));
  }
  return out;
}

/// ServeTcp on its own thread; the constructor blocks until the ephemeral
/// port is bound.
struct TcpServer {
  explicit TcpServer(server::OmqeServer* srv) : srv_(srv) {
    std::future<uint16_t> bound = port_.get_future();
    thread_ = std::thread([this] {
      Status s = server::ServeTcp(srv_, /*port=*/0,
                                  [this](uint16_t p) { port_.set_value(p); });
      EXPECT_TRUE(s.ok()) << s.ToString();
    });
    port = bound.get();
    EXPECT_NE(port, 0);
  }

  /// Sends SHUTDOWN (unless the server is already stopping) and joins.
  ~TcpServer() {
    if (!srv_->shutdown_requested()) {
      server::TcpExchange("127.0.0.1", port, "SHUTDOWN\n");
    }
    thread_.join();
  }

  uint16_t port = 0;

 private:
  server::OmqeServer* srv_;
  std::promise<uint16_t> port_;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Primitives: CancelToken, fault specs, error taxonomy.
// ---------------------------------------------------------------------------

TEST(CancelTokenTest, CancelAndDeadlineSemantics) {
  CancelToken fresh;
  EXPECT_TRUE(fresh.Check().ok());
  EXPECT_TRUE(fresh.CheckNow().ok());
  EXPECT_TRUE(CheckCancel(nullptr).ok());  // null token: always OK

  fresh.Cancel();
  EXPECT_TRUE(fresh.cancelled());
  EXPECT_EQ(fresh.Check().code(), StatusCode::kCancelled);
  EXPECT_EQ(fresh.CheckNow().code(), StatusCode::kCancelled);

  // ms <= 0 builds an already-expired deadline (callers gate on their own
  // "0 disables" convention before constructing one).
  CancelToken expired(Deadline::AfterMillis(0));
  EXPECT_EQ(expired.CheckNow().code(), StatusCode::kDeadlineExceeded);
  // The strided Check consults the clock on its very first call (tick 0),
  // so even a hot loop observes an expired deadline promptly.
  EXPECT_EQ(expired.Check().code(), StatusCode::kDeadlineExceeded);

  Deadline never = Deadline::Never();
  EXPECT_TRUE(never.never());
  EXPECT_FALSE(never.expired());
  EXPECT_EQ(never.remaining_ms(), INT64_MAX);
  Deadline later = Deadline::AfterMillis(60'000);
  EXPECT_FALSE(later.expired());
  EXPECT_GT(later.remaining_ms(), 0);
  EXPECT_LE(later.remaining_ms(), 60'000);
}

TEST(FaultSpecTest, ParsesAndRejects) {
  FaultSpec spec;
  ASSERT_TRUE(ParseFaultSpec("n5", &spec));
  EXPECT_EQ(spec.nth, 5u);
  ASSERT_TRUE(ParseFaultSpec("p0.25", &spec));
  EXPECT_DOUBLE_EQ(spec.probability, 0.25);
  ASSERT_TRUE(ParseFaultSpec("p0.5@1234", &spec));
  EXPECT_DOUBLE_EQ(spec.probability, 0.5);
  EXPECT_EQ(spec.seed, 1234u);

  EXPECT_FALSE(ParseFaultSpec("", &spec));
  EXPECT_FALSE(ParseFaultSpec("n0", &spec));
  EXPECT_FALSE(ParseFaultSpec("nxyz", &spec));
  EXPECT_FALSE(ParseFaultSpec("p", &spec));
  EXPECT_FALSE(ParseFaultSpec("p1.5", &spec));
  EXPECT_FALSE(ParseFaultSpec("p0.5@", &spec));
  EXPECT_FALSE(ParseFaultSpec("q0.5", &spec));
}

TEST(ErrTaxonomyTest, CodesNamesRetryabilityAndParsing) {
  using server::ErrCode;
  EXPECT_TRUE(server::IsRetryable(ErrCode::kDeadline));
  EXPECT_TRUE(server::IsRetryable(ErrCode::kOverload));
  EXPECT_FALSE(server::IsRetryable(ErrCode::kBadReq));
  EXPECT_FALSE(server::IsRetryable(ErrCode::kNotFound));
  EXPECT_FALSE(server::IsRetryable(ErrCode::kCancelled));
  EXPECT_FALSE(server::IsRetryable(ErrCode::kInternal));

  EXPECT_EQ(server::ErrCodeFor(Status::InvalidArgument("x")),
            ErrCode::kBadReq);
  EXPECT_EQ(server::ErrCodeFor(Status::ParseError("x")), ErrCode::kBadReq);
  EXPECT_EQ(server::ErrCodeFor(Status::NotSupported("x")), ErrCode::kBadReq);
  EXPECT_EQ(server::ErrCodeFor(Status::NotFound("x")), ErrCode::kNotFound);
  EXPECT_EQ(server::ErrCodeFor(Status::DeadlineExceeded("x")),
            ErrCode::kDeadline);
  EXPECT_EQ(server::ErrCodeFor(Status::ResourceExhausted("x")),
            ErrCode::kOverload);
  EXPECT_EQ(server::ErrCodeFor(Status::Cancelled("x")), ErrCode::kCancelled);
  EXPECT_EQ(server::ErrCodeFor(Status::Internal("x")), ErrCode::kInternal);

  // Wire round-trip.
  std::string line = server::ErrLine(ErrCode::kDeadline, "too slow");
  EXPECT_EQ(line, "ERR DEADLINE too slow");
  ErrCode code;
  ASSERT_TRUE(server::ParseErrCode(line, &code));
  EXPECT_EQ(code, ErrCode::kDeadline);
  EXPECT_FALSE(server::ParseErrCode("OK FETCH 3 done", &code));
  EXPECT_FALSE(server::ParseErrCode("ERR legacy-message", &code));

  // The client's retry predicate: retryable-only blocks retry; any fatal
  // code (or a legacy/unknown one) pins the failure.
  EXPECT_TRUE(server::AnyRetryableError("ERR DEADLINE x\n"));
  EXPECT_TRUE(server::AnyRetryableError("ROW a,b\nERR OVERLOAD shed\n"));
  EXPECT_FALSE(server::AnyRetryableError("OK FETCH 2 done\n"));
  EXPECT_FALSE(server::AnyRetryableError("ERR BADREQ nope\n"));
  EXPECT_FALSE(server::AnyRetryableError("ERR DEADLINE x\nERR BADREQ y\n"));
  EXPECT_FALSE(server::AnyRetryableError("ERR legacy-message\n"));
}

// ---------------------------------------------------------------------------
// The tentpole acceptance: PREPARE deadlines.
// ---------------------------------------------------------------------------

TEST(RobustnessTest, PrepareDeadlineAnswersWithinTwiceTheDeadline) {
  constexpr uint64_t kDeadlineMs = 250;
  server::ServerOptions options;
  options.registry.prepare_deadline_ms = kDeadlineMs;
  HeavyServer w(options);
  server::InProcessClient client(w.srv.get());

  int64_t start = NowNanos();
  std::string r =
      client.Roundtrip(std::string("PREPARE heavy ") + kHeavyQuery);
  int64_t elapsed_ms = (NowNanos() - start) / 1'000'000;

  // ERR DEADLINE, and promptly: the chase checkpoints every candidate, so
  // the abort lands within 2x the deadline even under sanitizers.
  ASSERT_TRUE(server::IsError(r)) << r;
  server::ErrCode code;
  ASSERT_TRUE(server::ParseErrCode(ResponseTerminator(r), &code)) << r;
  EXPECT_EQ(code, server::ErrCode::kDeadline) << r;
  EXPECT_LT(elapsed_ms, static_cast<int64_t>(2 * kDeadlineMs)) << r;

  // Nothing was published: the server keeps answering, the name stays
  // absent, and its sessions are untouched.
  EXPECT_EQ(w.srv->registry().Get("heavy"), nullptr);
  EXPECT_EQ(w.srv->registry().size(), 0u);
  EXPECT_EQ(w.srv->metric_registry()
                .GetCounter("omqe_prepare_deadline_exceeded_total")
                ->Value(),
            1u);
  EXPECT_TRUE(server::IsError(client.Roundtrip("OPEN heavy")));

  // Re-preparable: lift the deadline and publish a tractable query under
  // the SAME name.
  w.srv->registry().set_prepare_deadline_ms(0);
  std::string again = client.Roundtrip("PREPARE heavy q(x) :- P(x)");
  ASSERT_FALSE(server::IsError(again)) << again;
  EXPECT_NE(w.srv->registry().Get("heavy"), nullptr);

  // METRICS carries the deadline counter.
  std::string metrics = client.Roundtrip("METRICS");
  EXPECT_NE(metrics.find("METRIC omqe_prepare_deadline_exceeded_total 1\n"),
            std::string::npos)
      << metrics;
}

TEST(RobustnessTest, ShutdownCancelsInFlightPrepare) {
  HeavyServer w;  // no deadline: only the cancel can stop this PREPARE
  server::InProcessClient client(w.srv.get());
  auto pending = std::async(std::launch::async, [&] {
    return client.Roundtrip(std::string("PREPARE heavy ") + kHeavyQuery);
  });
  // Give the request time to enter the chase, then revoke it the way the
  // SHUTDOWN verb does.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  w.srv->BeginShutdown();
  std::string r = pending.get();
  ASSERT_TRUE(server::IsError(r)) << r;
  server::ErrCode code;
  ASSERT_TRUE(server::ParseErrCode(ResponseTerminator(r), &code)) << r;
  EXPECT_EQ(code, server::ErrCode::kCancelled) << r;
  EXPECT_EQ(w.srv->registry().Get("heavy"), nullptr);
  EXPECT_EQ(
      w.srv->metric_registry().GetCounter("omqe_prepare_cancelled_total")->Value(),
      1u);
}

// ---------------------------------------------------------------------------
// Chase cancellation at the round and candidate checkpoints.
// ---------------------------------------------------------------------------

TEST(RobustnessTest, ChaseCancellationAbortsCleanly) {
  World w;
  Ontology onto = w.Onto("P(x) -> exists y1, y2. P(y1), P(y2), E(x, y1)");
  for (int i = 0; i < 8; ++i) w.Load("P(s" + std::to_string(i) + ")");

  // Deadline-driven abort: deterministic (the chase runs for far longer
  // than 30ms at depth 22).
  {
    ChaseOptions options;
    options.null_depth = 22;
    CancelToken token(Deadline::AfterMillis(30));
    options.cancel = &token;
    auto result = RunChase(w.db, onto, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  }

  // Cross-thread Cancel() mid-run: the chase observes the flag at its
  // per-fact / per-candidate checkpoints and unwinds without applying a
  // partially enumerated round.
  {
    ChaseOptions options;
    options.null_depth = 22;
    CancelToken token;
    options.cancel = &token;
    std::thread canceller([&token] {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      token.Cancel();
    });
    auto result = RunChase(w.db, onto, options);
    canceller.join();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  }

  // A null token changes nothing: the same options without a cancel
  // complete at a modest depth.
  {
    ChaseOptions options;
    options.null_depth = 6;
    auto result = RunChase(w.db, onto, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT((*result)->db.TotalFacts(), w.db.TotalFacts());
  }
}

// ---------------------------------------------------------------------------
// Fetch deadlines: partial batches, never lost rows.
// ---------------------------------------------------------------------------

TEST(RobustnessTest, FetchDeadlineReturnsPartialBatchesWithoutLosingRows) {
  constexpr int kRows = 100000;
  World w;
  Ontology onto = w.Onto("HasOffice(x, y) -> Office(y)");
  std::string facts;
  facts.reserve(static_cast<size_t>(kRows) * 24);
  for (int i = 0; i < kRows; ++i) {
    facts += "HasOffice(p" + std::to_string(i) + ", o" + std::to_string(i) +
             ")\n";
  }
  w.Load(facts);
  OMQ omq = MakeOMQ(onto, w.Query("q(x, y) :- HasOffice(x, y)"));
  PrepareOptions popts;
  popts.for_partial = false;  // complete-mode cursor is all this test needs
  auto prepared = PreparedOMQ::Prepare(omq, w.db, popts);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  server::SessionLimits limits;
  limits.fetch_deadline_ms = 1;
  metrics::Registry metrics;
  server::SessionManager manager(limits, &metrics);
  auto sid = manager.Open(*prepared, /*complete=*/true);
  ASSERT_TRUE(sid.ok());

  // One giant fetch cannot finish inside 1ms, so it must come back as a
  // partial batch: rows so far, done=false, counter ticked. The rows left
  // the cursor — an implementation that errored instead would lose them.
  // On an overloaded machine the 1ms can also burn before the FIRST row;
  // that answers retryable DEADLINE with the cursor untouched (the
  // zero-row regression below), so this drain retries exactly as a real
  // client would — an error with rows in the batch would still fail here.
  auto fetch_retrying = [&](std::vector<ValueTuple>* batch, bool* done) {
    for (;;) {
      Status s = manager.Fetch(*sid, kRows, batch, done);
      if (s.ok()) return;
      if (s.code() != StatusCode::kDeadlineExceeded || !batch->empty()) {
        *done = true;  // break the caller's drain loop before failing
        ASSERT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s.ToString();
        ASSERT_TRUE(batch->empty());
        return;
      }
    }
  };
  std::vector<ValueTuple> first;
  bool done = true;
  fetch_retrying(&first, &done);
  EXPECT_FALSE(done);
  EXPECT_LT(first.size(), static_cast<size_t>(kRows));
  EXPECT_GE(first.size(), 128u);  // the checkpoint stride guarantees progress
  EXPECT_GE(metrics.GetCounter("omqe_fetch_deadline_hits_total")->Value(), 1u);

  // Draining to done collects every row exactly once: the deadline slices
  // the stream, it never drops or duplicates.
  std::vector<ValueTuple> rows = first;
  while (!done) {
    std::vector<ValueTuple> batch;
    fetch_retrying(&batch, &done);
    rows.insert(rows.end(), batch.begin(), batch.end());
  }
  ASSERT_EQ(rows.size(), static_cast<size_t>(kRows));
  std::set<std::string> distinct;
  for (const ValueTuple& t : rows) distinct.insert(w.Render(t));
  EXPECT_EQ(distinct.size(), static_cast<size_t>(kRows));
  EXPECT_EQ(distinct.count("p0,o0"), 1u);
  EXPECT_EQ(distinct.count("p" + std::to_string(kRows - 1) + ",o" +
                           std::to_string(kRows - 1)),
            1u);
}

TEST(RobustnessTest, ZeroRowFetchDeadlineIsRetryableNotAnEmptySpin) {
  // Bugfix regression: the fetch-deadline checkpoint at (emitted & 127) == 0
  // includes emitted == 0, so a deadline that expired before the first row
  // used to answer an EMPTY batch with done=false — a loaded client would
  // spin on empty FETCHes forever with no retryable signal. With nothing
  // gathered there is nothing to lose: the fetch must fail DeadlineExceeded.
  World w;
  Ontology onto = w.Onto("HasOffice(x, y) -> Office(y)");
  w.Load("HasOffice(mary, room1) HasOffice(john, room4)");
  OMQ omq = MakeOMQ(onto, w.Query("q(x, y) :- HasOffice(x, y)"));
  auto prepared = PreparedOMQ::Prepare(omq, w.db);
  ASSERT_TRUE(prepared.ok());

  metrics::Registry metrics;
  server::SessionManager manager({}, &metrics);
  auto sid = manager.Open(*prepared, /*complete=*/false);
  ASSERT_TRUE(sid.ok());

  // Deterministic via the public deadline seam: already expired at entry.
  std::vector<ValueTuple> rows;
  bool done = true;
  Status s = manager.FetchWithDeadline(*sid, 10, Deadline::AfterMillis(0),
                                       &rows, &done);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s.ToString();
  EXPECT_TRUE(rows.empty());
  EXPECT_FALSE(done) << "an errored fetch must not report the cursor done";
  EXPECT_EQ(metrics.GetCounter("omqe_fetch_deadline_hits_total")->Value(), 1u);
  EXPECT_EQ(metrics.GetCounter("omqe_fetch_deadline_empty_total")->Value(), 1u);

  // The session is untouched: a retry with a sane deadline gets every row.
  done = false;
  ASSERT_TRUE(
      manager.FetchWithDeadline(*sid, 10, Deadline::Never(), &rows, &done)
          .ok());
  EXPECT_EQ(rows.size(), 2u);
  EXPECT_TRUE(done);

  // And the wire maps it to the retryable DEADLINE code.
  EXPECT_EQ(server::ErrCodeFor(s), server::ErrCode::kDeadline);
  EXPECT_TRUE(server::IsRetryable(server::ErrCode::kDeadline));
}

TEST(RobustnessTest, ZeroRowFetchDeadlineAnswersErrDeadlineOnTheWire) {
  // The wire-level half of the zero-row regression: a FETCH whose 1ms
  // deadline burns entirely while a concurrent fetch holds the session
  // cursor must answer ERR DEADLINE (retryable), never "OK 0 rows, not
  // done". The lock-holder fetches a six-figure row count, which the
  // partial-batch test above already establishes takes far longer than the
  // deadline, so the window is wide; the attempt loop absorbs scheduling
  // noise anyway.
  constexpr int kRows = 100000;
  server::ServerOptions options;
  options.limits.fetch_deadline_ms = 1;
  World w;
  Ontology onto = w.Onto("HasOffice(x, y) -> Office(y)");
  std::string facts;
  facts.reserve(static_cast<size_t>(kRows) * 24);
  for (int i = 0; i < kRows; ++i) {
    facts += "HasOffice(p" + std::to_string(i) + ", o" + std::to_string(i) +
             ")\n";
  }
  w.Load(facts);
  auto srv = std::make_unique<server::OmqeServer>(&w.vocab, &onto, &w.db,
                                                  options);
  server::InProcessClient client(srv.get());
  ASSERT_FALSE(server::IsError(
      client.Roundtrip("PREPARE big q(x, y) :- HasOffice(x, y)")));
  uint64_t sid = 0;
  ASSERT_TRUE(server::ParseOpenSession(client.Roundtrip("OPEN big"), &sid));

  server::SessionManager& manager = srv->sessions();
  bool saw_deadline_err = false;
  for (int attempt = 0; attempt < 5 && !saw_deadline_err; ++attempt) {
    std::atomic<bool> holder_started{false};
    std::thread holder([&manager, &holder_started, sid] {
      std::vector<ValueTuple> sink;
      bool hdone = false;
      holder_started.store(true, std::memory_order_release);
      // Holds the session lock for the whole six-figure enumeration.
      manager.FetchWithDeadline(sid, kRows, Deadline::Never(), &sink, &hdone);
    });
    while (!holder_started.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    // This FETCH parks on the session lock until the holder drains the
    // cursor — far past its 1ms deadline — then wakes with zero rows
    // gathered.
    std::string r = client.Roundtrip("FETCH " + std::to_string(sid) + " 5");
    holder.join();
    if (server::IsError(r)) {
      server::ErrCode code;
      ASSERT_TRUE(server::ParseErrCode(ResponseTerminator(r), &code)) << r;
      EXPECT_EQ(code, server::ErrCode::kDeadline) << r;
      EXPECT_EQ(ResponseRows(r).size(), 0u) << r;
      saw_deadline_err = true;
    } else {
      // Lost the race (the holder finished before the FETCH parked):
      // restart the cursor and try again.
      ASSERT_FALSE(server::IsError(
          client.Roundtrip("RESET " + std::to_string(sid))));
    }
  }
  EXPECT_TRUE(saw_deadline_err)
      << "zero-row deadline fetch never surfaced ERR DEADLINE";
  EXPECT_GE(srv->metric_registry()
                .GetCounter("omqe_fetch_deadline_empty_total")
                ->Value(),
            1u);
}

// ---------------------------------------------------------------------------
// Teardown outside every lock. Closing a session or displacing a prepared
// artifact may drop the last reference to an arbitrarily expensive object
// (cursor, link overlay, chase result). Each such drop must have happened
// by the time the call returns, and on a thread holding no CountedMutex, so
// it never stalls concurrent Open/Lookup/Get.
// ---------------------------------------------------------------------------

/// Watches one PreparedOMQ's teardown through a weak_ptr, and records how
/// many CountedMutex locks the thread that dropped its last reference held.
struct TeardownProbe {
  std::weak_ptr<const PreparedOMQ> artifact;
  std::shared_ptr<int> locks_held = std::make_shared<int>(-1);  // -1: not yet

  /// Returns the only strong reference to `prepared`; dropping its last copy
  /// records locks_held and frees the artifact.
  std::shared_ptr<const PreparedOMQ> Track(
      std::shared_ptr<const PreparedOMQ> prepared) {
    artifact = prepared;
    const PreparedOMQ* raw = prepared.get();
    return std::shared_ptr<const PreparedOMQ>(
        raw, [prepared = std::move(prepared),
              held = locks_held](const PreparedOMQ*) mutable {
          *held = static_cast<int>(CountedMutex::HeldByThisThread());
          prepared.reset();
        });
  }
};

/// One tracked partial-mode artifact over a one-fact environment.
struct TeardownEnv : World {
  Ontology onto = Onto("HasOffice(x, y) -> Office(y)");
  TeardownProbe probe;
  std::shared_ptr<const PreparedOMQ> tracked;

  TeardownEnv() {
    Load("HasOffice(mary, room1)");
    auto prepared = PreparedOMQ::Prepare(
        MakeOMQ(onto, Query("q(x, y) :- HasOffice(x, y)")), db);
    EXPECT_TRUE(prepared.ok());
    if (prepared.ok()) tracked = probe.Track(std::move(prepared).value());
  }
};

TEST(RobustnessTest, ClosedSessionIsTornDownByCloseOutsideEveryLock) {
  // Bugfix regression: Close used to destroy the (possibly last-ref)
  // session while holding the manager mutex, stalling every concurrent
  // Open/Lookup behind the destructor. Close now moves the reference out
  // under the lock and drops it after releasing it.
  TeardownEnv env;
  ASSERT_NE(env.tracked, nullptr);
  server::SessionManager manager;
  auto sid = manager.Open(std::move(env.tracked), /*complete=*/false);
  ASSERT_TRUE(sid.ok());
  // The session's cursor now holds the only reference behind the probe.
  ASSERT_FALSE(env.probe.artifact.expired());
  ASSERT_TRUE(manager.Close(*sid).ok());
  EXPECT_TRUE(env.probe.artifact.expired()) << "Close left the session alive";
  EXPECT_EQ(*env.probe.locks_held, 0) << "session torn down under a lock";
  std::vector<ValueTuple> rows;
  bool done = false;
  EXPECT_EQ(manager.Fetch(*sid, 1, &rows, &done).code(),
            StatusCode::kNotFound);
}

TEST(RobustnessTest, ReapedSessionIsTornDownByReapIdleOutsideEveryLock) {
  TeardownEnv env;
  ASSERT_NE(env.tracked, nullptr);
  server::SessionLimits limits;
  limits.idle_timeout_ms = 1;
  server::SessionManager manager(limits);
  auto sid = manager.Open(std::move(env.tracked), /*complete=*/false);
  ASSERT_TRUE(sid.ok());
  // Used once, so ReapIdle owes it no open-to-first-fetch grace cycle.
  ASSERT_TRUE(manager.Reset(*sid).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_FALSE(env.probe.artifact.expired());
  EXPECT_EQ(manager.ReapIdle(), 1u);
  EXPECT_TRUE(env.probe.artifact.expired()) << "ReapIdle left it alive";
  EXPECT_EQ(*env.probe.locks_held, 0) << "session torn down under a lock";
}

TEST(RobustnessTest, ClosedSessionsAreTornDownByCloseAllOutsideEveryLock) {
  TeardownEnv env;
  ASSERT_NE(env.tracked, nullptr);
  server::SessionManager manager;
  // Two sessions share the artifact; it goes when the second one does.
  ASSERT_TRUE(manager.Open(env.tracked, /*complete=*/false).ok());
  ASSERT_TRUE(manager.Open(std::move(env.tracked), /*complete=*/false).ok());
  ASSERT_FALSE(env.probe.artifact.expired());
  EXPECT_EQ(manager.CloseAll(), 2u);
  EXPECT_EQ(manager.live_sessions(), 0u);
  EXPECT_TRUE(env.probe.artifact.expired()) << "CloseAll left a session alive";
  EXPECT_EQ(*env.probe.locks_held, 0) << "session torn down under a lock";
}

TEST(RobustnessTest, DisplacedArtifactIsFreedByEvictAndByRePrepare) {
  // The registry's two displacing writes drop the old artifact after mu_ is
  // released (an OMQE_CHECK in front of each drop enforces that no lock is
  // held); here the weak_ptr probe shows the drop has happened by the time
  // the call returns when nothing else holds the artifact.
  World w;
  Ontology onto = w.Onto("HasOffice(x, y) -> Office(y)");
  w.Load("HasOffice(mary, room1)");
  server::QueryRegistry registry(&onto, &w.db);
  const CQ query = w.Query("q(x, y) :- HasOffice(x, y)");

  ASSERT_TRUE(registry.Prepare("offices", query).ok());
  std::weak_ptr<const PreparedOMQ> first = registry.Get("offices");
  ASSERT_FALSE(first.expired());
  ASSERT_TRUE(registry.Prepare("offices", query).ok());  // re-PREPARE
  EXPECT_TRUE(first.expired()) << "re-PREPARE left the old artifact alive";
  std::weak_ptr<const PreparedOMQ> second = registry.Get("offices");
  ASSERT_FALSE(second.expired());

  ASSERT_TRUE(registry.Evict("offices"));
  EXPECT_TRUE(second.expired()) << "Evict left the artifact alive";
  EXPECT_EQ(registry.Get("offices"), nullptr);
  EXPECT_EQ(registry.size(), 0u);
}

TEST(RobustnessTest, ShutdownCancelsQueuedPrepareBeforeItChases) {
  // Bugfix regression: a PREPARE parked behind the in-flight one has not
  // published its CancelToken yet, so BeginShutdown's CancelInFlight could
  // not reach it — it would run its FULL multi-second chase during drain.
  // The sticky drain flag, re-checked after the prepare mutex is acquired,
  // fails it fast instead.
  HeavyServer w;  // no deadline: only drain can stop these PREPAREs
  server::InProcessClient c1(w.srv.get());
  server::InProcessClient c2(w.srv.get());
  auto first = std::async(std::launch::async, [&] {
    return c1.Roundtrip(std::string("PREPARE heavy ") + kHeavyQuery);
  });
  // Let the first PREPARE enter its chase, then queue a second behind it.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto second = std::async(std::launch::async, [&] {
    return c2.Roundtrip(std::string("PREPARE heavy2 ") + kHeavyQuery);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const int64_t start = NowNanos();
  w.srv->BeginShutdown();
  std::string r1 = first.get();
  std::string r2 = second.get();
  const int64_t elapsed_ms = (NowNanos() - start) / 1'000'000;

  server::ErrCode code;
  ASSERT_TRUE(server::IsError(r1)) << r1;
  ASSERT_TRUE(server::ParseErrCode(ResponseTerminator(r1), &code)) << r1;
  EXPECT_EQ(code, server::ErrCode::kCancelled) << r1;
  ASSERT_TRUE(server::IsError(r2)) << r2;
  ASSERT_TRUE(server::ParseErrCode(ResponseTerminator(r2), &code)) << r2;
  EXPECT_EQ(code, server::ErrCode::kCancelled) << r2;

  // Both aborted at drain speed: the first at its next chase checkpoint,
  // the second WITHOUT entering the chase at all. The heavy chase runs for
  // many seconds, so this bound fails if the queued PREPARE ever runs it.
  EXPECT_LT(elapsed_ms, 3000) << "queued PREPARE chased during drain";
  EXPECT_EQ(
      w.srv->metric_registry().GetCounter("omqe_prepare_cancelled_total")->Value(),
      2u);
  EXPECT_EQ(w.srv->registry().Get("heavy"), nullptr);
  EXPECT_EQ(w.srv->registry().Get("heavy2"), nullptr);
}

// ---------------------------------------------------------------------------
// Fault-injection sweep with the differential oracle.
// ---------------------------------------------------------------------------

TEST(RobustnessTest, FaultSweepInProcessPointsFailCleanAndRecover) {
  FaultGuard guard;
  OfficeServer w;
  server::InProcessClient client(w.srv.get());
  FaultSpec once;
  ASSERT_TRUE(ParseFaultSpec("n1", &once));

  // chase.round / chase.apply / registry.prepare: the armed PREPARE fails
  // with a clean INTERNAL error, publishes nothing, and the next (disarmed)
  // PREPARE of the same name succeeds and serves the exact oracle rows.
  // chase.apply fires inside the apply phase's resolve step — mid-round,
  // after candidates are buffered — the deepest of the three points.
  for (const char* point :
       {kFaultChaseRound, kFaultChaseApply, kFaultRegistryPrepare}) {
    FaultInjector::Instance().Reset();
    FaultInjector::Instance().Arm(point, once);
    std::string r =
        client.Roundtrip(std::string("PREPARE offices ") + kOfficeQuery);
    ASSERT_TRUE(server::IsError(r)) << point << ": " << r;
    server::ErrCode code;
    ASSERT_TRUE(server::ParseErrCode(ResponseTerminator(r), &code)) << r;
    EXPECT_EQ(code, server::ErrCode::kInternal) << point << ": " << r;
    EXPECT_EQ(w.srv->registry().Get("offices"), nullptr) << point;
    EXPECT_EQ(FaultInjector::Instance().StatsFor(point).fired, 1u) << point;

    FaultInjector::Instance().Reset();
    ASSERT_FALSE(server::IsError(
        client.Roundtrip(std::string("PREPARE offices ") + kOfficeQuery)))
        << point;
    std::string open = client.Roundtrip("OPEN offices");
    uint64_t sid = 0;
    ASSERT_TRUE(server::ParseOpenSession(open, &sid)) << open;
    std::string fetched =
        client.Roundtrip("FETCH " + std::to_string(sid) + " 100");
    ASSERT_FALSE(server::IsError(fetched)) << fetched;
    std::set<std::string> got;
    for (const std::string& row : ResponseRows(fetched)) got.insert(row);
    EXPECT_EQ(got, OfficeOracle(&w)) << point;
    client.Roundtrip("CLOSE " + std::to_string(sid));
    client.Roundtrip("EVICT offices");
  }

  // session.fetch fires BEFORE the cursor steps, so the failed fetch
  // consumes nothing: the retry streams the complete answer set.
  FaultInjector::Instance().Reset();
  ASSERT_FALSE(server::IsError(
      client.Roundtrip(std::string("PREPARE offices ") + kOfficeQuery)));
  std::string open = client.Roundtrip("OPEN offices");
  uint64_t sid = 0;
  ASSERT_TRUE(server::ParseOpenSession(open, &sid)) << open;
  FaultInjector::Instance().Arm(kFaultSessionFetch, once);
  std::string failed = client.Roundtrip("FETCH " + std::to_string(sid) + " 2");
  ASSERT_TRUE(server::IsError(failed)) << failed;
  EXPECT_EQ(ResponseRows(failed).size(), 0u) << failed;
  std::string retried =
      client.Roundtrip("FETCH " + std::to_string(sid) + " 100");
  ASSERT_FALSE(server::IsError(retried)) << retried;
  std::set<std::string> got;
  for (const std::string& row : ResponseRows(retried)) got.insert(row);
  EXPECT_EQ(got, OfficeOracle(&w));
}

TEST(RobustnessTest, FaultSweepSocketPointsDropConnectionNeverLie) {
  FaultGuard guard;
  FaultSpec once;
  ASSERT_TRUE(ParseFaultSpec("n1", &once));

  // Fresh server per point so session ids are deterministic: with
  // socket.read armed the OPEN is never processed and the clean exchange
  // gets sid 1; with socket.write armed the armed OPEN created sid 1 (the
  // response was lost, its cursor never stepped) and the clean exchange's
  // FETCH 1 streams that untouched cursor.
  const std::string script = "OPEN offices\nFETCH 1 10\nCLOSE 1\nQUIT\n";
  for (const char* point : {kFaultSocketRead, kFaultSocketWrite}) {
    OfficeServer w;
    server::InProcessClient local(w.srv.get());
    ASSERT_FALSE(server::IsError(
        local.Roundtrip(std::string("PREPARE offices ") + kOfficeQuery)));
    std::set<std::string> want = OfficeOracle(&w);
    TcpServer tcp(w.srv.get());

    FaultInjector::Instance().Reset();
    FaultInjector::Instance().Arm(point, once);
    auto dropped = server::TcpExchange("127.0.0.1", tcp.port, script);
    // The connection was dropped mid-exchange. The invariant is "complete
    // or cleanly errored, never silently truncated": any FETCH terminator
    // that did get through must carry the true row count.
    if (dropped.ok()) {
      std::string terminator = ResponseTerminator(*dropped);
      if (terminator.rfind("OK FETCH", 0) == 0) {
        EXPECT_EQ(ResponseRows(*dropped).size(), want.size())
            << point << ": " << *dropped;
      }
    }
    EXPECT_GE(FaultInjector::Instance().StatsFor(point).fired, 1u) << point;

    // The server survived: a disarmed exchange on a fresh connection
    // serves the full oracle set.
    FaultInjector::Instance().Reset();
    auto clean = server::TcpExchange("127.0.0.1", tcp.port, script);
    ASSERT_TRUE(clean.ok()) << point << ": " << clean.status().ToString();
    std::set<std::string> got;
    for (const std::string& row : ResponseRows(*clean)) got.insert(row);
    EXPECT_EQ(got, want) << point << ": " << *clean;
  }
}

TEST(RobustnessTest, SeededFaultProbabilityReplaysDeterministically) {
  FaultGuard guard;
  FaultSpec spec;
  ASSERT_TRUE(ParseFaultSpec("p0.5@99", &spec));

  // Two identical runs under the same seed must make identical decisions —
  // evaluation counts AND fired counts — so a probabilistic sweep that
  // found a bug is replayable bit-for-bit.
  auto run_once = [&]() -> std::pair<FaultInjector::PointStats, bool> {
    World w;
    Ontology onto = w.Onto(R"(
      Researcher(x) -> exists y. HasOffice(x, y)
      HasOffice(x, y) -> Office(y)
      Office(x) -> exists y. InBuilding(x, y)
    )");
    w.Load("Researcher(mary) Researcher(john) HasOffice(mary, room1)");
    FaultInjector::Instance().Reset();
    FaultInjector::Instance().Arm(kFaultChaseRound, spec);
    ChaseOptions options;
    auto result = RunChase(w.db, onto, options);
    return {FaultInjector::Instance().StatsFor(kFaultChaseRound),
            result.ok()};
  };
  auto [first, first_ok] = run_once();
  auto [second, second_ok] = run_once();
  EXPECT_GT(first.evaluated, 0u);
  EXPECT_EQ(first.evaluated, second.evaluated);
  EXPECT_EQ(first.fired, second.fired);
  EXPECT_EQ(first_ok, second_ok);
}

TEST(RobustnessTest, OversizedPartialQueryIsRefusedBeforeTheChase) {
  // The partial-answer limit of 64 tree nodes depends on the query alone,
  // so PREPARE refuses an oversized query before the chase runs: with the
  // chase.round fault armed once, the refusal is still ERR BADREQ and
  // nothing fires.
  FaultGuard guard;
  OfficeServer w;
  server::InProcessClient client(w.srv.get());
  auto star = [](int atoms) {
    std::string head = "q(x", body;
    for (int i = 1; i <= atoms; ++i) {
      head += ", y" + std::to_string(i);
      body += (i > 1 ? ", " : "") + std::string("HasOffice(x, y") +
              std::to_string(i) + ")";
    }
    return head + ") :- " + body;
  };
  // 65 atoms over 33 variables normalize to 65 tree nodes.
  std::string nodes = "q(x", nodes_body = "Researcher(x)";
  for (int i = 1; i <= 32; ++i) {
    nodes += ", y" + std::to_string(i);
    nodes_body += ", HasOffice(x, y" + std::to_string(i) + "), Office(y" +
                  std::to_string(i) + ")";
  }
  nodes += ") :- " + nodes_body;
  FaultSpec once;
  ASSERT_TRUE(ParseFaultSpec("n1", &once));
  FaultInjector::Instance().Arm(kFaultChaseRound, once);
  std::string r = client.Roundtrip("PREPARE big " + nodes);
  EXPECT_EQ(r.rfind("ERR BADREQ", 0), 0u) << r;
  EXPECT_EQ(FaultInjector::Instance().fired(), 0u);
  // A 22-atom star (2^21 subtrees rooted at its centre) passes the check,
  // and its chase meets the armed fault.
  r = client.Roundtrip("PREPARE star " + star(22));
  EXPECT_EQ(r.rfind("ERR INTERNAL", 0), 0u) << r;
  EXPECT_EQ(FaultInjector::Instance().fired(), 1u);
  r = client.Roundtrip("PREPARE star " + star(22));
  EXPECT_EQ(r.rfind("OK PREPARED star ", 0), 0u) << r;
}

// ---------------------------------------------------------------------------
// Wire-level garbage.
// ---------------------------------------------------------------------------

TEST(RobustnessTest, OversizedLineAnswersBadReqAndCloses) {
  server::ServerOptions options;
  options.max_line_bytes = 1024;
  OfficeServer w(options);
  TcpServer tcp(w.srv.get());

  // 2 KiB with no newline: past the cap the buffer can only grow, so the
  // server answers BADREQ and hangs up instead of buffering forever.
  int fd = ConnectLoopback(tcp.port);
  ASSERT_TRUE(SendRaw(fd, std::string(2048, 'A')));
  std::string response = RecvAll(fd);  // ERR, then EOF: connection closed
  ::close(fd);
  EXPECT_NE(response.find("ERR BADREQ"), std::string::npos) << response;
  EXPECT_NE(response.find("line too long"), std::string::npos) << response;
  EXPECT_GE(w.srv->wire_stats().oversized_lines->Value(), 1u);

  // The server itself keeps serving new connections.
  auto after = server::TcpExchange("127.0.0.1", tcp.port, "METRICS\nQUIT\n");
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->find("OK METRICS"), std::string::npos) << *after;
}

TEST(RobustnessTest, BinaryJunkAndPartialLinesOverTcp) {
  OfficeServer w;
  TcpServer tcp(w.srv.get());

  // Binary junk is one malformed request: ERR BADREQ, connection stays up
  // and the next lines execute normally.
  {
    std::string script;
    script += '\x01';
    script += '\xff';
    script += "\x7f garbage \x02\nMETRICS\nQUIT\n";
    auto r = server::TcpExchange("127.0.0.1", tcp.port, script);
    ASSERT_TRUE(r.ok());
    EXPECT_NE(r->find("ERR BADREQ"), std::string::npos) << *r;
    EXPECT_NE(r->find("OK METRICS"), std::string::npos) << *r;
    EXPECT_NE(r->find("OK BYE"), std::string::npos) << *r;
  }

  // A request split across writes (and across the server's reads) is still
  // one line: nothing executes until the '\n' arrives.
  {
    int fd = ConnectLoopback(tcp.port);
    ASSERT_TRUE(SendRaw(fd, "MET"));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_TRUE(SendRaw(fd, "RICS\nQU"));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_TRUE(SendRaw(fd, "IT\n"));
    ::shutdown(fd, SHUT_WR);
    std::string response = RecvAll(fd);
    ::close(fd);
    EXPECT_NE(response.find("OK METRICS"), std::string::npos) << response;
    EXPECT_NE(response.find("OK BYE"), std::string::npos) << response;
    EXPECT_EQ(response.find("ERR"), std::string::npos) << response;
  }
}

// ---------------------------------------------------------------------------
// The write timeout.
// ---------------------------------------------------------------------------

TEST(RobustnessTest, WriteTimeoutClosesStalledReader) {
  constexpr int kRows = 8000;
  server::ServerOptions options;
  options.write_timeout_ms = 150;
  options.sndbuf_bytes = 4096;     // tiny server-side send buffer...
  options.drain_deadline_ms = 2000;

  World w;
  Ontology onto = w.Onto("HasOffice(x, y) -> Office(y)");
  std::string facts;
  for (int i = 0; i < kRows; ++i) {
    facts += "HasOffice(person" + std::to_string(i) + ", office" +
             std::to_string(i) + ")\n";
  }
  w.Load(facts);
  server::OmqeServer srv(&w.vocab, &onto, &w.db, options);
  server::InProcessClient local(&srv);
  ASSERT_FALSE(
      server::IsError(local.Roundtrip("PREPARE big q(x, y) :- HasOffice(x, y)")));

  TcpServer tcp(&srv);
  // ...against a tiny client-side receive window, and a client that never
  // reads: a ~200 KiB response block must stall the writer.
  int fd = ConnectLoopback(tcp.port, /*rcvbuf_bytes=*/4096);
  ASSERT_TRUE(SendRaw(fd, "OPEN big complete\nFETCH 1 100000\n"));
  bool closed = false;
  for (int i = 0; i < 200 && !closed; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    closed = srv.wire_stats().write_timeout_closes->Value() >= 1;
  }
  EXPECT_TRUE(closed) << "write timeout never fired";
  ::close(fd);

  // The connection thread was released (not pinned): a normal client is
  // served immediately afterwards.
  auto after = server::TcpExchange("127.0.0.1", tcp.port, "METRICS\nQUIT\n");
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->find("METRIC omqe_write_timeout_closes_total 1\n"),
            std::string::npos)
      << *after;
}

}  // namespace
}  // namespace omqe
