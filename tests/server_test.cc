// The query-serving subsystem: protocol round-trips through the in-process
// client, interleaved fetch correctness against the brute-force oracle,
// registry eviction / session reset semantics, per-session budgets and idle
// reaping, the O(1)-open contract (link-overlay copy counters), and a
// threaded soak over one server — the new payload of the tsan preset.
#include <gtest/gtest.h>

#include <future>
#include <set>
#include <thread>

#include "base/counted_mutex.h"
#include "eval/brute.h"
#include "server/protocol.h"
#include "server/registry.h"
#include "server/server.h"
#include "server/session_manager.h"
#include "test_util.h"

namespace omqe {
namespace {

using testing::SameTupleSet;
using testing::World;

/// The paper's office environment behind a live server.
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

using server::ResponseRows;
using server::ResponseTerminator;

TEST(ProtocolTest, ParsesEveryVerb) {
  auto prepare = server::ParseRequest("PREPARE offices q(x) :- Office(x)");
  ASSERT_TRUE(prepare.ok());
  EXPECT_EQ(prepare->verb, server::Verb::kPrepare);
  EXPECT_EQ(prepare->name, "offices");
  EXPECT_EQ(prepare->query_text, "q(x) :- Office(x)");

  auto open = server::ParseRequest("open offices complete");
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(open->verb, server::Verb::kOpen);
  EXPECT_TRUE(open->complete);

  auto fetch = server::ParseRequest("FETCH 7 100");
  ASSERT_TRUE(fetch.ok());
  EXPECT_EQ(fetch->session, 7u);
  EXPECT_EQ(fetch->count, 100u);

  EXPECT_EQ(server::ParseRequest("RESET 3")->verb, server::Verb::kReset);
  EXPECT_EQ(server::ParseRequest("CLOSE 3")->verb, server::Verb::kClose);
  EXPECT_EQ(server::ParseRequest("EVICT offices")->verb, server::Verb::kEvict);
  EXPECT_EQ(server::ParseRequest("QUIT")->verb, server::Verb::kQuit);
  EXPECT_EQ(server::ParseRequest("SHUTDOWN")->verb, server::Verb::kShutdown);
}

TEST(ProtocolTest, RejectsMalformedRequests) {
  EXPECT_FALSE(server::ParseRequest("").ok());
  EXPECT_FALSE(server::ParseRequest("# comment").ok());
  EXPECT_FALSE(server::ParseRequest("NOSUCH 1").ok());
  EXPECT_FALSE(server::ParseRequest("PREPARE").ok());
  EXPECT_FALSE(server::ParseRequest("PREPARE name").ok());
  EXPECT_FALSE(server::ParseRequest("PREPARE bad!name q(x) :- R(x)").ok());
  EXPECT_FALSE(server::ParseRequest("OPEN offices sideways").ok());
  EXPECT_FALSE(server::ParseRequest("FETCH 1").ok());
  EXPECT_FALSE(server::ParseRequest("FETCH 1 0").ok());
  EXPECT_FALSE(server::ParseRequest("FETCH one 5").ok());
  EXPECT_FALSE(server::ParseRequest("CLOSE").ok());
  EXPECT_FALSE(server::ParseRequest("QUIT now").ok());
  EXPECT_FALSE(server::ParseRequest("STATS").ok());  // retired: METRICS
}

TEST(ProtocolTest, NumericTokensNeverWrap) {
  // Pins the strict-decimal contract on the hot FETCH path: the largest
  // u64 round-trips exactly...
  auto max = server::ParseRequest("FETCH 1 18446744073709551615");
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(max->count, UINT64_MAX);
  // ...and one past it is a parse error, never a truncated count. A
  // wrapping parser would turn a 20-digit FETCH into a tiny batch and the
  // client would silently believe the cursor drained.
  EXPECT_FALSE(server::ParseRequest("FETCH 1 18446744073709551616").ok());
  EXPECT_FALSE(server::ParseRequest("FETCH 1 99999999999999999999").ok());
  EXPECT_FALSE(server::ParseRequest("FETCH 99999999999999999999 1").ok());
  EXPECT_FALSE(server::ParseRequest("CLOSE 340282366920938463463374607").ok());
  EXPECT_FALSE(server::ParseRequest("RESET 18446744073709551616").ok());
  // Signs, hex, and trailing junk are not decimals.
  EXPECT_FALSE(server::ParseRequest("FETCH 1 -2").ok());
  EXPECT_FALSE(server::ParseRequest("FETCH 1 +2").ok());
  EXPECT_FALSE(server::ParseRequest("FETCH 1 0x10").ok());
  EXPECT_FALSE(server::ParseRequest("FETCH 1 2rows").ok());

  uint64_t v = 7;
  EXPECT_TRUE(server::ParseU64("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(server::ParseU64("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_FALSE(server::ParseU64("18446744073709551616", &v));
  EXPECT_FALSE(server::ParseU64("", &v));
  EXPECT_FALSE(server::ParseU64(" 1", &v));
  EXPECT_FALSE(server::ParseU64("1 ", &v));
}

TEST(ProtocolTest, WhitespaceOnlyAndPaddedLines) {
  // Whitespace-only lines are empty requests, not a verb of spaces.
  EXPECT_FALSE(server::ParseRequest("   ").ok());
  EXPECT_FALSE(server::ParseRequest("\t\t").ok());
  EXPECT_FALSE(server::ParseRequest(" \r\n").ok());
  // Missing tokens surface as errors even when padding hides them.
  EXPECT_FALSE(server::ParseRequest("FETCH   ").ok());
  EXPECT_FALSE(server::ParseRequest("FETCH 1  \t ").ok());
  // Generous padding and CRLF line endings still parse.
  auto padded = server::ParseRequest("  \tFETCH  3   7 \r\n");
  ASSERT_TRUE(padded.ok());
  EXPECT_EQ(padded->session, 3u);
  EXPECT_EQ(padded->count, 7u);
}

TEST(ServerTest, ProtocolRoundTripsThroughInProcessClient) {
  OfficeServer w;
  server::InProcessClient client(w.srv.get());

  std::string r = client.Roundtrip(std::string("PREPARE offices ") + kOfficeQuery);
  EXPECT_EQ(r, "OK PREPARED offices trees=8 chase_facts=19\n") << r;

  r = client.Roundtrip("OPEN offices");
  EXPECT_EQ(r, "OK OPEN 1\n") << r;

  r = client.Roundtrip("FETCH 1 100");
  EXPECT_EQ(ResponseRows(r).size(), 3u) << r;
  EXPECT_EQ(ResponseTerminator(r), "OK FETCH 3 done");

  r = client.Roundtrip("RESET 1");
  EXPECT_EQ(r, "OK RESET 1\n");
  r = client.Roundtrip("FETCH 1 2");
  EXPECT_EQ(ResponseRows(r).size(), 2u);
  EXPECT_EQ(ResponseTerminator(r), "OK FETCH 2 more");

  // The robustness counters are all zero on this healthy exchange, but
  // METRICS lists them so dashboards never learn about them only during an
  // incident.
  r = client.Roundtrip("METRICS");
  for (const char* metric :
       {"omqe_prepare_deadline_exceeded_total 0",
        "omqe_prepare_cancelled_total 0", "omqe_fetch_deadline_hits_total 0",
        "omqe_fetch_deadline_empty_total 0",
        "omqe_write_timeout_closes_total 0", "omqe_oversized_lines_total 0",
        "omqe_forced_closes_total 0", "omqe_faults_fired 0"}) {
    EXPECT_NE(r.find(std::string("METRIC ") + metric + "\n"),
              std::string::npos)
        << metric << "\n" << r;
  }
  // The chase counters (phase timings, candidate/apply totals), aggregated
  // over the successful PREPARE above — the chase ran, so the totals are
  // live, not zero.
  for (const char* metric :
       {"omqe_chase_rounds_total ", "omqe_chase_candidates_total ",
        "omqe_chase_applied_total ", "omqe_chase_nulls_invented_total ",
        "omqe_chase_match_nanos_total ", "omqe_chase_apply_nanos_total "}) {
    EXPECT_NE(r.find(std::string("METRIC ") + metric), std::string::npos)
        << metric << "\n" << r;
  }
  EXPECT_EQ(r.find("METRIC omqe_chase_rounds_total 0\n"), std::string::npos)
      << r;
  EXPECT_EQ(ResponseTerminator(r), "OK METRICS");

  r = client.Roundtrip("CLOSE 1");
  EXPECT_EQ(r, "OK CLOSE 1\n");

  // Error paths: every failure is an ERR terminator, never a crash.
  EXPECT_TRUE(server::IsError(client.Roundtrip("FETCH 1 5")));   // closed
  EXPECT_TRUE(server::IsError(client.Roundtrip("CLOSE 1")));     // double close
  EXPECT_TRUE(server::IsError(client.Roundtrip("OPEN absent"))); // unknown name
  EXPECT_TRUE(server::IsError(client.Roundtrip("JUMP 1")));      // unknown verb
  EXPECT_TRUE(server::IsError(client.Roundtrip("PREPARE p2 q(x :- broken")));
}

TEST(ServerTest, OverflowingFetchCountIsAnErrNotAWrap) {
  OfficeServer w;
  server::InProcessClient client(w.srv.get());
  ASSERT_FALSE(server::IsError(
      client.Roundtrip(std::string("PREPARE offices ") + kOfficeQuery)));
  ASSERT_FALSE(server::IsError(client.Roundtrip("OPEN offices")));
  // A 20-digit count is rejected at the parser; the session is untouched
  // and drains normally afterwards.
  EXPECT_TRUE(server::IsError(client.Roundtrip("FETCH 1 99999999999999999999")));
  std::string r = client.Roundtrip("FETCH 1 100");
  EXPECT_EQ(ResponseRows(r).size(), 3u) << r;
  EXPECT_EQ(ResponseTerminator(r), "OK FETCH 3 done");
}

TEST(ServerTest, WideStarQueryFetchesAndServerKeepsServing) {
  // q(x, y1..y20) :- HasOffice(x, y1), ..., HasOffice(x, y20): 2^19
  // connected subtrees through the root atom. The pruning after each row
  // probes only the pool's star patterns, not every subtree's subsets.
  OfficeServer w;
  server::InProcessClient client(w.srv.get());
  std::string head = "q(x";
  std::string body;
  for (int i = 1; i <= 20; ++i) {
    head += ", y" + std::to_string(i);
    body += (i > 1 ? ", HasOffice(x, y" : "HasOffice(x, y") +
            std::to_string(i) + ")";
  }
  std::string r = client.Roundtrip("PREPARE star " + head + ") :- " + body);
  ASSERT_FALSE(server::IsError(r)) << r;
  r = client.Roundtrip("OPEN star partial");
  uint64_t sid = 0;
  ASSERT_TRUE(server::ParseOpenSession(r, &sid)) << r;
  r = client.Roundtrip("FETCH " + std::to_string(sid) + " 10");
  EXPECT_EQ(ResponseTerminator(r), "OK FETCH 3 done") << r;
  std::string mary = "mary", john = "john", mike = "mike";
  for (int i = 0; i < 20; ++i) {
    mary += ",room1";
    john += ",room4";
    mike += ",*";
  }
  std::vector<std::string> rows = ResponseRows(r);
  EXPECT_EQ(std::set<std::string>(rows.begin(), rows.end()),
            (std::set<std::string>{mary, john, mike}))
      << r;

  // Still serving: a fresh prepare, open and drain answer as usual.
  ASSERT_FALSE(server::IsError(
      client.Roundtrip(std::string("PREPARE offices ") + kOfficeQuery)));
  r = client.Roundtrip("OPEN offices");
  ASSERT_TRUE(server::ParseOpenSession(r, &sid)) << r;
  r = client.Roundtrip("FETCH " + std::to_string(sid) + " 10");
  EXPECT_EQ(ResponseTerminator(r), "OK FETCH 3 done") << r;
}

TEST(ServerTest, OversizedQueryIsBadRequest) {
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
  // A 64-atom chain has 65 distinct variables, one past VarSet's width.
  std::string chain = "q(x0) :- ";
  for (int i = 0; i < 64; ++i) {
    chain += (i > 0 ? ", HasOffice(x" : "HasOffice(x") + std::to_string(i) +
             ", x" + std::to_string(i + 1) + ")";
  }
  // 65 atoms over 33 variables normalize to 65 tree nodes, one past the
  // 64-bit slot mask of a partial-answer subtree.
  std::string nodes = "q(x";
  std::string nodes_body = "Researcher(x)";
  for (int i = 1; i <= 32; ++i) {
    nodes += ", y" + std::to_string(i);
    nodes_body += ", HasOffice(x, y" + std::to_string(i) + "), Office(y" +
                  std::to_string(i) + ")";
  }
  nodes += ") :- " + nodes_body;
  for (const std::string& query : {chain, nodes}) {
    std::string r = client.Roundtrip("PREPARE big " + query);
    EXPECT_EQ(r.rfind("ERR BADREQ", 0), 0u) << r;
    // The connection and the server survive: the next PREPARE succeeds.
    r = client.Roundtrip(std::string("PREPARE offices ") + kOfficeQuery);
    EXPECT_EQ(r, "OK PREPARED offices trees=8 chase_facts=19\n") << r;
  }
  // A star's size is no limit: its centre roots 2^(atoms - 1) connected
  // subtrees, but only those some progress tree uses are built.
  std::string r = client.Roundtrip("PREPARE star " + star(21));
  EXPECT_EQ(r.rfind("OK PREPARED star ", 0), 0u) << r;
  // The oracle lists every answer before it minimizes: 2^40 for a
  // researcher with an office in the data, whom the chase gives an invented
  // one too. So the 40-atom star runs over a world without one: mike's
  // office is invented, and ann's is given.
  World small;
  Ontology onto = small.Onto("Researcher(x) -> exists y. HasOffice(x, y)");
  small.Load("Researcher(mike) HasOffice(ann, room9)");
  server::OmqeServer srv(&small.vocab, &onto, &small.db);
  server::InProcessClient star_client(&srv);
  r = star_client.Roundtrip("PREPARE star40 " + star(40));
  ASSERT_EQ(r.rfind("OK PREPARED star40 ", 0), 0u) << r;
  auto prepared = srv.registry().Get("star40");
  ASSERT_NE(prepared, nullptr);
  std::set<std::string> want;
  for (const ValueTuple& t : BruteMinimalPartialAnswers(
           small.Query(star(40)), prepared->chase().db)) {
    want.insert(small.Render(t));
  }
  ASSERT_EQ(want.size(), 2u);
  uint64_t sid = 0;
  r = star_client.Roundtrip("OPEN star40");
  ASSERT_TRUE(server::ParseOpenSession(r, &sid)) << r;
  r = star_client.Roundtrip("FETCH " + std::to_string(sid) + " 100");
  EXPECT_EQ(ResponseTerminator(r),
            "OK FETCH " + std::to_string(want.size()) + " done") << r;
  std::vector<std::string> rows = ResponseRows(r);
  EXPECT_EQ(std::set<std::string>(rows.begin(), rows.end()), want);
  EXPECT_EQ(rows.size(), want.size());
}

TEST(ServerTest, InterleavedFetchesMatchBruteForce) {
  OfficeServer w;
  server::InProcessClient client(w.srv.get());
  ASSERT_FALSE(server::IsError(
      client.Roundtrip(std::string("PREPARE offices ") + kOfficeQuery)));

  // The oracle answer set, rendered exactly like the wire rows.
  auto prepared = w.srv->registry().Get("offices");
  ASSERT_NE(prepared, nullptr);
  CQ query = w.Query(kOfficeQuery);
  std::set<std::string> want;
  for (const ValueTuple& t :
       BruteMinimalPartialAnswers(query, prepared->chase().db)) {
    want.insert(w.Render(t));
  }
  ASSERT_FALSE(want.empty());

  // Three sessions, fetched in interleaved unequal batches; each must
  // produce exactly the oracle set — pruning in one cursor never leaks.
  std::vector<uint64_t> sids;
  for (int i = 0; i < 3; ++i) {
    std::string r = client.Roundtrip("OPEN offices");
    uint64_t sid = 0;
    ASSERT_TRUE(server::ParseOpenSession(r, &sid)) << r;
    sids.push_back(sid);
  }
  std::vector<std::multiset<std::string>> got(sids.size());
  std::vector<bool> done(sids.size(), false);
  size_t batch = 1;
  while (!(done[0] && done[1] && done[2])) {
    for (size_t i = 0; i < sids.size(); ++i) {
      if (done[i]) continue;
      std::string r = client.Roundtrip("FETCH " + std::to_string(sids[i]) +
                                       " " + std::to_string(batch));
      ASSERT_FALSE(server::IsError(r)) << r;
      for (const std::string& row : ResponseRows(r)) got[i].insert(row);
      done[i] = server::FetchDone(r);
    }
    batch = batch % 3 + 1;  // vary batch sizes 1, 2, 3, 1, ...
  }
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::set<std::string>(got[i].begin(), got[i].end()), want)
        << "session " << i;
    EXPECT_EQ(got[i].size(), want.size()) << "duplicates in session " << i;
  }
}

TEST(ServerTest, EvictionKeepsLiveSessionsServing) {
  OfficeServer w;
  server::InProcessClient client(w.srv.get());
  ASSERT_FALSE(server::IsError(
      client.Roundtrip(std::string("PREPARE offices ") + kOfficeQuery)));
  std::string r = client.Roundtrip("OPEN offices");
  ASSERT_FALSE(server::IsError(r));

  EXPECT_EQ(client.Roundtrip("EVICT offices"), "OK EVICT offices\n");
  EXPECT_TRUE(server::IsError(client.Roundtrip("EVICT offices")));  // gone
  EXPECT_TRUE(server::IsError(client.Roundtrip("OPEN offices")));   // gone

  // The pre-evict session still drains the full answer set: its refcount
  // keeps the artifact alive after the registry dropped the name.
  r = client.Roundtrip("FETCH 1 100");
  EXPECT_EQ(ResponseRows(r).size(), 3u) << r;
  EXPECT_EQ(ResponseTerminator(r), "OK FETCH 3 done");
}

TEST(ServerTest, RowBudgetExhaustsAndResetRestores) {
  server::ServerOptions options;
  options.limits.max_rows = 2;
  OfficeServer w(options);
  server::InProcessClient client(w.srv.get());
  ASSERT_FALSE(server::IsError(
      client.Roundtrip(std::string("PREPARE offices ") + kOfficeQuery)));
  ASSERT_FALSE(server::IsError(client.Roundtrip("OPEN offices")));

  // 3 answers exist but the budget stops the session at 2.
  std::string r = client.Roundtrip("FETCH 1 100");
  EXPECT_EQ(ResponseRows(r).size(), 2u) << r;
  EXPECT_EQ(ResponseTerminator(r), "OK FETCH 2 done");
  r = client.Roundtrip("FETCH 1 100");
  EXPECT_EQ(ResponseRows(r).size(), 0u);
  EXPECT_EQ(ResponseTerminator(r), "OK FETCH 0 done");
  EXPECT_GE(w.srv->metric_registry()
                .GetCounter("omqe_budget_exhausted_total")
                ->Value(),
            1u);

  // Reset restores the budget along with the cursor.
  ASSERT_FALSE(server::IsError(client.Roundtrip("RESET 1")));
  r = client.Roundtrip("FETCH 1 1");
  EXPECT_EQ(ResponseRows(r).size(), 1u);
  EXPECT_EQ(ResponseTerminator(r), "OK FETCH 1 more");
}

TEST(ServerTest, SessionLimitAndIdleReaping) {
  server::SessionLimits limits;
  limits.max_sessions = 2;
  limits.idle_timeout_ms = 1;
  metrics::Registry metrics;
  server::SessionManager manager(limits, &metrics);

  World w;
  Ontology onto = w.Onto("Researcher(x) -> exists y. HasOffice(x, y)");
  w.Load("Researcher(mary)");
  OMQ omq = MakeOMQ(onto, w.Query("q(x, y) :- HasOffice(x, y)"));
  auto prepared = PreparedOMQ::Prepare(omq, w.db);
  ASSERT_TRUE(prepared.ok());

  ASSERT_TRUE(manager.Open(*prepared, /*complete=*/false).ok());
  ASSERT_TRUE(manager.Open(*prepared, /*complete=*/false).ok());
  EXPECT_FALSE(manager.Open(*prepared, /*complete=*/false).ok());
  EXPECT_EQ(metrics.GetCounter("omqe_open_rejected_total")->Value(), 1u);
  EXPECT_EQ(manager.live_sessions(), 2u);

  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // Both sessions were never fetched, so the first pass past the cutoff
  // defers them (the open-to-first-fetch grace cycle); the second pass
  // finds them still unfetched and reaps.
  EXPECT_EQ(manager.ReapIdle(), 0u);
  EXPECT_EQ(manager.live_sessions(), 2u);
  EXPECT_EQ(manager.ReapIdle(), 2u);
  EXPECT_EQ(manager.live_sessions(), 0u);
  EXPECT_EQ(metrics.GetCounter("omqe_sessions_reaped_total")->Value(), 2u);
  // Reaped ids behave exactly like closed ones.
  std::vector<ValueTuple> rows;
  bool done = false;
  EXPECT_FALSE(manager.Fetch(1, 1, &rows, &done).ok());
}

TEST(ServerTest, ReapIdleGraceProtectsOpenToFirstFetchWindow) {
  // Regression: with a 1 ms timeout, a client's OPEN -> FETCH round trip
  // used to race the reaper — OPEN stamps the clock, the reaper fires
  // before the first FETCH arrives, and the FETCH fails with "unknown
  // session". The never-used grace cycle keeps the window open.
  server::SessionLimits limits;
  limits.idle_timeout_ms = 1;
  server::SessionManager manager(limits);

  World w;
  Ontology onto = w.Onto("Researcher(x) -> exists y. HasOffice(x, y)");
  w.Load("Researcher(mary)");
  OMQ omq = MakeOMQ(onto, w.Query("q(x, y) :- HasOffice(x, y)"));
  auto prepared = PreparedOMQ::Prepare(omq, w.db);
  ASSERT_TRUE(prepared.ok());

  auto sid = manager.Open(*prepared, /*complete=*/false);
  ASSERT_TRUE(sid.ok());
  // Well past the timeout, a reaper tick fires before the first fetch:
  // the session must survive it.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(manager.ReapIdle(), 0u);
  std::vector<ValueTuple> rows;
  bool done = false;
  EXPECT_TRUE(manager.Fetch(*sid, 10, &rows, &done).ok());

  // Once fetched, the grace is spent: the next idle period reaps on the
  // FIRST pass — used sessions get no deferral.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(manager.ReapIdle(), 1u);
  EXPECT_EQ(manager.live_sessions(), 0u);
}

TEST(ServerTest, BackgroundReaperClosesIdleSessions) {
  server::ServerOptions options;
  options.limits.idle_timeout_ms = 10;
  OfficeServer w(options);
  server::InProcessClient client(w.srv.get());
  ASSERT_FALSE(server::IsError(
      client.Roundtrip(std::string("PREPARE offices ") + kOfficeQuery)));
  ASSERT_FALSE(server::IsError(client.Roundtrip("OPEN offices")));
  ASSERT_EQ(w.srv->sessions().live_sessions(), 1u);

  // The server's own reaper thread (no traffic needed) closes it.
  for (int i = 0; i < 100 && w.srv->sessions().live_sessions() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(w.srv->sessions().live_sessions(), 0u);
  EXPECT_GE(
      w.srv->metric_registry().GetCounter("omqe_sessions_reaped_total")->Value(),
      1u);
  EXPECT_TRUE(server::IsError(client.Roundtrip("FETCH 1 1")));
}

// The acceptance contract: opening a session is O(1) — the link buffer it
// takes holds nothing at open, no matter how many progress trees the
// prepared query has, a drained cursor has touched at most what pruning
// required, and a closed session's buffer serves the next OPEN instead of a
// new O(pool) allocation.
TEST(ServerTest, SessionOpenIsO1InProgressTreeCount) {
  for (uint32_t scale : {50u, 2000u}) {
    World w;
    Ontology onto = w.Onto(R"(
      A(x) -> exists y. R(x, y)
      R(x, y) -> B(y)
      B(x) -> exists y. S(x, y)
    )");
    w.vocab.ReserveConstants(3 * scale + 16);
    for (uint32_t i = 0; i < scale; ++i) {
      std::string n = std::to_string(i);
      w.Load("A(a" + n + ")");
      if (i % 3 != 0) w.Load("R(a" + n + ", c" + n + ")");
      if (i % 6 == 1) w.Load("S(c" + n + ", d" + n + ")");
    }
    OMQ omq = MakeOMQ(onto, w.Query("q(x, y, z) :- R(x, y), S(y, z)"));
    auto prepared = PreparedOMQ::Prepare(omq, w.db);
    ASSERT_TRUE(prepared.ok());

    server::SessionManager manager;
    auto sid = manager.Open(*prepared, /*complete=*/false);
    ASSERT_TRUE(sid.ok());
    auto at_open = manager.OverlayStats(*sid);
    ASSERT_TRUE(at_open.ok());
    // The counters, not timing: zero copied entries at open, at BOTH pool
    // scales. The eager-copy design this replaces would have copied
    // num_progress_trees() entries here.
    EXPECT_EQ(at_open->touched_nodes, 0u) << "scale " << scale;
    ASSERT_GT((*prepared)->num_progress_trees(),
              static_cast<size_t>(scale));  // the contract is non-vacuous

    // Drain, then verify the overlay only ever materialized pruned nodes.
    std::vector<ValueTuple> rows;
    bool done = false;
    while (!done) {
      ASSERT_TRUE(manager.Fetch(*sid, 64, &rows, &done).ok());
    }
    auto after = manager.OverlayStats(*sid);
    ASSERT_TRUE(after.ok());
    EXPECT_LE(after->touched_nodes, (*prepared)->num_progress_trees());
    EXPECT_TRUE(SameTupleSet(
        rows, BruteMinimalPartialAnswers(omq.query, (*prepared)->chase().db)));

    // CLOSE clears the pruned buffer and hands it back: the next OPEN on the
    // same artifact starts from the initial order and drains the same set.
    ASSERT_TRUE(manager.Close(*sid).ok());
    auto again = manager.Open(*prepared, /*complete=*/false);
    ASSERT_TRUE(again.ok());
    auto reopened = manager.OverlayStats(*again);
    ASSERT_TRUE(reopened.ok());
    EXPECT_EQ(reopened->touched_nodes, 0u) << "scale " << scale;
    std::vector<ValueTuple> rows_again;
    done = false;
    while (!done) {
      ASSERT_TRUE(manager.Fetch(*again, 64, &rows_again, &done).ok());
    }
    EXPECT_TRUE(SameTupleSet(rows_again, rows)) << "scale " << scale;
    ASSERT_TRUE(manager.Close(*again).ok());

    // Sequential sessions share one buffer however many there are ...
    for (int i = 0; i < 100; ++i) {
      auto churn = manager.Open(*prepared, /*complete=*/false);
      ASSERT_TRUE(churn.ok());
      std::vector<ValueTuple> one;
      ASSERT_TRUE(manager.Fetch(*churn, 1, &one, &done).ok());
      ASSERT_TRUE(manager.Close(*churn).ok());
    }
    EXPECT_EQ((*prepared)->link_buffers_allocated(), 1u) << "scale " << scale;
    // ... and N concurrently open ones hold N.
    constexpr size_t kOpen = 4;
    std::vector<uint64_t> open;
    for (size_t i = 0; i < kOpen; ++i) {
      auto live = manager.Open(*prepared, /*complete=*/false);
      ASSERT_TRUE(live.ok());
      open.push_back(*live);
    }
    EXPECT_EQ((*prepared)->link_buffers_allocated(), kOpen) << "scale " << scale;
    for (uint64_t live : open) ASSERT_TRUE(manager.Close(live).ok());
  }
}

// The tsan payload: many client threads calling into one server, mixing
// PREPARE / OPEN / FETCH / RESET / CLOSE / EVICT / METRICS over shared
// registry and session-manager state.
TEST(ServerTest, ThreadedSoakOverOneServer) {
  OfficeServer w;
  server::InProcessClient seed(w.srv.get());
  ASSERT_FALSE(server::IsError(
      seed.Roundtrip(std::string("PREPARE offices ") + kOfficeQuery)));

  constexpr int kClients = 8;
  constexpr int kRoundsPerClient = 12;
  std::vector<std::thread> clients;
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      server::InProcessClient client(w.srv.get());
      for (int round = 0; round < kRoundsPerClient; ++round) {
        std::string name = "q_" + std::to_string(c) + "_" + std::to_string(round);
        if (server::IsError(client.Roundtrip("PREPARE " + name + " " +
                                             kOfficeQuery))) {
          ++failures[c];
          continue;
        }
        std::string r = client.Roundtrip("OPEN " + name);
        uint64_t sid = 0;
        if (!server::ParseOpenSession(r, &sid)) {
          ++failures[c];
          continue;
        }
        size_t rows = 0;
        bool done = false;
        while (!done) {
          std::string fr =
              client.Roundtrip("FETCH " + std::to_string(sid) + " 2");
          if (server::IsError(fr)) {
            ++failures[c];
            break;
          }
          rows += ResponseRows(fr).size();
          done = server::FetchDone(fr);
        }
        if (rows != 3) ++failures[c];
        client.Roundtrip("RESET " + std::to_string(sid));
        client.Roundtrip("METRICS");
        client.Roundtrip("CLOSE " + std::to_string(sid));
        client.Roundtrip("EVICT " + name);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], 0) << "client " << c;
  }
  metrics::Registry& m = w.srv->metric_registry();
  const uint64_t opened = m.GetCounter("omqe_sessions_opened_total")->Value();
  EXPECT_EQ(opened, static_cast<uint64_t>(kClients * kRoundsPerClient));
  EXPECT_EQ(m.GetCounter("omqe_sessions_closed_total")->Value(), opened);
  EXPECT_EQ(m.GetCounter("omqe_rows_emitted_total")->Value(),
            3u * kClients * kRoundsPerClient);
}

TEST(ServerTest, FetchLockCountIsPerCallNotPerAnswer) {
  // The paper bounds the delay between consecutive answers, so a FETCH may
  // pay for locking once per call but never once per answer: the session
  // lookup takes the manager's lock, and stepping the cursor (the walk, the
  // enum-delay histogram, the counters) takes none. Every serving lock is a
  // CountedMutex, so the process-wide acquisition counter shows it: a Fetch
  // returning 1 row costs exactly what one returning 64 rows costs.
  World w;
  Ontology onto = w.Onto("HasOffice(x, y) -> Office(y)");
  std::string facts;
  for (int i = 0; i < 100; ++i) {
    facts += "HasOffice(p" + std::to_string(i) + ", o" + std::to_string(i) +
             ")\n";
  }
  w.Load(facts);
  server::QueryRegistry registry(&onto, &w.db);
  ASSERT_TRUE(
      registry.Prepare("offices", w.Query("q(x, y) :- HasOffice(x, y)")).ok());
  server::SessionManager manager;
  auto sid = manager.Open(registry.Get("offices"), /*complete=*/false);
  ASSERT_TRUE(sid.ok());
  std::vector<ValueTuple> rows;
  bool done = false;
  // Warm-up: the thread's first fetch assigns its metric stripes.
  ASSERT_TRUE(manager.Fetch(*sid, 1, &rows, &done).ok());

  auto locks_for_fetch = [&](uint64_t n) {
    rows.clear();
    const uint64_t before = CountedMutex::TotalAcquisitions();
    const Status s = manager.Fetch(*sid, n, &rows, &done);
    const uint64_t locks = CountedMutex::TotalAcquisitions() - before;
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(rows.size(), n);
    EXPECT_FALSE(done);
    return locks;
  };
  const uint64_t one_row = locks_for_fetch(1);
  const uint64_t many_rows = locks_for_fetch(64);
  EXPECT_EQ(one_row, many_rows) << "a FETCH took a lock per answer";
  EXPECT_EQ(one_row, 1u) << "the session lookup is one manager lock";

  const uint64_t before_get = CountedMutex::TotalAcquisitions();
  ASSERT_NE(registry.Get("offices"), nullptr);
  EXPECT_EQ(CountedMutex::TotalAcquisitions() - before_get, 1u)
      << "a registry Get is one registry lock";
  ASSERT_TRUE(manager.Close(*sid).ok());
}

TEST(ServerTest, ReadPathSoak32Threads) {
  // 32 reader threads hammer Get/Open/Fetch/Reset/Close while one thread
  // churns the registry (Evict + re-Prepare displaces PreparedOMQ
  // references) and another runs the idle reaper (closes sessions under
  // live readers). Runs in the TSan CI job, repeated and shuffled: the
  // assertions here are bookkeeping invariants; the sanitizer checks the
  // locking and the teardown.
  World w;
  Ontology onto = w.Onto(R"(
    Researcher(x) -> exists y. HasOffice(x, y)
    HasOffice(x, y) -> Office(y)
    Office(x) -> exists y. InBuilding(x, y)
  )");
  w.Load(R"(
    Researcher(mary) Researcher(john) Researcher(mike)
    HasOffice(mary, room1) HasOffice(john, room4)
    InBuilding(room1, main1)
  )");
  server::QueryRegistry registry(&onto, &w.db);
  const CQ query = w.Query(kOfficeQuery);
  ASSERT_TRUE(registry.Prepare("offices", query).ok());

  server::SessionLimits limits;
  limits.idle_timeout_ms = 50;
  metrics::Registry metrics;
  server::SessionManager manager(limits, &metrics);

  constexpr int kThreads = 32;
  constexpr int kRounds = 12;
  std::atomic<bool> stop{false};
  std::vector<int> failures(kThreads, 0);

  std::thread churn([&registry, &query, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      registry.Evict("offices");
      if (!registry.Prepare("offices", query).ok()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  std::thread reaper([&manager, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      manager.ReapIdle();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&registry, &manager, &failures, t] {
      for (int round = 0; round < kRounds; ++round) {
        // The churn thread leaves a tiny evicted-but-not-yet-reprepared
        // window; retry the lookup instead of failing on it.
        std::shared_ptr<const PreparedOMQ> prepared;
        for (int attempt = 0; attempt < 10000 && prepared == nullptr;
             ++attempt) {
          prepared = registry.Get("offices");
          if (prepared == nullptr) std::this_thread::yield();
        }
        if (prepared == nullptr) {
          ++failures[t];
          continue;
        }
        auto sid = manager.Open(prepared, /*complete=*/false);
        if (!sid.ok()) {
          ++failures[t];
          continue;
        }
        size_t rows_seen = 0;
        bool done = false;
        bool lost_to_reaper = false;
        while (!done) {
          std::vector<ValueTuple> rows;
          Status s = manager.Fetch(*sid, 2, &rows, &done);
          if (!s.ok()) {
            // An oversubscribed thread can stall past the idle timeout and
            // lose its session to the reaper — a correct outcome, not a
            // soak failure. Anything else is.
            if (s.code() != StatusCode::kNotFound) ++failures[t];
            lost_to_reaper = true;
            break;
          }
          rows_seen += rows.size();
        }
        if (!lost_to_reaper) {
          if (rows_seen != 3) ++failures[t];
          if ((round & 3) == 0) manager.Reset(*sid);
          Status s = manager.Close(*sid);
          if (!s.ok() && s.code() != StatusCode::kNotFound) ++failures[t];
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop.store(true, std::memory_order_release);
  churn.join();
  reaper.join();

  manager.CloseAll();
  EXPECT_EQ(manager.live_sessions(), 0u);
  // Every opened session ended exactly one way: explicit close, reap, or
  // the final CloseAll.
  EXPECT_EQ(metrics.GetCounter("omqe_sessions_opened_total")->Value(),
            metrics.GetCounter("omqe_sessions_closed_total")->Value() +
                metrics.GetCounter("omqe_sessions_reaped_total")->Value());
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
}

TEST(ServerTest, EstimatorRejectsExplodingOntologyBeforeChase) {
  World w;
  // 4x-branching frontier: 4^depth nulls. The query's excursion depth
  // (8 atoms, 9 variables -> cap ~11) puts the bound in the millions, so
  // PREPARE must reject from the structure alone instead of grinding the
  // chase toward the fact budget (fuzzer seed 2208's failure mode).
  Ontology onto = w.Onto(
      "P(x) -> exists y1, y2, y3, y4. "
      "P(y1), P(y2), P(y3), P(y4), Q(x, y1)");
  w.Load("P(a)");
  metrics::Registry metrics;
  server::RegistryOptions options;
  options.max_estimated_chase_facts = 1u << 16;
  options.metrics = &metrics;
  server::QueryRegistry registry(&onto, &w.db, options);
  auto result = registry.Prepare(
      "boom", w.Query("q(x1, x2, x3, x4, x5, x6, x7, x8, x9) :- "
                      "Q(x1, x2), Q(x2, x3), Q(x3, x4), Q(x4, x5), "
                      "Q(x5, x6), Q(x6, x7), Q(x7, x8), Q(x8, x9)"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(
      metrics.GetCounter("omqe_prepare_rejected_by_estimate_total")->Value(),
      1u);
  EXPECT_EQ(registry.size(), 0u);
}

TEST(ServerTest, DeterministicPrepareRefusalsAreNotRetryable) {
  // Both of PREPARE's budget refusals fail the same way on every resend,
  // so the wire must not invite a retry: an ERR whose code the client's
  // retry predicate rejects (BADREQ, not OVERLOAD).
  auto expect_fatal = [](const std::string& r, const char* message) {
    ASSERT_TRUE(server::IsError(r)) << r;
    EXPECT_FALSE(server::AnyRetryableError(r)) << r;
    EXPECT_EQ(r.rfind("ERR BADREQ ", 0), 0u) << r;
    EXPECT_NE(r.find(message), std::string::npos) << r;
  };
  {
    // The admission estimate: computed once for the environment, so every
    // PREPARE against this 4x-branching ontology is refused.
    World w;
    Ontology onto = w.Onto(
        "P(x) -> exists y1, y2, y3, y4. "
        "P(y1), P(y2), P(y3), P(y4), Q(x, y1)");
    w.Load("P(a)");
    server::OmqeServer srv(&w.vocab, &onto, &w.db);
    server::InProcessClient client(&srv);
    for (int resend = 0; resend < 2; ++resend) {
      expect_fatal(client.Roundtrip("PREPARE boom q(x, y) :- Q(x, y)"),
                   "chase-size estimate exceeds the admission budget");
    }
  }
  {
    // The chase fact budget: the office chase builds 19 facts.
    server::ServerOptions options;
    options.registry.max_estimated_chase_facts = 0;
    options.registry.prepare.chase.max_facts = 10;
    OfficeServer w(options);
    server::InProcessClient client(w.srv.get());
    for (int resend = 0; resend < 2; ++resend) {
      expect_fatal(
          client.Roundtrip(std::string("PREPARE offices ") + kOfficeQuery),
          "chase exceeded the fact budget");
    }
  }
}

// ---------------------------------------------------------------------------
// The observability surface: METRICS / TRACE verbs, per-verb latency
// histograms, the enumeration-delay histogram, and the no-drift contract
// between the METRICS text and the metric registry.
// ---------------------------------------------------------------------------

TEST(ProtocolTest, ParsesMetricsAndTraceVerbs) {
  auto metrics = server::ParseRequest("METRICS");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->verb, server::Verb::kMetrics);
  EXPECT_TRUE(metrics->arg.empty());
  auto json = server::ParseRequest("METRICS json");
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->arg, "json");
  EXPECT_FALSE(server::ParseRequest("METRICS xml").ok());
  EXPECT_FALSE(server::ParseRequest("METRICS json extra").ok());

  for (const char* sub : {"on", "off", "dump"}) {
    auto t = server::ParseRequest(std::string("TRACE ") + sub);
    ASSERT_TRUE(t.ok()) << sub;
    EXPECT_EQ(t->verb, server::Verb::kTrace);
    EXPECT_EQ(t->arg, sub);
  }
  EXPECT_FALSE(server::ParseRequest("TRACE").ok());
  EXPECT_FALSE(server::ParseRequest("TRACE sideways").ok());
  EXPECT_FALSE(server::ParseRequest("TRACE dump now").ok());
}

TEST(ServerTest, MetricsVerbReportsLatencyAndEnumDelayHistograms) {
  OfficeServer w;
  server::InProcessClient client(w.srv.get());
  ASSERT_FALSE(server::IsError(
      client.Roundtrip(std::string("PREPARE offices ") + kOfficeQuery)));
  ASSERT_FALSE(server::IsError(client.Roundtrip("OPEN offices")));
  std::string fetched = client.Roundtrip("FETCH 1 100");
  ASSERT_EQ(ResponseRows(fetched).size(), 3u) << fetched;

  std::string r = client.Roundtrip("METRICS");
  EXPECT_EQ(ResponseTerminator(r), "OK METRICS");
  // The Prometheus exposition rides in METRIC lines: counters with the
  // values this workload produced...
  for (const char* needle : {
           "METRIC omqe_prepares_total 1",
           "METRIC omqe_sessions_opened_total 1",
           "METRIC omqe_fetch_calls_total 1",
           "METRIC omqe_rows_emitted_total 3",
           "METRIC omqe_registry_size 1",
           "METRIC omqe_sessions_live 1",
       }) {
    EXPECT_NE(r.find(needle), std::string::npos) << needle << "\n" << r;
  }
  // ...the flagship enumeration-delay histogram (the paper's constant-delay
  // guarantee as a served number: one sample per answer emitted)...
  for (const char* needle : {
           "METRIC omqe_enum_delay_ns{quantile=\"0.5\"} ",
           "METRIC omqe_enum_delay_ns{quantile=\"0.99\"} ",
           "METRIC omqe_enum_delay_ns{quantile=\"0.999\"} ",
           "METRIC omqe_enum_delay_ns_count 3",
           "METRIC omqe_enum_delay_ns_max ",
       }) {
    EXPECT_NE(r.find(needle), std::string::npos) << needle << "\n" << r;
  }
  // ...and the per-verb request-latency histograms, with summary suffixes
  // landing before the label brace.
  for (const char* needle : {
           "METRIC omqe_request_latency_ns_count{verb=\"PREPARE\"} 1",
           "METRIC omqe_request_latency_ns_count{verb=\"OPEN\"} 1",
           "METRIC omqe_request_latency_ns_count{verb=\"FETCH\"} 1",
           "METRIC omqe_request_latency_ns{verb=\"FETCH\",quantile=\"0.99\"} ",
       }) {
    EXPECT_NE(r.find(needle), std::string::npos) << needle << "\n" << r;
  }

  // METRICS json: one STAT line in the BENCH baseline shape, label quotes
  // escaped, histogram rows carrying the quantile fields.
  std::string j = client.Roundtrip("METRICS json");
  EXPECT_EQ(ResponseTerminator(j), "OK METRICS");
  EXPECT_NE(j.find("STAT {\"bench\": \"metrics\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"omqe_fetch_calls_total\": 1"), std::string::npos) << j;
  EXPECT_NE(j.find("omqe_request_latency_ns{verb=\\\"FETCH\\\"}"),
            std::string::npos)
      << j;
  for (const char* needle :
       {"\"omqe_enum_delay_ns\"", "\"p50\": ", "\"p99\": ", "\"p999\": ",
        "\"max\": "}) {
    EXPECT_NE(j.find(needle), std::string::npos) << needle << "\n" << j;
  }
}

TEST(ServerTest, TraceOnDumpOffRoundTrip) {
  OfficeServer w;
  server::InProcessClient client(w.srv.get());
  ASSERT_FALSE(server::IsError(
      client.Roundtrip(std::string("PREPARE offices ") + kOfficeQuery)));
  ASSERT_FALSE(server::IsError(client.Roundtrip("OPEN offices")));

  EXPECT_EQ(client.Roundtrip("TRACE on"), "OK TRACE on\n");
  ASSERT_FALSE(server::IsError(client.Roundtrip("FETCH 1 100")));

  std::string dump = client.Roundtrip("TRACE dump");
  // The armed window covers the FETCH: its verb span and the session-manager
  // fetch span (rows emitted in the arg) both surface as SPAN lines.
  EXPECT_NE(dump.find("SPAN FETCH start="), std::string::npos) << dump;
  EXPECT_NE(dump.find("SPAN session.fetch start="), std::string::npos) << dump;
  EXPECT_NE(dump.find("arg=3"), std::string::npos) << dump;  // 3 rows fetched
  std::string term = ResponseTerminator(dump);
  EXPECT_EQ(term.rfind("OK TRACE ", 0), 0u) << dump;
  EXPECT_NE(term.find(" spans"), std::string::npos) << dump;

  EXPECT_EQ(client.Roundtrip("TRACE off"), "OK TRACE off\n");
  // Disarmed: new requests record nothing (the old spans stay dumpable
  // until the next TRACE on clears the rings).
  ASSERT_FALSE(server::IsError(client.Roundtrip("RESET 1")));
  std::string after = client.Roundtrip("TRACE dump");
  EXPECT_EQ(after.find("SPAN RESET"), std::string::npos) << after;
}

TEST(ServerTest, MetricsTextAgreesWithRegistryCounters) {
  // The no-drift contract: METRICS renders the registry's own cells, so
  // after a mixed workload (prepare / failing open / fetch / reset / evict)
  // every counter and gauge the retired STATS verb carried reads the same
  // in the METRICS text as in the registry.
  OfficeServer w;
  server::InProcessClient client(w.srv.get());

  ASSERT_FALSE(server::IsError(
      client.Roundtrip(std::string("PREPARE offices ") + kOfficeQuery)));
  ASSERT_FALSE(server::IsError(client.Roundtrip("OPEN offices")));
  ASSERT_FALSE(server::IsError(client.Roundtrip("FETCH 1 2")));
  ASSERT_FALSE(server::IsError(client.Roundtrip("RESET 1")));
  ASSERT_FALSE(server::IsError(client.Roundtrip("FETCH 1 100")));
  ASSERT_FALSE(server::IsError(client.Roundtrip("CLOSE 1")));
  EXPECT_TRUE(server::IsError(client.Roundtrip("OPEN absent")));  // miss
  ASSERT_FALSE(server::IsError(client.Roundtrip("EVICT offices")));

  const std::string r = client.Roundtrip("METRICS");
  ASSERT_EQ(ResponseTerminator(r), "OK METRICS");
  metrics::Registry& m = w.srv->metric_registry();
  auto expect_line = [&](const char* name, int64_t v) {
    const std::string needle =
        std::string("METRIC ") + name + " " + std::to_string(v) + "\n";
    EXPECT_NE(r.find(needle), std::string::npos) << needle << r;
  };
  auto counter = [&](const char* name) {
    return m.GetCounter(name)->Value();
  };
  for (const char* name : {
           // Session manager.
           "omqe_sessions_opened_total", "omqe_sessions_closed_total",
           "omqe_sessions_reaped_total", "omqe_fetch_calls_total",
           "omqe_rows_emitted_total", "omqe_session_resets_total",
           "omqe_budget_exhausted_total", "omqe_open_rejected_total",
           "omqe_fetch_deadline_hits_total", "omqe_fetch_deadline_empty_total",
           // Registry.
           "omqe_prepares_total", "omqe_prepare_failures_total",
           "omqe_prepare_rejected_by_estimate_total", "omqe_evictions_total",
           "omqe_registry_hits_total", "omqe_registry_misses_total",
           "omqe_prepare_deadline_exceeded_total",
           "omqe_prepare_cancelled_total",
           // Wire.
           "omqe_write_timeout_closes_total", "omqe_oversized_lines_total",
           "omqe_forced_closes_total",
           // Chase, aggregated over the PREPARE.
           "omqe_chase_rounds_total", "omqe_chase_candidates_total",
           "omqe_chase_applied_total", "omqe_chase_nulls_invented_total",
           "omqe_chase_match_nanos_total", "omqe_chase_apply_nanos_total",
       }) {
    expect_line(name, static_cast<int64_t>(counter(name)));
  }
  for (const char* name :
       {"omqe_sessions_live", "omqe_registry_size", "omqe_faults_fired"}) {
    expect_line(name, m.GetGauge(name)->Value());
  }
  EXPECT_GT(counter("omqe_chase_rounds_total"), 0u);

  // Sanity on workload shape: exactly what the exchange above did.
  EXPECT_EQ(counter("omqe_prepares_total"), 1u);
  EXPECT_EQ(counter("omqe_sessions_opened_total"), 1u);
  EXPECT_EQ(counter("omqe_fetch_calls_total"), 2u);
  EXPECT_EQ(counter("omqe_rows_emitted_total"), 5u);
  EXPECT_EQ(counter("omqe_evictions_total"), 1u);
  EXPECT_EQ(counter("omqe_registry_misses_total"), 1u);
}

TEST(ServerTest, TcpTransportServesAndShutsDown) {
  OfficeServer w;
  std::promise<uint16_t> port_promise;
  std::future<uint16_t> port_future = port_promise.get_future();
  std::thread serving([&] {
    Status s = server::ServeTcp(w.srv.get(), /*port=*/0, [&](uint16_t port) {
      port_promise.set_value(port);
    });
    EXPECT_TRUE(s.ok()) << s.ToString();
  });
  uint16_t port = port_future.get();
  ASSERT_NE(port, 0);

  // STATS is retired: it answers like any unknown verb, and the next line
  // on the same connection is served as usual.
  auto response = server::TcpExchange(
      "127.0.0.1", port,
      std::string("PREPARE offices ") + kOfficeQuery +
          "\nOPEN offices\nFETCH 1 10\nCLOSE 1\nSTATS\nMETRICS\nSHUTDOWN\n");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(ResponseRows(*response).size(), 3u) << *response;
  const size_t stats = response->find("\nERR BADREQ unknown verb 'STATS'");
  EXPECT_NE(stats, std::string::npos) << *response;
  const size_t metrics = response->find("\nOK METRICS\n", stats);
  EXPECT_NE(metrics, std::string::npos) << *response;
  EXPECT_EQ(response->find("\nERR", stats + 1), std::string::npos)
      << *response;
  EXPECT_NE(response->find("OK SHUTDOWN"), std::string::npos);
  serving.join();
  EXPECT_TRUE(w.srv->shutdown_requested());
}

}  // namespace
}  // namespace omqe
