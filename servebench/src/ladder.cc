#include "ladder.h"

#include <atomic>
#include <memory>
#include <thread>

#include "chase/query_directed.h"
#include "core/omq.h"
#include "core/prepared.h"
#include "cq/parser.h"
#include "data/loader.h"
#include "eval/normalize.h"
#include "server/protocol.h"
#include "server/server.h"
#include "tgd/parser.h"

namespace sb {

namespace {

using omqe::CompleteSession;
using omqe::EnumerationSession;
using omqe::PreparedOMQ;
using omqe::ValueTuple;

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// The server's environment, built from the workload's texts the way
/// omqe_server builds it from its --ontology/--data files.
struct Env {
  std::unique_ptr<omqe::Vocabulary> vocab;
  std::unique_ptr<omqe::Ontology> onto;
  std::unique_ptr<omqe::Database> db;
};

/// Builds a fresh environment; returns the LoadFacts time in ns.
int64_t LoadEnv(const Ctx& ctx, Env* env) {
  env->vocab = std::make_unique<omqe::Vocabulary>();
  env->onto = std::make_unique<omqe::Ontology>(
      omqe::MustParseOntology(ctx.data.ontology, env->vocab.get()));
  env->db = std::make_unique<omqe::Database>(env->vocab.get());
  const int64_t t0 = NowNs();
  omqe::Status s = omqe::LoadFacts(ctx.data.facts, env->db.get());
  const int64_t dt = NowNs() - t0;
  if (!s.ok()) {
    std::fprintf(stderr, "servebench: LoadFacts failed: %s\n",
                 s.ToString().c_str());
    std::exit(1);
  }
  return dt;
}

/// Times `fn` and records it as one span.
template <typename Fn>
int64_t Timed(SpanLog* log, const char* name, uint64_t parent, Fn&& fn) {
  const int64_t t0 = NowNs();
  fn();
  const int64_t t1 = NowNs();
  log->Add(name, t0, t1, parent, 0);
  return t1 - t0;
}

std::string Handle(omqe::server::OmqeServer& srv, const std::string& line) {
  std::string out;
  srv.HandleLine(line, &out);
  return out;
}

/// Whole-session engine drain: total ns, rows, and (when `delays` is set)
/// the per-answer delays.
template <typename Session>
uint64_t EngineDrain(std::shared_ptr<const PreparedOMQ> p, int64_t* ns,
                     std::vector<double>* delays, double* touched_frac) {
  Session s(std::move(p));
  ValueTuple t;
  uint64_t rows = 0;
  const int64_t t0 = NowNs();
  if (delays == nullptr) {
    while (s.Next(&t)) ++rows;
  } else {
    int64_t prev = t0;
    for (;;) {
      const bool more = s.Next(&t);
      const int64_t now = NowNs();
      if (!more) break;
      delays->push_back(static_cast<double>(now - prev));
      prev = now;
      ++rows;
    }
  }
  *ns = NowNs() - t0;
  if constexpr (std::is_same_v<Session, EnumerationSession>) {
    if (touched_frac != nullptr) {
      const size_t trees = s.prepared().num_progress_trees();
      *touched_frac = trees == 0 ? 0
                                 : static_cast<double>(
                                       s.overlay_stats().touched_nodes) /
                                       static_cast<double>(trees);
    }
  }
  return rows;
}

/// Batches `fn` `n` times; returns ns per call.
template <typename Fn>
double PerCall(SpanLog* log, const char* name, int n, Fn&& fn) {
  const int64_t dt = Timed(log, name, 0, [&] {
    for (int i = 0; i < n; ++i) fn(i);
  });
  return static_cast<double>(dt) / n;
}

}  // namespace

void RunLadder(const Ctx& ctx, double budget_s, const TcpRungs& tcp,
               std::vector<Metric>* out, std::vector<std::string>* mismatches,
               SpanLog* log) {
  const int64_t budget_end = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  auto add = [out](const char* name, double v, const char* unit) {
    out->push_back(Metric{name, v, unit});
  };

  // --- data: LoadFacts, three fresh loads; the last environment is kept.
  Env env;
  std::vector<double> load_ms;
  for (int i = 0; i < 3; ++i) load_ms.push_back(Ms(LoadEnv(ctx, &env)));
  add("data.load_ms", Median(load_ms), "ms");

  omqe::server::OmqeServer srv(env.vocab.get(), env.onto.get(), env.db.get());
  const omqe::CQ query = omqe::MustParseCQ(ctx.data.query, env.vocab.get());
  const omqe::OMQ omq = omqe::MakeOMQ(*env.onto, query);

  // --- memory: resident growth while the registry holds one artifact.
  const int64_t rss0 = ProcStatusKb(0, "VmRSS");
  auto held = srv.registry().Prepare("ladder", query);
  const int64_t rss1 = ProcStatusKb(0, "VmRSS");
  if (!held.ok()) {
    mismatches->push_back("ladder PREPARE failed: " + held.status().ToString());
    return;
  }
  std::shared_ptr<const PreparedOMQ> p = held.value();
  add("core.prepared_mb", static_cast<double>(rss1 - rss0) / 1024.0, "MB");
  add("chase.facts_out", static_cast<double>(p->chase().db.TotalFacts()), "count");
  add("core.progress_trees", static_cast<double>(p->num_progress_trees()), "count");
  add("chase.rounds", static_cast<double>(p->chase().stats.rounds), "count");
  add("chase.nulls_invented",
      static_cast<double>(p->chase().stats.nulls_invented), "count");

  // --- PREPARE rungs, interleaved per repetition. The registry and
  // protocol rungs re-PREPARE the held name, as the workloads do, so they
  // include the replaced artifact's teardown.
  const std::string prepare_line = "PREPARE ladder " + ctx.data.query;
  std::vector<double> qdc, match, apply, norm_c, norm_p, core, reg, proto;
  const int64_t ladder_start = NowNs();
  for (int rep = 0; rep < 5; ++rep) {
    const uint64_t parent = log->Add("ladder.prepare", NowNs(), NowNs(), 0, rep);
    std::shared_ptr<omqe::ChaseResult> chased;
    qdc.push_back(Ms(Timed(log, "chase.qdc", parent, [&] {
      chased = omqe::QueryDirectedChase(*env.db, *env.onto, query).value();
    })));
    match.push_back(static_cast<double>(chased->stats.match_nanos) / 1e6);
    apply.push_back(static_cast<double>(chased->stats.apply_nanos) / 1e6);
    for (bool complete : {true, false}) {
      omqe::Normalized n;
      omqe::Status s;
      const int64_t dt = Timed(log, complete ? "eval.normalize_complete"
                                             : "eval.normalize_partial",
                               parent, [&] {
        s = omqe::Normalize(query, chased->db, complete, &n);
      });
      if (!s.ok()) mismatches->push_back("Normalize failed: " + s.ToString());
      (complete ? norm_c : norm_p).push_back(Ms(dt));
    }
    chased.reset();
    {
      std::shared_ptr<const PreparedOMQ> fresh;
      core.push_back(Ms(Timed(log, "core.prepare", parent, [&] {
        fresh = PreparedOMQ::Prepare(omq, *env.db).value();
      })));
    }
    reg.push_back(Ms(Timed(log, "server.registry.prepare", parent, [&] {
      p = srv.registry().Prepare("ladder", query).value();
    })));
    std::string reply;
    proto.push_back(Ms(Timed(log, "server.protocol.prepare", parent, [&] {
      reply = Handle(srv, prepare_line);
    })));
    if (omqe::server::AnyError(reply)) {
      mismatches->push_back("HandleLine PREPARE: " + reply);
    }
    p = srv.registry().Get("ladder");
    // At least one repetition; more while the budget's first half lasts.
    const int64_t per_rep = (NowNs() - ladder_start) / (rep + 1);
    if (NowNs() + per_rep > ladder_start + (budget_end - ladder_start) / 2) break;
  }
  // Self times from the rungs of the same repetition, which run seconds
  // apart, so slow drift in machine speed cancels; medians over repetitions.
  std::vector<double> collect_self, reg_self, proto_self;
  for (size_t i = 0; i < qdc.size(); ++i) {
    collect_self.push_back(core[i] - qdc[i] - norm_c[i] - norm_p[i]);
    reg_self.push_back(reg[i] - core[i]);
    proto_self.push_back(proto[i] - reg[i]);
  }
  const double m_qdc = Median(qdc), m_proto = Median(proto),
               m_match = Median(match), m_apply = Median(apply);
  add("chase.qdc_ms", m_qdc, "ms");
  add("chase.match_ms", m_match, "ms");
  add("chase.apply_ms", m_apply, "ms");
  add("eval.normalize_complete_ms", Median(norm_c), "ms");
  add("eval.normalize_partial_ms", Median(norm_p), "ms");
  add("core.prepare_ms", Median(core), "ms");
  add("core.collect_self_ms", Median(collect_self), "ms");
  add("server.registry.prepare_self_ms", Median(reg_self), "ms");
  add("server.protocol.prepare_self_ms", Median(proto_self), "ms");
  // Every rung above telescopes into the TCP PREPARE roundtrip except the
  // chase's time outside its match and apply phases.
  add("bench.unattributed_frac",
      tcp.prepare_ms > 0 ? (m_qdc - m_match - m_apply) / tcp.prepare_ms : 0,
      "frac");

  // --- FETCH 256 ladder: engine, SessionManager::Fetch and HandleLine,
  // each draining one partial and one complete session per round. Rounds
  // interleave the rungs; per-row self times pair rungs of one round.
  omqe::server::SessionManager& sm = srv.sessions();
  std::vector<double> ep_row, ec_row, sm_self, render, hl_row;
  uint64_t bytes = 0, hl_rows = 0;
  const int64_t fetch_start = NowNs();
  for (int round = 0; round < 3; ++round) {
    int64_t ns_ep = 0, ns_ec = 0;
    const uint64_t rows_p = EngineDrain<EnumerationSession>(p, &ns_ep, nullptr, nullptr);
    const uint64_t rows_c = EngineDrain<CompleteSession>(p, &ns_ec, nullptr, nullptr);
    const double rows_all = static_cast<double>(rows_p + rows_c);
    ep_row.push_back(rows_p ? double(ns_ep) / double(rows_p) : 0);
    ec_row.push_back(rows_c ? double(ns_ec) / double(rows_c) : 0);

    int64_t ns_sm = 0;
    for (bool complete : {false, true}) {
      const uint64_t sid = sm.Open(p, complete).value();
      std::vector<ValueTuple> batch;
      bool done = false;
      ns_sm += Timed(log, "server.session_manager.fetch256", 0, [&] {
        while (!done) {
          batch.clear();
          if (!sm.Fetch(sid, 256, &batch, &done).ok()) break;
        }
      });
      sm.Close(sid);
    }

    int64_t ns_hl = 0;
    for (bool complete : {false, true}) {
      uint64_t sid = 0;
      omqe::server::ParseOpenSession(
          Handle(srv, complete ? "OPEN ladder complete" : "OPEN ladder partial"), &sid);
      const std::string fetch = "FETCH " + std::to_string(sid) + " 256";
      ReplyParser parser;
      Digest got;
      bool done = false;
      std::string reply;
      while (!done) {
        reply.clear();
        ns_hl += Timed(log, "server.protocol.fetch256", 0, [&] {
          srv.HandleLine(fetch, &reply);
        });
        bytes += reply.size();
        parser.Feed(reply.data(), reply.size(),
                    [&got](std::string_view row) { got.Add(row); },
                    [&done, &hl_rows](Reply& r) {
                      hl_rows += r.rows;
                      done = !r.ok() || omqe::server::FetchDone(r.terminator);
                    });
      }
      Handle(srv, "CLOSE " + std::to_string(sid));
      if (got != (complete ? ctx.ref.complete : ctx.ref.partial)) {
        mismatches->push_back("in-process FETCH drain differs from the reference");
      }
    }
    sm_self.push_back((double(ns_sm) - double(ns_ep + ns_ec)) / rows_all);
    render.push_back((double(ns_hl) - double(ns_sm)) / rows_all);
    hl_row.push_back(double(ns_hl) / rows_all);
    const int64_t per_round = (NowNs() - fetch_start) / (round + 1);
    if (NowNs() + per_round > budget_end) break;
  }
  std::vector<double> delays_p, delays_c;
  double touched = 0;
  int64_t unused = 0;
  EngineDrain<EnumerationSession>(p, &unused, &delays_p, &touched);
  EngineDrain<CompleteSession>(p, &unused, &delays_c, nullptr);
  add("core.enum_partial_ns_per_row", Median(ep_row), "ns/row");
  add("core.enum_partial_delay_p99_ns", Quantile(delays_p, 0.99), "ns");
  add("core.enum_complete_ns_per_row", Median(ec_row), "ns/row");
  add("core.enum_complete_delay_p99_ns", Quantile(delays_c, 0.99), "ns");
  add("core.overlay_touched_frac", touched, "frac");
  add("server.session_manager.fetch256_self_ns_per_row", Median(sm_self), "ns/row");
  add("server.protocol.render_ns_per_row", Median(render), "ns/row");
  add("server.protocol.bytes_per_row", hl_rows ? double(bytes) / double(hl_rows) : 0, "bytes/row");
  // Per 256 rows over whole drains of both modes, as the TCP rung is taken.
  add("server.transport.fetch256_self_us", tcp.fetch256_us - Median(hl_row) * 256 / 1e3, "us");

  // --- Interactive rungs: parse, lookup, session churn, FETCH 16.
  const std::string lines[4] = {"OPEN ladder partial", "FETCH 12345 16",
                                "FETCH 12345 16", "CLOSE 12345"};
  std::atomic<uint64_t> sink{0};
  add("server.protocol.parse_ns", PerCall(log, "server.protocol.parse", 200000, [&](int i) {
        sink += omqe::server::ParseRequest(lines[i & 3]).ok();
      }), "ns");
  add("server.registry.get_ns", PerCall(log, "server.registry.get", 200000, [&](int) {
        sink += srv.registry().Get("ladder") != nullptr;
      }), "ns");
  add("server.session_manager.open_close_ns",
      PerCall(log, "server.session_manager.open_close", 20000, [&](int i) {
        sm.Close(sm.Open(p, i & 1).value());
      }), "ns");
  add("core.session_open_ns", PerCall(log, "core.session_open", 20000, [&](int i) {
        if (i & 1) {
          CompleteSession s(p);
        } else {
          EnumerationSession s(p);
        }
      }), "ns");

  std::vector<double> sm16_self, hl16_self, hl16;
  ValueTuple t;
  std::vector<ValueTuple> batch;
  bool done = false;
  std::string reply;
  double eng16[2] = {0, 0}, sm16[2] = {0, 0};
  for (int i = 0; i < 2000; ++i) {
    const bool complete = i & 1;
    {
      std::unique_ptr<EnumerationSession> ps;
      std::unique_ptr<CompleteSession> cs;
      if (complete) cs = std::make_unique<CompleteSession>(p);
      else ps = std::make_unique<EnumerationSession>(p);
      for (int f = 0; f < 2; ++f) {
        const int64_t t0 = NowNs();
        for (int k = 0; k < 16; ++k) complete ? cs->Next(&t) : ps->Next(&t);
        eng16[f] = double(NowNs() - t0);
      }
    }
    const uint64_t sid = sm.Open(p, complete).value();
    for (int f = 0; f < 2; ++f) {
      batch.clear();
      const int64_t t0 = NowNs();
      sm.Fetch(sid, 16, &batch, &done);
      sm16[f] = double(NowNs() - t0);
      sm16_self.push_back(sm16[f] - eng16[f]);
    }
    sm.Close(sid);
    uint64_t hsid = 0;
    omqe::server::ParseOpenSession(
        Handle(srv, complete ? "OPEN ladder complete" : "OPEN ladder partial"), &hsid);
    const std::string fetch = "FETCH " + std::to_string(hsid) + " 16";
    for (int f = 0; f < 2; ++f) {
      reply.clear();
      const int64_t t0 = NowNs();
      srv.HandleLine(fetch, &reply);
      hl16.push_back(double(NowNs() - t0));
      hl16_self.push_back(hl16.back() - sm16[f]);
    }
    Handle(srv, "CLOSE " + std::to_string(hsid));
  }
  add("server.session_manager.fetch16_self_ns", Median(sm16_self), "ns");
  add("server.protocol.fetch16_self_ns", Median(hl16_self), "ns");
  add("server.transport.fetch16_self_us", tcp.fetch16_us - Median(hl16) / 1e3, "us");
  add("server.transport.pipeline_extra_us",
      tcp.open_mix_p50_us - tcp.closed_mix_p50_us, "us");

  // --- A FETCH while a PREPARE runs on another thread, minus its idle
  // latency: the stall readers see behind a write.
  uint64_t sid = 0;
  omqe::server::ParseOpenSession(Handle(srv, "OPEN ladder partial"), &sid);
  const std::string fetch = "FETCH " + std::to_string(sid) + " 16";
  std::vector<double> idle, stalled;
  for (int i = 0; i < 64; ++i) {
    if (i % 32 == 0) Handle(srv, "RESET " + std::to_string(sid));
    reply.clear();
    const int64_t t0 = NowNs();
    srv.HandleLine(fetch, &reply);
    idle.push_back(Ms(NowNs() - t0));
  }
  const std::string prepare2 = "PREPARE ladder2 " + ctx.data.query;
  const auto lead = std::chrono::microseconds(
      std::min<int64_t>(20'000, static_cast<int64_t>(m_proto * 100)));
  for (int rep = 0; rep < 3; ++rep) {
    std::atomic<bool> started{false};
    std::thread writer([&] {
      started = true;
      Handle(srv, prepare2);
    });
    while (!started) std::this_thread::yield();
    std::this_thread::sleep_for(lead);
    Handle(srv, "RESET " + std::to_string(sid));
    reply.clear();
    stalled.push_back(Ms(Timed(log, "server.protocol.fetch_during_prepare", 0,
                               [&] { srv.HandleLine(fetch, &reply); })));
    writer.join();
    if (NowNs() > budget_end) break;
  }
  Handle(srv, "CLOSE " + std::to_string(sid));
  add("server.protocol.fetch_wait_during_prepare_ms",
      Median(stalled) - Median(idle), "ms");
  if (sink.load() == 0) mismatches->push_back("ladder lookups found nothing");
}

}  // namespace sb
