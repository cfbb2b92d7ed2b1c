#include "drive.h"

#include <poll.h>
#include <sys/prctl.h>

#include <cstring>
#include <deque>
#include <functional>
#include <thread>

#include "server/protocol.h"

namespace sb {

std::atomic<uint64_t> SpanLog::next_id_{1};

uint64_t SpanLog::Add(const char* name, int64_t start, int64_t end,
                      uint64_t parent, uint64_t request) {
  if (!on_) return 0;
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  spans_.push_back(Span{name, start, end, id, parent, request});
  return id;
}

std::vector<std::string> Ctx::ServerArgv() const {
  return {server_bin, "--ontology=" + ontology_path, "--data=" + data_path,
          "--port=0"};
}

void PassStats::Merge(PassStats&& o) {
  sent += o.sent;
  for (const auto& [code, n] : o.errors) errors[code] += n;
  dropped += o.dropped;
  unanswered += o.unanswered;
  rows_received += o.rows_received;
  sessions_checked += o.sessions_checked;
  prepares_checked += o.prepares_checked;
  auto cat = [](auto* a, auto& b) { a->insert(a->end(), b.begin(), b.end()); };
  cat(&mismatches, o.mismatches);
  cat(&request_us, o.request_us);
  cat(&fetch_us, o.fetch_us);
  cat(&prepare_ms, o.prepare_ms);
  cat(&lag_us, o.lag_us);
  cat(&backlog_outside_prepare, o.backlog_outside_prepare);
  cat(&spans, o.spans);
  cat(&partial_rates, o.partial_rates);
  cat(&complete_rates, o.complete_rates);
  backlog_end += o.backlog_end;
  if (invalid.empty()) invalid = o.invalid;
}

uint64_t PassStats::failed() const {
  uint64_t n = dropped + unanswered;
  for (const auto& [code, k] : errors) n += k;
  return n;
}

namespace {

const char* ServedName(const Ctx& ctx) {
  return ctx.w.office ? "office" : "chain";
}

std::string PrepareLine(const Ctx& ctx, const char* name) {
  return std::string("PREPARE ") + name + " " + ctx.data.query + "\n";
}

using omqe::server::FetchDone;
using omqe::server::ParseOpenSession;

void CountError(const Reply& r, PassStats* st) {
  if (r.ok()) return;
  std::string_view t = r.terminator;
  t.remove_prefix(std::min<size_t>(4, t.size()));  // "ERR "
  st->errors[std::string(t.substr(0, t.find(' ')))]++;
}

void CheckPrepare(const Ctx& ctx, const Reply& r, PassStats* st) {
  if (!r.ok()) return;  // counted as an error
  const int64_t trees = FieldAfter(r.terminator, "trees");
  const int64_t facts = FieldAfter(r.terminator, "chase_facts");
  if (trees != static_cast<int64_t>(ctx.ref.progress_trees) ||
      facts != static_cast<int64_t>(ctx.ref.chase_facts)) {
    st->mismatches.push_back(
        "PREPARE reply '" + r.terminator + "' expected trees=" +
        std::to_string(ctx.ref.progress_trees) +
        " chase_facts=" + std::to_string(ctx.ref.chase_facts));
    return;
  }
  ++st->prepares_checked;
}

/// One closed-loop connection with its accounting.
struct Worker {
  const Ctx& ctx;
  Conn conn;
  PassStats st;
  SpanLog log;
  bool alive = false;

  Worker(const Ctx& c, uint16_t port, bool trace) : ctx(c), log(trace) {
    alive = conn.Connect(port);
    if (!alive) st.dropped++;
  }

  /// One timed roundtrip. False when the connection dropped.
  bool Call(const char* verb, const std::string& line, Reply* r,
            uint64_t parent, const ReplyParser::RowFn& on_row = nullptr) {
    if (!alive) return false;
    ++st.sent;
    const int64_t t0 = NowNs();
    if (!conn.Roundtrip(line, r, on_row)) {
      ++st.dropped;
      ++st.unanswered;
      alive = false;
      return false;
    }
    const int64_t t1 = NowNs();
    log.Add(verb, t0, t1, parent, st.sent);
    CountError(*r, &st);
    st.rows_received += r->rows;
    if (std::strcmp(verb, "PREPARE") == 0) {
      st.prepare_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    } else {
      st.request_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      if (std::strcmp(verb, "FETCH") == 0) {
        st.fetch_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      }
    }
    return true;
  }

  bool Prepare(const char* name) {
    Reply r;
    if (!Call("PREPARE", PrepareLine(ctx, name), &r, 0)) return false;
    CheckPrepare(ctx, r, &st);
    return r.ok();
  }

  /// OPEN, FETCH `batch` until done (or until `stop_ns` passes), CLOSE.
  /// A fully drained session is checked against the reference. Returns
  /// false when the connection dropped.
  bool Drain(bool complete, uint32_t batch, int64_t stop_ns) {
    const int64_t start = NowNs();
    double rows = 0;
    const uint64_t sess_span = log.Add("session", start, start, 0, 0);
    Reply r;
    if (!Call("OPEN",
              std::string("OPEN ") + ServedName(ctx) +
                  (complete ? " complete\n" : " partial\n"),
              &r, sess_span)) {
      return false;
    }
    uint64_t sid = 0;
    if (!ParseOpenSession(r.terminator, &sid)) return true;  // ERR counted
    Digest got;
    auto on_row = [&got](std::string_view row) { got.Add(row); };
    const std::string fetch =
        "FETCH " + std::to_string(sid) + " " + std::to_string(batch) + "\n";
    bool done = false;
    for (;;) {
      if (!Call("FETCH", fetch, &r, sess_span, on_row)) return false;
      rows += static_cast<double>(r.rows);
      if (!r.ok()) break;
      if (FetchDone(r.terminator)) {
        done = true;
        break;
      }
      if (NowNs() >= stop_ns) break;
    }
    if (!Call("CLOSE", "CLOSE " + std::to_string(sid) + "\n", &r, sess_span)) {
      return false;
    }
    st.AddSession(complete, rows, NowNs() - start);
    if (done) {
      const Digest& want = complete ? ctx.ref.complete : ctx.ref.partial;
      if (got != want) {
        st.mismatches.push_back(
            std::string(complete ? "complete" : "partial") +
            " session drained " + std::to_string(got.rows) +
            " rows, digest differs from the reference's " +
            std::to_string(want.rows) + " rows");
      } else {
        ++st.sessions_checked;
      }
    }
    return true;
  }

  PassStats Take() {
    st.spans = log.spans();
    return std::move(st);
  }
};

int64_t Deadline(double seconds) {
  return NowNs() + static_cast<int64_t>(seconds * 1e9);
}

// prepare-office: one connection re-PREPAREs and checks each artifact by
// draining one partial and one complete session. The drains FETCH in bulk:
// at 256 rows a FETCH, the two thread wake-ups of each roundtrip, which a
// busy shared host stretches most, would set the office rows/s.
PassStats RunPrepareOffice(const Ctx& ctx, uint16_t port, double seconds,
                           bool trace) {
  constexpr uint32_t kBatch = 4096;
  Worker w(ctx, port, trace);
  const int64_t stop = Deadline(seconds);
  // Drains run to completion so every artifact is checked in full.
  const int64_t no_stop = INT64_MAX;
  while (w.alive && NowNs() < stop) {
    if (!w.Prepare(ServedName(ctx))) continue;
    if (w.Drain(false, kBatch, no_stop)) w.Drain(true, kBatch, no_stop);
  }
  return w.Take();
}

// stream-chain: three connections drain whole sessions, FETCH 256 at a
// time; two in partial mode, one in complete mode.
PassStats RunStreamChain(const Ctx& ctx, uint16_t port, double seconds,
                         bool trace) {
  const int64_t stop = Deadline(seconds);
  std::vector<PassStats> parts(3);
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&, i] {
      const bool complete = i == 2;
      Worker w(ctx, port, trace);
      while (w.alive && NowNs() < stop) {
        if (!w.Drain(complete, 256, stop)) break;
      }
      parts[i] = w.Take();
    });
  }
  for (auto& t : threads) t.join();
  PassStats all;
  for (auto& p : parts) all.Merge(std::move(p));
  return all;
}

// ---------------------------------------------------------------------------
// Open loop (interactive-chain).
// ---------------------------------------------------------------------------

/// One user session of the open loop: OPEN, FETCH 16, FETCH 16, CLOSE,
/// each step sent when the previous reply arrives.
struct UserSession {
  bool complete = false;
  int step = 0;  // 0 OPEN, 1-2 FETCH, 3 CLOSE
  uint64_t sid = 0;
  uint64_t span = 0;
  int64_t due_ns = 0;  // arrival
  uint64_t rows = 0;
};

struct Outstanding {
  size_t session;
  int64_t due_ns;
  const char* verb;
};

/// One open-loop connection: sessions arrive every `interval_ns` from
/// `first_ns` until `stop_ns`; replies are matched to requests in order.
class OpenLoopConn {
 public:
  OpenLoopConn(const Ctx& ctx, uint16_t port, bool trace, std::atomic<int>* active)
      : name_(ServedName(ctx)), log_(trace), active_(active) {
    if (!conn_.Connect(port)) {
      st_.dropped++;
      alive_ = false;
    }
  }

  PassStats Run(int64_t first_ns, int64_t interval_ns, int64_t stop_ns,
                int64_t drain_ns, bool first_complete) {
    int64_t next_arrival = first_ns;
    bool complete = first_complete;
    auto on_reply = [this](Reply& r) { OnReply(r); };
    while (alive_) {
      int64_t now = NowNs();
      while (next_arrival <= now && next_arrival < stop_ns) {
        sessions_.push_back(UserSession{complete, 0, 0, 0, next_arrival, 0});
        complete = !complete;
        active_->fetch_add(1, std::memory_order_relaxed);
        SendStep(sessions_.size() - 1, next_arrival);
        next_arrival += interval_ns;
        now = NowNs();
      }
      const bool arrivals_done = next_arrival >= stop_ns;
      if (arrivals_done && outstanding_.empty()) break;
      if (now > drain_ns) break;
      int64_t wait_ns = arrivals_done ? 20'000'000 : next_arrival - now;
      wait_ns = std::max<int64_t>(0, std::min<int64_t>(wait_ns, 20'000'000));
      struct pollfd pfd = {conn_.fd(), POLLIN, 0};
      struct timespec ts = {static_cast<time_t>(wait_ns / 1'000'000'000),
                            static_cast<long>(wait_ns % 1'000'000'000)};
      int ready = ::ppoll(&pfd, 1, &ts, nullptr);
      if (ready > 0 && !conn_.Pump(nullptr, on_reply)) {
        st_.dropped++;
        alive_ = false;
      }
    }
    st_.unanswered += outstanding_.size();
    st_.spans = log_.spans();
    return std::move(st_);
  }

 private:
  void SendStep(size_t idx, int64_t due_ns) {
    UserSession& s = sessions_[idx];
    std::string line;
    const char* verb = "OPEN";
    switch (s.step) {
      case 0:
        line = "OPEN " + name_ + (s.complete ? " complete\n" : " partial\n");
        s.span = log_.Add("session", due_ns, due_ns, 0, 0);
        break;
      case 1:
      case 2:
        line = "FETCH " + std::to_string(s.sid) + " 16\n";
        verb = "FETCH";
        break;
      default:
        line = "CLOSE " + std::to_string(s.sid) + "\n";
        verb = "CLOSE";
        break;
    }
    const int64_t sent = NowNs();
    if (!conn_.Send(line)) {
      st_.dropped++;
      alive_ = false;
      return;
    }
    ++st_.sent;
    st_.lag_us.push_back(static_cast<double>(sent - due_ns) / 1e3);
    outstanding_.push_back(Outstanding{idx, due_ns, verb});
  }

  void Finish(size_t idx) {
    active_->fetch_sub(1, std::memory_order_relaxed);
    UserSession& s = sessions_[idx];
    s.step = 4;
    st_.AddSession(s.complete, static_cast<double>(s.rows), NowNs() - s.due_ns);
  }

  void OnReply(Reply& r) {
    if (outstanding_.empty()) {
      st_.mismatches.push_back("reply without a request: " + r.terminator);
      return;
    }
    const Outstanding o = outstanding_.front();
    outstanding_.pop_front();
    const int64_t now = NowNs();
    const double us = static_cast<double>(now - o.due_ns) / 1e3;
    st_.request_us.push_back(us);
    UserSession& s = sessions_[o.session];
    log_.Add(o.verb, o.due_ns, now, s.span, st_.sent);
    st_.rows_received += r.rows;
    s.rows += r.rows;
    if (!r.ok()) {
      CountError(r, &st_);
      // A failed OPEN or CLOSE ends the session; a failed FETCH closes it.
      if (s.step == 1 || s.step == 2) {
        s.step = 3;
        SendStep(o.session, now);
      } else {
        Finish(o.session);
      }
      return;
    }
    if (s.step == 1 || s.step == 2) {
      st_.fetch_us.push_back(us);
      // Every chain session has far more than 32 answers.
      if (r.rows != 16) {
        st_.mismatches.push_back("FETCH 16 returned " + std::to_string(r.rows) +
                                 " rows: " + r.terminator);
      }
    }
    if (s.step == 0 && !ParseOpenSession(r.terminator, &s.sid)) {
      st_.mismatches.push_back("bad OPEN reply: " + r.terminator);
      Finish(o.session);
      return;
    }
    if (s.step == 3) {
      Finish(o.session);
      return;
    }
    ++s.step;
    SendStep(o.session, now);
  }

  const std::string name_;
  Conn conn_;
  bool alive_ = true;
  PassStats st_;
  SpanLog log_;
  std::atomic<int>* active_;
  std::vector<UserSession> sessions_;
  std::deque<Outstanding> outstanding_;
};

}  // namespace

PassStats RunOpenInteractive(const Ctx& ctx, uint16_t port, double seconds,
                             bool trace, bool reprepare) {
  const int kConns = 3;
  const int64_t start = NowNs() + 20'000'000;  // let every thread connect
  const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
  const int64_t drain = stop + 15'000'000'000;
  const int64_t interval =
      static_cast<int64_t>(1e9 * kConns / ctx.w.session_rate);
  std::atomic<int> active{0};
  std::vector<PassStats> parts(kConns + 1);
  std::vector<std::thread> threads;
  for (int i = 0; i < kConns; ++i) {
    threads.emplace_back([&, i] {
      // Wake from ppoll on time: the default 50 us timer slack would show
      // up as send lag.
      ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
      OpenLoopConn c(ctx, port, trace, &active);
      parts[i] = c.Run(start + interval * i / kConns, interval, stop, drain,
                       i % 2 == 1);
    });
  }
  // The re-PREPARE connection: a write beside the reads. The backlog is
  // sampled just before each PREPARE (outside every PREPARE window).
  threads.emplace_back([&] {
    Worker w(ctx, port, trace);
    const int64_t period = static_cast<int64_t>(ctx.w.reprepare_period_s * 1e9);
    for (int64_t due = start + period / 2; reprepare && w.alive && due < stop;
         due += period) {
      while (NowNs() < due) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      w.st.backlog_outside_prepare.push_back(active.load());
      w.Prepare("chain2");
    }
    while (NowNs() < stop) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    w.st.backlog_end = active.load();
    parts[kConns] = w.Take();
  });
  for (auto& t : threads) t.join();
  PassStats all;
  for (auto& p : parts) all.Merge(std::move(p));
  // Validity: the generator must have kept its schedule, and the backlog
  // outside the PREPARE windows must stay bounded.
  const double lag_p99 = Quantile(all.lag_us, 0.99);
  const double backlog_cap = std::max(20.0, ctx.w.session_rate * 0.25);
  if (lag_p99 > 10'000) {
    all.invalid = "generator fell behind: p99 send lag " +
                  std::to_string(lag_p99) + " us";
  }
  for (double b : all.backlog_outside_prepare) {
    if (b > backlog_cap && all.invalid.empty()) {
      all.invalid = "backlog of " + std::to_string(b) +
                    " sessions outside a PREPARE window";
    }
  }
  if (all.backlog_end > backlog_cap && all.invalid.empty()) {
    all.invalid = "backlog of " + std::to_string(all.backlog_end) +
                  " sessions at the end of arrivals";
  }
  return all;
}

namespace {

uint64_t JsonCounter(std::string_view json, const std::string& key) {
  const std::string pat = "\"" + key + "\": ";
  size_t at = json.find(pat);
  if (at == std::string_view::npos) return UINT64_MAX;
  return std::strtoull(std::string(json.substr(at + pat.size(), 24)).c_str(),
                       nullptr, 10);
}

}  // namespace

std::string Launch(const Ctx& ctx, LiveServer* out) {
  out->proc = std::make_unique<ServerProcess>();
  const int64_t t0 = NowNs();
  if (std::string err = out->proc->Start(ctx.ServerArgv()); !err.empty()) {
    return err;
  }
  out->port = out->proc->WaitListening(120);
  if (out->port == 0) {
    return "server did not start listening: " + out->proc->StderrTail();
  }
  if (!ctx.w.office) {
    Worker w(ctx, out->port, false);
    if (!w.Prepare(ServedName(ctx)) || !w.st.mismatches.empty()) {
      return "setup PREPARE failed" +
             (w.st.mismatches.empty() ? "" : ": " + w.st.mismatches[0]);
    }
    out->prepare_ms = w.st.prepare_ms[0];
  }
  out->setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  return "";
}

PassStats RunWorkload(const Ctx& ctx, uint16_t port, double seconds,
                      bool trace) {
  switch (ctx.w.kind) {
    case Kind::kPrepareOffice:
      return RunPrepareOffice(ctx, port, seconds, trace);
    case Kind::kStreamChain:
      return RunStreamChain(ctx, port, seconds, trace);
    case Kind::kInteractiveChain:
      return RunOpenInteractive(ctx, port, seconds, trace, true);
  }
  return PassStats();
}

PassStats RunClosedInteractive(const Ctx& ctx, uint16_t port, double seconds) {
  Worker w(ctx, port, false);
  const int64_t stop = Deadline(seconds);
  bool complete = false;
  Reply r;
  while (w.alive && NowNs() < stop) {
    if (!w.Call("OPEN", std::string("OPEN ") + ServedName(ctx) +
                            (complete ? " complete\n" : " partial\n"),
                &r, 0)) {
      break;
    }
    complete = !complete;
    uint64_t sid = 0;
    if (!ParseOpenSession(r.terminator, &sid)) continue;
    const std::string fetch = "FETCH " + std::to_string(sid) + " 16\n";
    w.Call("FETCH", fetch, &r, 0);
    w.Call("FETCH", fetch, &r, 0);
    w.Call("CLOSE", "CLOSE " + std::to_string(sid) + "\n", &r, 0);
  }
  return w.Take();
}

PassStats RunClosedStream(const Ctx& ctx, uint16_t port, double seconds) {
  Worker w(ctx, port, false);
  const int64_t stop = Deadline(seconds);
  // Whole partial+complete pairs, so the rows mix matches the in-process
  // rung, which drains one session of each mode.
  while (w.alive && NowNs() < stop) {
    if (!w.Drain(false, 256, INT64_MAX) || !w.Drain(true, 256, INT64_MAX)) break;
  }
  return w.Take();
}

double FinishServer(LiveServer* server, uint64_t rows_received,
                    std::vector<std::string>* mismatches) {
  const int64_t hwm_kb = ProcStatusKb(server->proc->pid(), "VmHWM");
  Conn c;
  Reply r;
  if (!c.Connect(server->port) || !c.Roundtrip("METRICS json\n", &r) ||
      !r.ok()) {
    mismatches->push_back("METRICS json failed");
  } else {
    const uint64_t emitted = JsonCounter(r.data, "omqe_rows_emitted_total");
    const uint64_t opened = JsonCounter(r.data, "omqe_sessions_opened_total");
    const uint64_t closed = JsonCounter(r.data, "omqe_sessions_closed_total");
    const uint64_t reaped = JsonCounter(r.data, "omqe_sessions_reaped_total");
    const uint64_t live = JsonCounter(r.data, "omqe_sessions_live");
    if (emitted != rows_received) {
      mismatches->push_back("server emitted " + std::to_string(emitted) +
                            " rows, generator received " +
                            std::to_string(rows_received));
    }
    if (opened == UINT64_MAX || opened != closed + reaped + live) {
      mismatches->push_back(
          "session counters do not balance: opened=" + std::to_string(opened) +
          " closed=" + std::to_string(closed) + " reaped=" +
          std::to_string(reaped) + " live=" + std::to_string(live));
    }
  }
  if (c.fd() >= 0) c.Roundtrip("SHUTDOWN\n", &r);
  c.Close();
  if (!server->proc->Wait(30)) {
    mismatches->push_back("server did not shut down cleanly: " +
                          server->proc->StderrTail());
  }
  return static_cast<double>(hwm_kb) / 1024.0;
}

}  // namespace sb
