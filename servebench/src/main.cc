// omqbench: the serving benchmark's load generator and traced run.
//
//   omqbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --server <omqe_server binary> --out-dir <dir> [--commit <id>]
//            [--smoke] [--corrupt-reference]
//
// --trace 0 measures the end-to-end metrics over loopback TCP; --trace 1
// replays the same seed and operations with spans on and adds the
// in-process cost ladder. The last stdout line is the result object; the
// line before it ("# record ...") holds what is needed to reproduce the run.
// Exit status: 0 ok, 1 an answer check failed, 2 usage or set-up error,
// 3 the open-loop sample was invalid (the generator fell behind or the
// backlog grew).
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "drive.h"
#include "ladder.h"
#include "workloads.h"

using namespace sb;

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string server;
  std::string out_dir;
  std::string commit = "unknown";
  bool smoke = false;
  bool corrupt_reference = false;
};

/// Thrown instead of exiting, so unwinding stops every server launched.
struct FatalError {
  int code;
  std::string why;
};

[[noreturn]] void Fail(int code, const std::string& why) {
  throw FatalError{code, why};
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Fail(2, "missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = std::stoi(value());
    else if (k == "--server") a.server = value();
    else if (k == "--out-dir") a.out_dir = value();
    else if (k == "--commit") a.commit = value();
    else if (k == "--smoke") a.smoke = true;
    else if (k == "--corrupt-reference") a.corrupt_reference = true;
    else Fail(2, "unknown argument " + k);
  }
  if (a.server.empty() || a.out_dir.empty() || a.seconds <= 0 ||
      (a.trace != 0 && a.trace != 1)) {
    Fail(2, "usage: omqbench --workload W --seed N --seconds S --trace 0|1 "
            "--server BIN --out-dir DIR");
  }
  return a;
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  f << text;
  if (!f) Fail(2, "cannot write " + path);
}

std::string JsonList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i) out += ", ";
    out += JsonQuote(items[i]);
  }
  return out + "]";
}

std::string ParamsJson(const Workload& w) {
  JsonObject o;
  if (w.office) {
    o.Int("researchers", w.researchers);
  } else {
    o.Int("chain_length", w.chain_length)
        .Int("chain_base", w.chain_base)
        .Int("chain_fanout", w.chain_fanout)
        .Num("chain_anonymous", w.chain_anonymous);
  }
  o.Int("oracle_size", w.oracle_size).Int("setups", w.setups);
  if (w.kind == Kind::kInteractiveChain) {
    o.Num("session_rate", w.session_rate)
        .Num("reprepare_period_s", w.reprepare_period_s);
  }
  return o.Done();
}

std::string PassJson(const PassStats& s) {
  JsonObject errors;
  for (const auto& [code, n] : s.errors) errors.Int(code, static_cast<int64_t>(n));
  JsonObject o;
  o.Int("sent", static_cast<int64_t>(s.sent))
      .Raw("errors", errors.Done())
      .Int("dropped", static_cast<int64_t>(s.dropped))
      .Int("unanswered", static_cast<int64_t>(s.unanswered))
      .Int("rows_received", static_cast<int64_t>(s.rows_received))
      .Int("sessions_checked", static_cast<int64_t>(s.sessions_checked))
      .Int("prepares_checked", static_cast<int64_t>(s.prepares_checked))
      .Int("request_samples", static_cast<int64_t>(s.request_us.size()))
      .Raw("request_us_quantiles", [&] {
        JsonObject q;
        const std::pair<const char*, double> ps[] = {
            {"p10", 0.1}, {"p25", 0.25}, {"p50", 0.5}, {"p75", 0.75},
            {"p90", 0.9}, {"p99", 0.99}, {"p999", 0.999}};
        for (const auto& [name, p] : ps) q.Num(name, Quantile(s.request_us, p));
        return q.Done();
      }())
      .Int("prepare_samples", static_cast<int64_t>(s.prepare_ms.size()));
  if (!s.lag_us.empty()) {
    o.Int("lag_samples", static_cast<int64_t>(s.lag_us.size()))
        .Num("lag_p99_us", Quantile(s.lag_us, 0.99))
        .Num("lag_max_us", Quantile(s.lag_us, 1.0))
        .Raw("backlog_before_prepares", [&] {
          std::string b = "[";
          for (size_t i = 0; i < s.backlog_outside_prepare.size(); ++i) {
            b += (i ? ", " : "") + std::to_string(s.backlog_outside_prepare[i]);
          }
          return b + "]";
        }())
        .Num("backlog_end", s.backlog_end);
  }
  return o.Done();
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream f(path);
  for (const Span& s : spans) {
    f << "{\"name\": " << JsonQuote(s.name) << ", \"start_ns\": " << s.start_ns
      << ", \"end_ns\": " << s.end_ns << ", \"id\": " << s.id
      << ", \"parent\": " << s.parent << ", \"request\": " << s.request << "}\n";
  }
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  JsonObject o;
  for (const Metric& m : metrics) {
    o.Raw(m.name, JsonObject().Num("value", m.value).Str("unit", m.unit).Done());
  }
  return o.Done();
}

double ErrorRate(const PassStats& s) {
  return s.sent == 0 ? 0 : static_cast<double>(s.failed()) / static_cast<double>(s.sent);
}

int Run(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Ctx ctx;
  if (!MakeWorkload(args.workload, args.smoke, &ctx.w)) {
    Fail(2, "unknown workload '" + args.workload +
                "' (prepare-office | stream-chain | interactive-chain)");
  }
  ctx.server_bin = args.server;
  ::mkdir(args.out_dir.c_str(), 0755);
  const std::string stem = args.out_dir + "/" + args.workload + "-" +
                           std::to_string(args.seed) + (args.smoke ? "-smoke" : "");
  ctx.ontology_path = stem + ".onto";
  ctx.data_path = stem + ".facts";
  const Workload& w = ctx.w;
  ctx.data = GenerateDataset(w, args.seed, w.office ? w.researchers : w.chain_base);
  WriteFile(ctx.ontology_path, ctx.data.ontology);
  WriteFile(ctx.data_path, ctx.data.facts);

  // Answer checks that need no server: the engine's reference against the
  // brute-force oracle at the small size, then the full-size reference.
  std::vector<std::string> mismatches;
  if (std::string err = CheckAgainstOracle(GenerateDataset(w, args.seed, w.oracle_size));
      !err.empty()) {
    mismatches.push_back("oracle check: " + err);
  }
  if (std::string err = ComputeReference(ctx.data, &ctx.ref); !err.empty()) {
    mismatches.push_back("reference: " + err);
  }
  if (args.corrupt_reference) ctx.ref.partial.sum ^= 1;

  std::vector<Metric> metrics, extra;
  PassStats all;
  std::string passes;
  double peak_mb = 0;
  if (args.trace == 0) {
    // Half of the set-ups run before the measured window (the last of those
    // serves it) and half after, so the set-up samples span the run.
    std::vector<double> setup_s, setup_prepare_ms;
    LiveServer live;
    const int before = (w.setups + 1) / 2;
    for (int i = 0; i < w.setups; ++i) {
      if (i == before) {
        PassStats run = RunWorkload(ctx, live.port, args.seconds, false);
        if (!run.invalid.empty()) Fail(3, "invalid sample: " + run.invalid);
        peak_mb = FinishServer(&live, run.rows_received, &mismatches);
        passes = JsonObject()
                     .Raw("run", PassJson(run))
                     .Int("setup_samples", w.setups)
                     .Done();
        all.Merge(std::move(run));
      }
      LiveServer s;
      if (std::string err = Launch(ctx, &s); !err.empty()) Fail(2, err);
      setup_s.push_back(s.setup_s);
      if (!w.office) setup_prepare_ms.push_back(s.prepare_ms);
      if (i + 1 == before) {
        live = std::move(s);
      } else {
        FinishServer(&s, 0, &mismatches);
      }
    }
    const bool prepares_in_run = w.kind != Kind::kStreamChain;
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"prepare_ms",
         Quantile(prepares_in_run ? all.prepare_ms : setup_prepare_ms, kFastQuantile),
         "ms"},
        {"partial_rows_per_s", all.PartialRowsPerS(), "rows/s"},
        {"peak_rss_mb", peak_mb, "MB"},
    };
    // Recorded but not in the result, for want of steadiness (README.md):
    // complete-mode streaming is bound by FETCH roundtrips, the closed
    // loops' OPEN/FETCH/CLOSE mix is bimodal, and failures read 0.
    extra = {
        {"complete_rows_per_s", all.CompleteRowsPerS(), "rows/s"},
        {"request_p50_us", Quantile(all.request_us, 0.5), "us"},
        {"request_p99_us", Quantile(all.request_us, 0.99), "us"},
        {"error_rate", ErrorRate(all), "frac"},
    };
  } else {
    LiveServer live;
    if (std::string err = Launch(ctx, &live); !err.empty()) Fail(2, err);
    // The traced run takes about twice the untraced one: a quarter of the
    // window each untraced and traced, short probes, then the ladder.
    const double quarter = args.seconds / 4;
    PassStats untraced = RunWorkload(ctx, live.port, quarter, false);
    PassStats traced = RunWorkload(ctx, live.port, quarter, true);
    const double probe_s = std::max(1.0, args.seconds / 15);
    PassStats closed_i = RunClosedInteractive(ctx, live.port, probe_s);
    PassStats open_i = RunOpenInteractive(ctx, live.port, probe_s, false, false);
    PassStats closed_s = RunClosedStream(ctx, live.port, probe_s);
    for (PassStats* s : {&untraced, &traced, &open_i}) {
      if (!s->invalid.empty()) Fail(3, "invalid sample: " + s->invalid);
    }
    TcpRungs tcp;
    std::vector<double> prepares = untraced.prepare_ms;
    prepares.insert(prepares.end(), traced.prepare_ms.begin(), traced.prepare_ms.end());
    if (!w.office) prepares.push_back(live.prepare_ms);
    tcp.prepare_ms = Median(prepares);
    tcp.fetch16_us = Median(closed_i.fetch_us);
    double fetch256_total_us = 0;
    for (double us : closed_s.fetch_us) fetch256_total_us += us;
    tcp.fetch256_us = closed_s.rows_received == 0
                          ? 0
                          : fetch256_total_us * 256 /
                                static_cast<double>(closed_s.rows_received);
    tcp.closed_mix_p50_us = Median(closed_i.request_us);
    tcp.open_mix_p50_us = Median(open_i.request_us);
    // Tracing overhead on the workload's headline metric, positive when
    // the traced pass did worse.
    double overhead = 0;
    if (w.kind == Kind::kPrepareOffice) {
      const double u = Median(untraced.prepare_ms), t = Median(traced.prepare_ms);
      overhead = u > 0 ? (t - u) / u * 100 : 0;
    } else if (w.kind == Kind::kStreamChain) {
      const double u = untraced.PartialRowsPerS() + untraced.CompleteRowsPerS();
      const double t = traced.PartialRowsPerS() + traced.CompleteRowsPerS();
      overhead = u > 0 ? (u - t) / u * 100 : 0;
    } else {
      const double u = Median(untraced.request_us), t = Median(traced.request_us);
      overhead = u > 0 ? (t - u) / u * 100 : 0;
    }
    passes = JsonObject()
                 .Raw("untraced", PassJson(untraced))
                 .Raw("traced", PassJson(traced))
                 .Raw("closed_interactive", PassJson(closed_i))
                 .Raw("open_interactive", PassJson(open_i))
                 .Raw("closed_stream", PassJson(closed_s))
                 .Done();
    std::vector<Span> spans = traced.spans;
    for (PassStats* s : {&untraced, &traced, &closed_i, &open_i, &closed_s}) {
      all.Merge(std::move(*s));
    }
    FinishServer(&live, all.rows_received, &mismatches);
    SpanLog ladder_log(true);
    RunLadder(ctx, args.seconds / 2, tcp, &metrics, &mismatches, &ladder_log);
    metrics.push_back({"bench.trace_overhead_pct", overhead, "%"});
    metrics.push_back({"error_rate", ErrorRate(all), "frac"});
    spans.insert(spans.end(), ladder_log.spans().begin(), ladder_log.spans().end());
    WriteSpans(stem + "-spans.jsonl", spans);
  }
  mismatches.insert(mismatches.end(), all.mismatches.begin(), all.mismatches.end());
  const bool correct = mismatches.empty();

  const std::string record =
      JsonObject()
          .Str("workload", w.name)
          .Int("seed", static_cast<int64_t>(args.seed))
          .Num("seconds", args.seconds)
          .Int("trace", args.trace)
          .Bool("smoke", w.smoke)
          .Raw("params", ParamsJson(w))
          .Int("fact_lines", static_cast<int64_t>(ctx.data.fact_lines))
          .Raw("reference", JsonObject()
                                .Int("partial_rows", static_cast<int64_t>(ctx.ref.partial.rows))
                                .Int("complete_rows", static_cast<int64_t>(ctx.ref.complete.rows))
                                .Int("progress_trees", static_cast<int64_t>(ctx.ref.progress_trees))
                                .Int("chase_facts", static_cast<int64_t>(ctx.ref.chase_facts))
                                .Done())
          .Int("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()))
          .Raw("server_argv", JsonList(ctx.ServerArgv()))
          .Str("commit", args.commit)
          .Raw("passes", passes)
          .Raw("extra_metrics", MetricsJson(extra))
          .Raw("mismatches", JsonList(mismatches))
          .Done();
  WriteFile(stem + "-trace" + std::to_string(args.trace) + "-record.json", record + "\n");
  for (const std::string& m : mismatches) std::fprintf(stderr, "omqbench: MISMATCH %s\n", m.c_str());

  std::printf("# record %s\n", record.c_str());
  std::printf("%s\n", JsonObject()
                          .Bool("correct", correct)
                          .Int("attempted", static_cast<int64_t>(std::max<uint64_t>(1, all.sent)))
                          .Int("failed", static_cast<int64_t>(all.failed()))
                          .Raw("metrics", MetricsJson(metrics))
                          .Done()
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  try {
    return Run(argc, argv);
  } catch (const FatalError& e) {
    std::fprintf(stderr, "omqbench: %s\n", e.why.c_str());
    return e.code;
  }
}
