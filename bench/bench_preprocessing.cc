// E2 (Proposition 3.3): the query-directed chase — and the whole
// preprocessing phase — runs in time linear in ||D||. Sweeps the office
// workload over doubling sizes; linearity shows as a flat ns/fact column.
// The stage columns split the preprocessing: apply_ms is the chase's apply
// phase (ChaseStats::apply_nanos), the normalize columns time the partial
// (q1, D1) normalization alone on the chase result, and the collect columns
// read the prepare.collect_trees span of one extra traced Prepare, so the
// timed preprocessing_ms stays untraced.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "base/timer.h"
#include "base/trace.h"
#include "bench_util.h"
#include "chase/chase.h"
#include "chase/query_directed.h"
#include "core/partial_enum.h"
#include "core/prepared.h"
#include "eval/normalize.h"
#include "tgd/parser.h"
#include "workload/office.h"

using namespace omqe;

int main(int argc, char** argv) {
  const bool smoke = bench::SmokeMode(argc, argv);
  bench::JsonEmitter json("preprocessing", argc, argv);
  bench::PrintHeader("E2: preprocessing linearity (office workload)",
                     "researchers   ||D||(facts)   chase_ms   chase_ns/fact   "
                     "apply_ms   normalize_ms   norm_ns/fact   "
                     "collect_ms   coll_ns/fact   full_prep_ms   prep_ns/fact");
  for (uint32_t n : bench::Sweep(
           smoke, {10000u, 20000u, 40000u, 80000u, 160000u}, 500u)) {
    Vocabulary vocab;
    Database db(&vocab);
    OfficeParams params;
    params.researchers = n;
    GenerateOffice(params, &db);
    OMQ omq = OfficeOMQ(&vocab);

    Stopwatch chase_watch;
    auto chase = QueryDirectedChase(db, omq.ontology, omq.query);
    double chase_ms = chase_watch.ElapsedSeconds() * 1e3;
    if (!chase.ok()) return 1;
    const double apply_ms =
        static_cast<double>((*chase)->stats.apply_nanos) / 1e6;

    double norm_ms = 0;
    {
      Normalized norm;
      Stopwatch norm_watch;
      if (!Normalize(omq.query, (*chase)->db, /*answers_constants_only=*/false,
                     &norm).ok()) {
        return 1;
      }
      norm_ms = norm_watch.ElapsedSeconds() * 1e3;
    }

    double prep_ms = 0;
    {
      Stopwatch prep_watch;
      auto e = PartialEnumerator::Create(omq, db);
      prep_ms = prep_watch.ElapsedSeconds() * 1e3;
      if (!e.ok()) return 1;
    }

    // The same preprocessing as PartialEnumerator::Create, traced.
    double collect_ms = 0;
    {
      PrepareOptions partial_only;
      partial_only.for_complete = false;
      trace::Enable();
      const int64_t since = NowNanos();
      auto prepared = PreparedOMQ::Prepare(omq, db, partial_only);
      trace::Disable();
      if (!prepared.ok()) return 1;
      for (const trace::Span& span : trace::DumpCurrentThread(since)) {
        if (std::strcmp(span.name, "prepare.collect_trees") == 0) {
          collect_ms += static_cast<double>(span.dur_ns) / 1e6;
        }
      }
      trace::Clear();
    }

    size_t facts = db.TotalFacts();
    const double per_fact = 1e6 / static_cast<double>(facts);
    std::printf("%11u   %12zu   %8.1f   %13.1f   %8.1f   %12.1f   %12.1f   "
                "%10.1f   %12.1f   %12.1f   %12.1f\n",
                n, facts, chase_ms, chase_ms * per_fact, apply_ms, norm_ms,
                norm_ms * per_fact, collect_ms, collect_ms * per_fact, prep_ms,
                prep_ms * per_fact);
    json.AddRow("E2")
        .Set("researchers", n)
        .Set("facts", facts)
        .Set("chase_ms", chase_ms)
        .Set("chase_ns_per_fact", chase_ms * per_fact)
        .Set("apply_ms", apply_ms)
        .Set("normalize_ms", norm_ms)
        .Set("normalize_ns_per_fact", norm_ms * per_fact)
        .Set("collect_ms", collect_ms)
        .Set("collect_ns_per_fact", collect_ms * per_fact)
        .Set("preprocessing_ms", prep_ms)
        .Set("prep_ns_per_fact", prep_ms * per_fact);
  }
  std::printf("\nExpected shape: every ns/fact column stays flat as ||D|| "
              "doubles (linear preprocessing).\n");

  // E2obs: observability overhead on the query-directed chase at the
  // largest office size — the same chase with tracing disarmed vs armed
  // (armed adds three ScopedSpans per chase round: round / match / apply). The acceptance
  // budget is <= 2% overhead; reps are interleaved (disarmed, armed,
  // disarmed, ...) so allocator/page-cache drift hits both sides equally
  // instead of masquerading as instrumentation cost (CI's perf-smoke gates
  // on the emitted overhead_pct, see PairedOverheadPct). On a shared host a
  // ~10 ms smoke leg swings by a quarter from one leg to the next, so the
  // smoke run takes 25 reps.
  bench::PrintHeader("E2obs: tracing overhead on the chase",
                     "armed   chase_ms   cpu_ms   overhead_pct");
  {
    const uint32_t n = smoke ? 4000u : 160000u;
    const int reps = smoke ? 25 : 9;
    Vocabulary vocab;
    Database db(&vocab);
    OfficeParams params;
    params.researchers = n;
    GenerateOffice(params, &db);
    OMQ omq = OfficeOMQ(&vocab);

    struct Leg {
      double wall_ms;
      double cpu_ms;
    };
    auto one_leg = [&]() {
      const int64_t cpu_start = bench::ThreadCpuNanos();
      Stopwatch watch;
      auto chase = QueryDirectedChase(db, omq.ontology, omq.query);
      Leg leg{watch.ElapsedSeconds() * 1e3,
              static_cast<double>(bench::ThreadCpuNanos() - cpu_start) * 1e-6};
      if (!chase.ok()) std::exit(1);
      return leg;
    };
    trace::Disable();
    one_leg();  // warm-up: page in the workload before either timed side
    one_leg();
    std::vector<double> wall[2], cpu[2];  // [armed]
    for (int rep = 0; rep < reps; ++rep) {
      // Alternate which side runs first so frequency/boost ramp-up over the
      // run cannot systematically favor one side.
      for (int leg = 0; leg < 2; ++leg) {
        const bool armed = (leg == 0) == (rep % 2 == 1);
        if (armed) {
          trace::Enable();
        } else {
          trace::Disable();
        }
        Leg l = one_leg();
        wall[armed].push_back(l.wall_ms);
        cpu[armed].push_back(l.cpu_ms);
      }
    }
    trace::Disable();
    trace::Clear();
    const double disarmed_ms = bench::Median(wall[0]);
    const double armed_ms = bench::Median(wall[1]);
    const double disarmed_cpu_ms = bench::Median(cpu[0]);
    const double armed_cpu_ms = bench::Median(cpu[1]);
    const double overhead_pct = bench::PairedOverheadPct(cpu[0], cpu[1]);
    std::printf("%5s   %8.1f   %6.1f   %12s\n", "no", disarmed_ms,
                disarmed_cpu_ms, "-");
    std::printf("%5s   %8.1f   %6.1f   %11.2f%%\n", "yes", armed_ms,
                armed_cpu_ms, overhead_pct);
    json.AddRow("E2obs").Set("armed", 0).Set("facts", db.TotalFacts())
        .Set("chase_ms", disarmed_ms).Set("cpu_ms", disarmed_cpu_ms);
    json.AddRow("E2obs").Set("armed", 1).Set("facts", db.TotalFacts())
        .Set("chase_ms", armed_ms).Set("cpu_ms", armed_cpu_ms)
        .Set("overhead_pct", overhead_pct);
  }
  std::printf("\nExpected shape: overhead_pct stays within the 2%% "
              "observability budget.\n");

  // E2a: apply-heavy chase. The office workload is match-dominated (few
  // existentials fire); this series chases an invention-dense chain
  // ontology — every round invents nulls for most candidates — so phase B
  // (apply) carries the round. apply_ms comes from the engine's own phase
  // timer (ChaseStats::apply_nanos), match_ms from match_nanos; their sum
  // tracks but does not equal chase_ms (reserve + delta bookkeeping sit
  // outside both).
  bench::PrintHeader("E2a: apply-heavy chase (invention-dense chain)",
                     "seed_pairs   chase_ms   match_ms   apply_ms   "
                     "nulls_invented");
  {
    Vocabulary vocab;
    Database db(&vocab);
    Ontology onto = MustParseOntology(R"(
      A(x), B(x) -> exists y, z. C(x, y, z), Link(y, z)
      C(x, y, z) -> exists w. D(y, w)
      A(x) -> exists y. D(x, y)
      D(x, y) -> E(y)
      E(x) -> exists y. D(x, y)
    )", &vocab);
    const uint32_t seed_pairs = smoke ? 200u : 20000u;
    {
      RelId rel_a = vocab.RelationId("A", 1);
      RelId rel_b = vocab.RelationId("B", 1);
      for (uint32_t i = 0; i < seed_pairs; ++i) {
        Value c = vocab.ConstantId("a" + std::to_string(i));
        db.AddFact(rel_a, &c, 1);
        db.AddFact(rel_b, &c, 1);
      }
    }

    ChaseOptions options;
    options.null_depth = 3;
    Stopwatch watch;
    auto chase = RunChase(db, onto, options);
    double ms = watch.ElapsedSeconds() * 1e3;
    if (!chase.ok()) return 1;
    const ChaseStats& stats = (*chase)->stats;
    double match_ms = static_cast<double>(stats.match_nanos) / 1e6;
    double apply_ms = static_cast<double>(stats.apply_nanos) / 1e6;
    std::printf("%10u   %8.1f   %8.1f   %8.1f   %14llu\n", seed_pairs, ms,
                match_ms, apply_ms,
                static_cast<unsigned long long>(stats.nulls_invented));
    json.AddRow("E2a")
        .Set("seed_pairs", seed_pairs)
        .Set("chase_ms", ms)
        .Set("match_ms", match_ms)
        .Set("apply_ms", apply_ms)
        .Set("nulls_invented", stats.nulls_invented);
  }
  std::printf("\nExpected shape: apply_ms dominates match_ms.\n");
  return 0;
}
