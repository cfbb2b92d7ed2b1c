// E13 (ablation): two design choices of the chase.
//  (a) Null-depth cap of the query-directed chase: cost of extra depth vs.
//      the adaptive stop (the paper's cl(Q)-construction corresponds to a
//      depth "deep enough"; adaptivity buys exactness at minimal cost).
//  (b) Horn-engine datalog saturation vs. the generic chase on the
//      existential-free fragment (Proposition 3.3's device).
#include <cstdio>

#include "base/timer.h"
#include "bench_util.h"
#include "chase/chase.h"
#include "chase/query_directed.h"
#include "tgd/parser.h"
#include "workload/office.h"
#include "workload/university.h"

using namespace omqe;

int main(int argc, char** argv) {
  const bool smoke = bench::SmokeMode(argc, argv);
  bench::JsonEmitter json("ablation", argc, argv);
  const uint32_t university_scale = smoke ? 500 : 20000;
  bench::PrintHeader("E13a: chase depth ablation (university, 20k faculty)",
                     "null_depth   chase_ms   facts   db_part   truncated");
  {
    Vocabulary vocab;
    Database db(&vocab);
    UniversityParams params;
    params.faculty = university_scale;
    params.students = university_scale;
    GenerateUniversity(params, &db);
    Ontology onto = UniversityOntology(&vocab);
    for (uint32_t depth : {1u, 2u, 4u, 8u, 12u}) {
      ChaseOptions options;
      options.null_depth = depth;
      Stopwatch watch;
      auto result = RunChase(db, onto, options);
      if (!result.ok()) return 1;
      double chase_ms = watch.ElapsedSeconds() * 1e3;
      std::printf("%10u   %8.1f   %5zu   %7zu   %s\n", depth, chase_ms,
                  (*result)->db.TotalFacts(), (*result)->db_part_facts,
                  (*result)->truncated ? "yes" : "no");
      json.AddRow("E13a")
          .Set("null_depth", depth)
          .Set("chase_ms", chase_ms)
          .Set("facts", (*result)->db.TotalFacts())
          .Set("db_part_facts", (*result)->db_part_facts)
          .Set("truncated", (*result)->truncated);
    }
    std::printf("(db_part stabilizes immediately: extra depth only grows the "
                "null part linearly.)\n");
  }

  bench::PrintHeader("E13c: oblivious vs restricted chase (university, 20k faculty)",
                     "mode         chase_ms   facts");
  {
    Vocabulary vocab;
    Database db(&vocab);
    UniversityParams params;
    params.faculty = university_scale;
    params.students = university_scale;
    GenerateUniversity(params, &db);
    Ontology onto = UniversityOntology(&vocab);
    for (ChaseMode mode : {ChaseMode::kOblivious, ChaseMode::kRestricted}) {
      ChaseOptions options;
      options.mode = mode;
      options.null_depth = 4;
      Stopwatch watch;
      auto result = RunChase(db, onto, options);
      if (!result.ok()) return 1;
      double chase_ms = watch.ElapsedSeconds() * 1e3;
      const char* mode_name =
          mode == ChaseMode::kOblivious ? "oblivious" : "restricted";
      std::printf("%-10s   %8.1f   %5zu\n", mode_name, chase_ms,
                  (*result)->db.TotalFacts());
      json.AddRow("E13c")
          .Set("mode", mode_name)
          .Set("chase_ms", chase_ms)
          .Set("facts", (*result)->db.TotalFacts());
    }
    std::printf("(the restricted chase skips satisfied heads: a strictly "
                "smaller universal model.)\n");
  }

  bench::PrintHeader(
      "E13b: Horn datalog saturation vs. generic chase (derived hierarchy)",
      "facts_in   horn_ms   chase_ms   facts_out_equal");
  {
    for (uint32_t n : bench::Sweep(smoke, {20000u, 40000u, 80000u}, 500u)) {
      Vocabulary vocab;
      Database db(&vocab);
      OfficeParams params;
      params.researchers = n;
      params.prof_fraction = 0.3;
      GenerateOffice(params, &db);
      // Existential-free guarded fragment.
      Ontology datalog = MustParseOntology(R"(
        Prof(x) -> Researcher(x)
        HasOffice(x, y) -> Office(y)
        HasOffice(x, y) -> Occupied(y)
        InBuilding(x, y) -> Building(y)
      )",
                                           &vocab);
      Stopwatch horn_watch;
      auto horn = HornDatalogSaturation(db, datalog, &vocab);
      double horn_ms = horn_watch.ElapsedSeconds() * 1e3;

      Stopwatch chase_watch;
      auto chase = RunChase(db, datalog, ChaseOptions());
      double chase_ms = chase_watch.ElapsedSeconds() * 1e3;
      if (!chase.ok()) return 1;

      bool equal = horn->TotalFacts() == (*chase)->db.TotalFacts();
      std::printf("%8zu   %7.1f   %8.1f   %s\n", db.TotalFacts(), horn_ms,
                  chase_ms, equal ? "yes" : "NO!");
      json.AddRow("E13b")
          .Set("facts_in", db.TotalFacts())
          .Set("horn_ms", horn_ms)
          .Set("chase_ms", chase_ms)
          .Set("facts_out_equal", equal);
    }
  }
  return 0;
}
