// E6 (Theorem 4.1(2), Proposition 4.2): all-testing complete answers —
// constant time per test after linear preprocessing. The per-test time must
// stay flat while ||D|| grows.
#include <cstdio>
#include <vector>

#include "base/rng.h"
#include "base/str.h"
#include "base/timer.h"
#include "bench_util.h"
#include "core/all_testing.h"
#include "workload/university.h"

using namespace omqe;

int main(int argc, char** argv) {
  const bool smoke = bench::SmokeMode(argc, argv);
  bench::JsonEmitter json("alltesting", argc, argv);
  bench::PrintHeader("E6: all-testing (university catalog)",
                     "faculty   ||D||   prep_ms   tests   ns/test   positives");
  for (uint32_t n : bench::Sweep(smoke, {2000u, 4000u, 8000u, 16000u, 32000u},
                                 200u)) {
    Vocabulary vocab;
    Database db(&vocab);
    UniversityParams params;
    params.faculty = n;
    params.students = n * 2;
    GenerateUniversity(params, &db);
    OMQ omq = CatalogOMQ(&vocab);

    Stopwatch prep;
    auto tester = AllTester::Create(omq, db);
    double prep_ms = prep.ElapsedSeconds() * 1e3;
    if (!tester.ok()) return 1;

    // The candidates are built before the timer starts, so ns/test times
    // the test, not string formatting and constant interning.
    Rng rng(23);
    const size_t kTests = smoke ? 1000 : 200000;
    std::vector<ValueTuple> cands;
    cands.reserve(kTests);
    for (size_t i = 0; i < kTests; ++i) {
      uint32_t f = static_cast<uint32_t>(rng.Below(n));
      cands.push_back(ValueTuple{vocab.ConstantId(StrPrintf("fac%u", f)),
                                 vocab.ConstantId(StrPrintf("course%u", f)),
                                 vocab.ConstantId(StrPrintf("dept%u", f / 40))});
    }
    size_t positives = 0;
    Stopwatch probes;
    for (const ValueTuple& cand : cands) positives += (*tester)->Test(cand);
    double ns_per_test = probes.ElapsedSeconds() * 1e9 / static_cast<double>(kTests);
    std::printf("%7u   %5zu   %7.1f   %5zu   %7.0f   %9zu\n", n, db.TotalFacts(),
                prep_ms, kTests, ns_per_test, positives);
    json.AddRow("E6")
        .Set("faculty", n)
        .Set("facts", db.TotalFacts())
        .Set("preprocessing_ms", prep_ms)
        .Set("tests", kTests)
        .Set("ns_per_test", ns_per_test)
        .Set("positives", positives);
  }
  std::printf("\nExpected shape: ns/test flat while ||D|| grows 16x; prep_ms "
              "linear in ||D||.\n");
  return 0;
}
