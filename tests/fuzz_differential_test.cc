// Differential fuzzing as a ctest suite: every enumeration mode of the
// prepared-query engine against the brute-force oracle over >= 1000
// generated cases spanning all four scenario families, plus a replay of the
// checked-in minimized regression corpus (tests/corpus/*.genspec).
//
// On failure the message embeds the serialized GenSpec — paste it into a
// file and replay with `omqe_fuzz --spec <file>` (which also re-minimizes).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "workload/differential.h"
#include "workload/generator.h"

namespace omqe {
namespace {

// 250 seeds x 4 families = 1000 differential cases per run.
constexpr uint64_t kSeedsPerFamily = 250;

class DifferentialFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialFuzzTest, AllFamiliesAgreeWithOracle) {
  for (GenFamily family : kAllFamilies) {
    GenSpec spec = RandomSpec(family, GetParam());
    DiffReport report = RunDifferentialSpec(spec);
    ASSERT_TRUE(report.ok)
        << "differential mismatch in check '" << report.check << "'\n"
        << report.failure << "\nreplay spec:\n"
        << SerializeSpec(spec);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzzTest,
                         ::testing::Range<uint64_t>(0, kSeedsPerFamily));

// Apply-heavy slice: invention-dense ontologies (high existential chance,
// deep chains, multi-atom heads) over seed databases of hundreds of facts,
// so delta rounds fire hundreds of null-inventing applications — answer
// sets the default slice's small specs do not reach. Sessions and the
// exponential multi-wildcard check are off: the answer-set checks are the
// point.
constexpr uint64_t kApplyHeavySeeds = 8;

class ApplyHeavyFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ApplyHeavyFuzzTest, InventionDenseCasesAgreeWithOracle) {
  DiffOptions options;
  options.check_sessions = false;
  options.max_multiwild_arity = 2;
  for (GenFamily family : kAllFamilies) {
    GenSpec spec = RandomSpec(family, GetParam());
    spec.existential_chance = 0.85;
    spec.chase_depth = 3;
    spec.max_head_atoms = 3;
    spec.facts = 300;
    spec.fanout = 3;
    DiffReport report = RunDifferentialSpec(spec, options);
    ASSERT_TRUE(report.ok)
        << "apply-heavy mismatch in check '" << report.check << "'\n"
        << report.failure << "\nreplay spec:\n"
        << SerializeSpec(spec);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApplyHeavyFuzzTest,
                         ::testing::Range<uint64_t>(0, kApplyHeavySeeds));

// The regression corpus: minimized specs of previously-found mismatches and
// hand-picked structural edge cases. Every file must replay clean.
TEST(CorpusReplayTest, EveryCorpusSpecAgreesWithOracle) {
  const std::filesystem::path dir = OMQE_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".genspec") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty()) << "no *.genspec files in " << dir;
  for (const auto& path : files) {
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto spec = ParseSpec(buffer.str());
    ASSERT_TRUE(spec.ok()) << path << ": " << spec.status().ToString();
    DiffReport report = RunDifferentialSpec(spec.value());
    EXPECT_TRUE(report.ok) << path << ": check '" << report.check << "'\n"
                           << report.failure;
  }
}

// The exact shape of the first fuzz-found bug, pinned inline as well: a
// repeated answer variable must never take two distinct wildcard classes
// (CanonicalMultiTester used to accept (*_1,*_1,*_2) for q(v1,v0,v0)).
TEST(CorpusReplayTest, RepeatedVarTwoClassesRegression) {
  auto spec = ParseSpec(
      "family guarded_random\nseed 4082\nrelations 2\nmax_arity 3\n"
      "tgds 2\nmax_head_atoms 1\nchase_depth 1\n"
      "existential_chance 0.008\nquery_atoms 3\nquery_vars 3\n"
      "domain 2\nfacts 5\nfanout 0\ncoverage 0\n");
  ASSERT_TRUE(spec.ok());
  DiffReport report = RunDifferentialSpec(spec.value());
  EXPECT_TRUE(report.ok) << report.check << "\n" << report.failure;
}

}  // namespace
}  // namespace omqe
