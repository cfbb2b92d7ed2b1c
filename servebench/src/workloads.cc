#include "workloads.h"

#include <algorithm>
#include <vector>

#include "core/omq.h"
#include "core/prepared.h"
#include "cq/parser.h"
#include "data/loader.h"
#include "eval/brute.h"
#include "tgd/parser.h"

namespace sb {

namespace {

// Example 1.1 of the paper, and the chain ontology whose anonymous seeds
// grow chains of nulls (so partial answers carry wildcards).
const char* kOfficeOntology =
    "Researcher(x) -> exists y. HasOffice(x, y)\n"
    "HasOffice(x, y) -> Office(y)\n"
    "Office(x) -> exists y. InBuilding(x, y)\n";
const char* kOfficeQuery =
    "q(x1, x2, x3) :- HasOffice(x1, x2), InBuilding(x2, x3)";

/// splitmix64: the benchmark's own generator, so inputs depend only on the
/// seed and this file.
struct Rng {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
  bool Chance(double p) {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p;
  }
};

void Append(std::string* out, const char* fmt, uint64_t a, uint64_t b = 0,
            uint64_t c = 0, uint64_t d = 0) {
  char line[128];
  int n = std::snprintf(line, sizeof(line), fmt,
                        static_cast<unsigned long long>(a),
                        static_cast<unsigned long long>(b),
                        static_cast<unsigned long long>(c),
                        static_cast<unsigned long long>(d));
  out->append(line, static_cast<size_t>(n));
}

/// The rendering of the server's ROW lines (OmqeServer::DoFetch).
std::string RenderRow(const omqe::Vocabulary& vocab,
                      const omqe::ValueTuple& row) {
  std::string out;
  for (uint32_t i = 0; i < row.size(); ++i) {
    if (i) out.push_back(',');
    omqe::Value v = row[i];
    if (omqe::IsConstant(v)) {
      out.append(vocab.ConstantName(v));
    } else if (v == omqe::kStar) {
      out.push_back('*');
    } else {
      out.append(vocab.ValueName(v));
    }
  }
  return out;
}

/// The environment the server builds from its --ontology/--data files, plus
/// the served query prepared on it.
struct Engine {
  omqe::Vocabulary vocab;
  omqe::Database db{&vocab};
  std::shared_ptr<const omqe::PreparedOMQ> prepared;
  omqe::CQ query;

  std::string Build(const Dataset& data) {
    auto onto = omqe::ParseOntology(data.ontology, &vocab);
    if (!onto.ok()) return "ontology: " + onto.status().ToString();
    if (omqe::Status s = omqe::LoadFacts(data.facts, &db); !s.ok()) {
      return "facts: " + s.ToString();
    }
    auto q = omqe::ParseCQ(data.query, &vocab);
    if (!q.ok()) return "query: " + q.status().ToString();
    query = q.value();
    auto p = omqe::PreparedOMQ::Prepare(
        omqe::MakeOMQ(std::move(onto).value(), query), db);
    if (!p.ok()) return "prepare: " + p.status().ToString();
    prepared = std::move(p).value();
    return "";
  }

  template <typename Session>
  std::vector<std::string> Drain() {
    Session session(prepared);
    std::vector<std::string> rows;
    omqe::ValueTuple t;
    while (session.Next(&t)) rows.push_back(RenderRow(vocab, t));
    return rows;
  }
};

std::vector<std::string> Rendered(const omqe::Vocabulary& vocab,
                                  const std::vector<omqe::ValueTuple>& rows) {
  std::vector<std::string> out;
  for (const auto& row : rows) out.push_back(RenderRow(vocab, row));
  return out;
}

}  // namespace

bool MakeWorkload(const std::string& name, bool smoke, Workload* out) {
  Workload w;
  w.name = name;
  w.smoke = smoke;
  if (name == "prepare-office") {
    w.kind = Kind::kPrepareOffice;
    w.office = true;
    // 20,000 rather than 160,000: in busy spells of a shared host a
    // 160,000-researcher PREPARE (~450 MB) cost twice what it did in quiet
    // ones. The smaller working set (~60 MB) moves less, and a run holds
    // about 250 PREPAREs instead of about 30.
    w.researchers = smoke ? 3000 : 20000;
    w.oracle_size = smoke ? 400 : 2000;
  } else if (name == "stream-chain" || name == "interactive-chain") {
    w.kind = name == "stream-chain" ? Kind::kStreamChain
                                    : Kind::kInteractiveChain;
    w.office = false;
    w.chain_base = smoke ? 1500 : 20000;
    w.oracle_size = smoke ? 200 : 1000;
    if (smoke) w.reprepare_period_s = 1;
  } else {
    return false;
  }
  w.setups = smoke ? 2 : 6;
  *out = w;
  return true;
}

Dataset GenerateDataset(const Workload& w, uint64_t seed, uint32_t size) {
  Dataset d;
  Rng rng{seed * 0x2545F4914F6CDD1Dull + (w.office ? 1 : 2)};
  if (w.office) {
    d.ontology = kOfficeOntology;
    d.query = kOfficeQuery;
    // Same shape as the paper's running example at scale: 60% of the
    // researchers have a named office, half of those a named building from
    // a slowly growing shared pool.
    for (uint32_t i = 0; i < size; ++i) {
      Append(&d.facts, "Researcher(r%llu)\n", i);
      ++d.fact_lines;
      if (!rng.Chance(0.6)) continue;
      Append(&d.facts, "HasOffice(r%llu, o%llu)\n", i, i);
      ++d.fact_lines;
      if (!rng.Chance(0.5)) continue;
      Append(&d.facts, "InBuilding(o%llu, b%llu)\n", i, rng.Below(1 + i / 50));
      ++d.fact_lines;
    }
    return d;
  }
  const uint32_t len = w.chain_length;
  d.ontology = "Seed(x) -> exists y. R1(x, y)\n";
  for (uint32_t i = 1; i < len; ++i) {
    Append(&d.ontology, "R%llu(x, y) -> exists z. R%llu(y, z)\n", i, i + 1);
  }
  d.query = "q(";
  for (uint32_t i = 0; i <= len; ++i) {
    Append(&d.query, i ? ", x%llu" : "x%llu", i);
  }
  d.query += ") :- ";
  for (uint32_t i = 1; i <= len; ++i) {
    Append(&d.query, i > 1 ? ", R%llu(x%llu, x%llu)" : "R%llu(x%llu, x%llu)",
           i, i - 1, i);
  }
  // Layered chains with fixed fanout; an anonymous layer-0 constant gets
  // only a Seed fact, so the ontology grows its chain out of nulls.
  for (uint32_t i = 0; i < size; ++i) {
    if (rng.Chance(w.chain_anonymous)) {
      Append(&d.facts, "Seed(c0_%llu)\n", i);
      ++d.fact_lines;
      continue;
    }
    for (uint32_t layer = 0; layer < len; ++layer) {
      for (uint32_t f = 0; f < w.chain_fanout; ++f) {
        Append(&d.facts, "R%llu(c%llu_%llu, ", layer + 1, layer, i);
        Append(&d.facts, "c%llu_%llu)\n", layer + 1, rng.Below(size));
        ++d.fact_lines;
      }
    }
  }
  return d;
}

std::string ComputeReference(const Dataset& data, Reference* out) {
  Engine e;
  if (std::string err = e.Build(data); !err.empty()) return err;
  out->progress_trees = e.prepared->num_progress_trees();
  out->chase_facts = e.prepared->chase().db.TotalFacts();
  auto digest = [out](const std::vector<std::string>& rows, Digest* d) {
    std::vector<uint64_t> hashes;
    hashes.reserve(rows.size());
    for (const std::string& r : rows) {
      d->Add(r);
      hashes.push_back(HashRow(r));
    }
    std::sort(hashes.begin(), hashes.end());
    if (std::adjacent_find(hashes.begin(), hashes.end()) != hashes.end()) {
      out->duplicates = true;
    }
  };
  digest(e.Drain<omqe::EnumerationSession>(), &out->partial);
  digest(e.Drain<omqe::CompleteSession>(), &out->complete);
  return out->duplicates ? "reference answer set repeats a row" : "";
}

std::string CheckAgainstOracle(const Dataset& data) {
  Engine e;
  if (std::string err = e.Build(data); !err.empty()) return err;
  const omqe::Database& chased = e.prepared->chase().db;
  auto same = [](std::vector<std::string> a, std::vector<std::string> b) {
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    return a == b;
  };
  std::vector<std::string> partial = e.Drain<omqe::EnumerationSession>();
  if (partial.empty() ||
      !same(partial, Rendered(e.vocab, omqe::BruteMinimalPartialAnswers(
                                           e.query, chased)))) {
    return "minimal partial answers disagree with the brute-force oracle";
  }
  std::vector<std::string> complete = e.Drain<omqe::CompleteSession>();
  if (complete.empty() ||
      !same(complete,
            Rendered(e.vocab, omqe::BruteCompleteAnswers(e.query, chased)))) {
    return "complete answers disagree with the brute-force oracle";
  }
  return "";
}

}  // namespace sb
