#include "workload/differential.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "base/str.h"
#include "chase/estimate.h"
#include "core/complete_enum.h"
#include "core/complete_first.h"
#include "core/multiwild_enum.h"
#include "core/partial_enum.h"
#include "core/prepared.h"
#include "core/wildcards.h"
#include "eval/brute.h"

namespace omqe {

namespace {

std::vector<ValueTuple> SortedCopy(std::vector<ValueTuple> tuples) {
  SortTuples(&tuples);
  return tuples;
}

std::string RenderTuple(const Vocabulary& vocab, const ValueTuple& t) {
  std::string out = "(";
  for (uint32_t i = 0; i < t.size(); ++i) {
    if (i) out += ",";
    out += vocab.ValueName(t[i]);
  }
  return out + ")";
}

/// First element of `a` \ `b` (both sorted), or nullptr.
const ValueTuple* FirstMissing(const std::vector<ValueTuple>& a,
                               const std::vector<ValueTuple>& b) {
  size_t i = 0, j = 0;
  while (i < a.size()) {
    if (j >= b.size() || a[i] < b[j]) return &a[i];
    if (b[j] < a[i]) {
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  return nullptr;
}

struct Checker {
  const GeneratedCase& c;
  DiffReport report;

  bool Fail(const char* check, std::string detail) {
    report.ok = false;
    report.check = check;
    report.failure = std::move(detail);
    report.failure += "\ncase:\n" + SerializeCase(c);
    return false;
  }

  /// got == want as sets, and got is duplicate-free.
  bool CheckAnswerSet(const char* check, const std::vector<ValueTuple>& got,
                      const std::vector<ValueTuple>& want_sorted) {
    std::vector<ValueTuple> got_sorted = SortedCopy(got);
    for (size_t i = 1; i < got_sorted.size(); ++i) {
      if (got_sorted[i - 1] == got_sorted[i]) {
        return Fail(check, "duplicate answer " +
                               RenderTuple(*c.vocab, got_sorted[i]));
      }
    }
    if (got_sorted == want_sorted) return true;
    std::string detail = StrPrintf("answer sets differ: got %zu, want %zu",
                                   got_sorted.size(), want_sorted.size());
    if (const ValueTuple* m = FirstMissing(want_sorted, got_sorted)) {
      detail += "; missing " + RenderTuple(*c.vocab, *m);
    }
    if (const ValueTuple* e = FirstMissing(got_sorted, want_sorted)) {
      detail += "; extra " + RenderTuple(*c.vocab, *e);
    }
    return Fail(check, detail);
  }
};

template <typename Cursor>
std::vector<ValueTuple> Drain(Cursor& cursor) {
  std::vector<ValueTuple> out;
  ValueTuple t;
  while (cursor.Next(&t)) out.push_back(t);
  return out;
}

}  // namespace

DiffReport RunDifferential(const GeneratedCase& c, const DiffOptions& options) {
  Checker ck{c, DiffReport()};

  OMQ omq = c.Omq();
  if (!omq.IsGuarded() || !omq.IsAcyclic() || !omq.IsFreeConnexAcyclic()) {
    ck.Fail("admissibility", "generator emitted an inadmissible case");
    return ck.report;
  }

  // One prepare backs every cursor below — the production sharing path.
  PrepareOptions prepare;
  prepare.chase = options.chase;
  if (options.estimator_budget) {
    // Raise the chase budget only when the estimator proves it safe: a
    // converged bound under the ceiling cannot blow past it, while a
    // diverging estimate keeps the small default so hostile cases abort
    // fast (and are reported as chase_skipped, not ground for minutes).
    ChaseEstimateOptions eopts;
    eopts.null_depth = options.chase.max_depth;
    eopts.budget = options.estimator_ceiling;
    ChaseEstimate est = EstimateChaseSize(*c.db, c.ontology, eopts);
    if (est.converged && !est.exceeds_budget &&
        est.fact_bound > prepare.chase.max_facts) {
      prepare.chase.max_facts = est.fact_bound;
      ck.report.budget_raised = true;
    }
  }
  auto prepared_or = PreparedOMQ::Prepare(omq, *c.db, prepare);
  if (!prepared_or.ok()) {
    if (prepared_or.status().code() == StatusCode::kResourceExhausted) {
      ck.report.chase_skipped = true;
      return ck.report;
    }
    ck.Fail("prepare", prepared_or.status().ToString());
    return ck.report;
  }
  std::shared_ptr<const PreparedOMQ> prepared = std::move(prepared_or).value();
  const Database& chased = prepared->chase().db;

  // Oracle answer sets on the same chase.
  std::vector<ValueTuple> want_complete =
      SortedCopy(BruteCompleteAnswers(c.query, chased));
  std::vector<ValueTuple> want_partial =
      SortedCopy(BruteMinimalPartialAnswers(c.query, chased));
  ck.report.complete_answers = want_complete.size();
  ck.report.partial_answers = want_partial.size();

  // 1. Complete enumeration.
  {
    auto e = CompleteEnumerator::FromPrepared(prepared);
    if (!ck.CheckAnswerSet("complete_enum", Drain(*e), want_complete)) {
      return ck.report;
    }
    ValueTuple t;
    if (e->Next(&t)) {
      ck.Fail("complete_enum", "cursor produced an answer after exhaustion");
      return ck.report;
    }
  }

  // 2. Partial enumeration, plus Reset reproducing the set over the pruned
  // overlay (the paper's S' observation).
  {
    auto e = PartialEnumerator::FromPrepared(prepared);
    if (!ck.CheckAnswerSet("partial_enum", Drain(*e), want_partial)) {
      return ck.report;
    }
    e->Reset();
    if (!ck.CheckAnswerSet("partial_enum_reset", Drain(*e), want_partial)) {
      return ck.report;
    }
    ValueTuple t;
    if (e->Next(&t)) {
      ck.Fail("partial_enum", "cursor produced an answer after exhaustion");
      return ck.report;
    }
  }

  // 3. Multi-wildcard enumeration (skipped above the arity cap: the brute
  // oracle is exponential in arity).
  if (c.query.arity() <= options.max_multiwild_arity) {
    std::vector<ValueTuple> want_multi =
        SortedCopy(BruteMinimalMultiWildcardAnswers(c.query, chased));
    ck.report.multi_answers = want_multi.size();
    auto e = MultiWildcardEnumerator::FromPrepared(prepared);
    if (!ck.CheckAnswerSet("multiwild_enum", Drain(*e), want_multi)) {
      return ck.report;
    }
  } else {
    ck.report.multiwild_skipped = true;
  }

  // 4. Complete-first: same answer set as partial, and every complete answer
  // precedes every wildcard answer (Proposition 2.1's contract).
  {
    auto e = CompleteFirstEnumerator::FromPrepared(prepared);
    std::vector<ValueTuple> got = Drain(*e);
    bool seen_wildcard = false;
    for (const ValueTuple& t : got) {
      bool has_wild = false;
      for (Value v : t) has_wild |= IsWildcard(v);
      if (has_wild) {
        seen_wildcard = true;
      } else if (seen_wildcard) {
        ck.Fail("complete_first",
                "complete answer " + RenderTuple(*c.vocab, t) +
                    " emitted after a wildcard answer");
        return ck.report;
      }
    }
    if (!ck.CheckAnswerSet("complete_first", got, want_partial)) {
      return ck.report;
    }
  }

  // 5. Session independence: two interleaved sessions, a staggered session
  // started mid-run, and an interleaved complete cursor must each see the
  // full answer set — pruning stays in the per-session overlay.
  if (options.check_sessions) {
    EnumerationSession a(prepared);
    EnumerationSession b(prepared);
    CompleteSession cs(prepared);
    std::vector<ValueTuple> got_a, got_b, got_c, got_staggered;
    ValueTuple t;
    bool more_a = true, more_b = true, more_c = true;
    bool staggered_started = false;
    std::unique_ptr<EnumerationSession> staggered;
    while (more_a || more_b || more_c) {
      if (more_a && (more_a = a.Next(&t))) got_a.push_back(t);
      if (!staggered_started) {
        // Spin up a late session after A has pruned at least once.
        staggered_started = true;
        staggered = std::make_unique<EnumerationSession>(prepared);
      }
      if (more_b && (more_b = b.Next(&t))) got_b.push_back(t);
      if (more_c && (more_c = cs.Next(&t))) got_c.push_back(t);
    }
    got_staggered = Drain(*staggered);
    if (!ck.CheckAnswerSet("session_interleaved_a", got_a, want_partial) ||
        !ck.CheckAnswerSet("session_interleaved_b", got_b, want_partial) ||
        !ck.CheckAnswerSet("session_staggered", got_staggered, want_partial) ||
        !ck.CheckAnswerSet("session_complete", got_c, want_complete)) {
      return ck.report;
    }
  }

  return ck.report;
}

DiffReport RunDifferentialSpec(const GenSpec& spec, const DiffOptions& options) {
  return RunDifferential(GenerateCase(spec), options);
}

namespace {

/// Shrink candidates for a value with floor `lo`: the floor itself, then
/// successive halvings toward it.
template <typename T>
std::vector<T> ShrinkCandidates(T cur, T lo) {
  std::vector<T> out;
  if (cur <= lo) return out;
  out.push_back(lo);
  for (T v = cur / 2; v > lo; v /= 2) out.push_back(v);
  if (cur - 1 > lo) out.push_back(cur - 1);
  return out;
}

}  // namespace

GenSpec MinimizeSpec(GenSpec spec,
                     const std::function<bool(const GenSpec&)>& still_fails,
                     int max_rounds) {
  struct U32Field {
    uint32_t GenSpec::* field;
    uint32_t floor;
  };
  // Floors keep the spec generatable (families clamp internally anyway).
  const U32Field u32_fields[] = {
      {&GenSpec::facts, 0},      {&GenSpec::domain, 1},
      {&GenSpec::relations, 1},  {&GenSpec::tgds, 0},
      {&GenSpec::max_arity, 1},  {&GenSpec::max_head_atoms, 1},
      {&GenSpec::chase_depth, 1}, {&GenSpec::query_atoms, 1},
      {&GenSpec::query_vars, 1}, {&GenSpec::fanout, 0},
  };
  double GenSpec::* const f64_fields[] = {&GenSpec::existential_chance,
                                          &GenSpec::coverage};

  for (int round = 0; round < max_rounds; ++round) {
    bool improved = false;
    for (const U32Field& f : u32_fields) {
      for (uint32_t cand : ShrinkCandidates(spec.*(f.field), f.floor)) {
        GenSpec trial = spec;
        trial.*(f.field) = cand;
        if (still_fails(trial)) {
          spec = trial;
          improved = true;
          break;  // keep shrinking this field next round
        }
      }
    }
    for (double GenSpec::* field : f64_fields) {
      for (double cand : {0.0, spec.*field / 2}) {
        if (cand >= spec.*field) continue;
        GenSpec trial = spec;
        trial.*field = cand;
        if (still_fails(trial)) {
          spec = trial;
          improved = true;
          break;
        }
      }
    }
    if (!improved) break;
  }
  return spec;
}

}  // namespace omqe
