#include "chase/estimate.h"

#include <algorithm>
#include <vector>

namespace omqe {

namespace {

/// Saturating arithmetic clamped at `cap`: once a count crosses the cap the
/// estimate only needs to know "too big", not by how much.
size_t SatAdd(size_t a, size_t b, size_t cap) {
  return (b > cap || a > cap - b) ? cap : a + b;
}
size_t SatMul(size_t a, size_t b, size_t cap) {
  if (a == 0 || b == 0) return 0;
  return a > cap / b ? cap : a * b;
}

size_t NumRelationSlotsFor(const Database& input, const Ontology& onto) {
  size_t n = input.NumRelationSlots();
  for (const TGD& tgd : onto.tgds()) {
    for (const Atom& a : tgd.body()) n = std::max<size_t>(n, a.rel + 1);
    for (const Atom& a : tgd.head()) n = std::max<size_t>(n, a.rel + 1);
  }
  return n;
}

/// Upper bound on the firings of `tgd` whose body assignment comes from
/// class counts `counts`: one per distinct body assignment. A guard atom
/// (containing all body variables) determines the assignment, so the
/// tightest guard's count bounds the firings; an unguarded body falls back
/// to the saturating product over its atoms; an empty body fires once.
size_t FiringsBound(const TGD& tgd, const std::vector<size_t>& counts,
                    size_t cap) {
  if (tgd.body().empty()) return 1;
  VarSet body_vars = tgd.BodyVars();
  size_t best = SIZE_MAX;
  for (const Atom& a : tgd.body()) {
    if ((CQ::AtomVars(a) & body_vars) == body_vars) {
      best = std::min(best, counts[a.rel]);
    }
  }
  if (best != SIZE_MAX) return std::min(best, cap);
  size_t product = 1;
  for (const Atom& a : tgd.body()) product = SatMul(product, counts[a.rel], cap);
  return product;
}

/// Must-null positions per relation: position p is in the mask when EVERY
/// fact of r the chase can hold has a null at p. Greatest fixpoint: start
/// from "all positions" for relations with no input facts (and the empty
/// mask otherwise — input facts are null-free or the caller's business),
/// then intersect over every head-atom production: a position is definitely
/// null when its variable is existential, or is bound (in some body atom)
/// at a position already known must-null. Used to keep projections that
/// provably keep a null out of the null-free class, which is what lets
/// depth-capped recursion (Person -> Parent -> Person) converge.
std::vector<uint64_t> MustNullPositions(const Database& input,
                                        const Ontology& onto,
                                        size_t num_rels) {
  std::vector<uint64_t> must(num_rels, ~uint64_t{0});
  for (RelId r = 0; r < input.NumRelationSlots(); ++r) {
    if (input.NumRows(r) > 0) must[r] = 0;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const TGD& tgd : onto.tgds()) {
      VarSet existentials = tgd.ExistentialVars();
      // A body variable is must-null when some body atom carries it at a
      // must-null position (that fact's value there is a null).
      VarSet must_null_vars = 0;
      for (const Atom& a : tgd.body()) {
        for (uint32_t p = 0; p < a.terms.size(); ++p) {
          if (must[a.rel] & (uint64_t{1} << p)) {
            must_null_vars |= VarBit(VarOf(a.terms[p]));
          }
        }
      }
      for (const Atom& h : tgd.head()) {
        uint64_t definite = 0;
        for (uint32_t p = 0; p < h.terms.size(); ++p) {
          VarSet bit = VarBit(VarOf(h.terms[p]));
          if ((existentials & bit) || (must_null_vars & bit)) {
            definite |= uint64_t{1} << p;
          }
        }
        uint64_t refined = must[h.rel] & definite;
        if (refined != must[h.rel]) {
          must[h.rel] = refined;
          changed = true;
        }
      }
    }
  }
  return must;
}

}  // namespace

// The recurrence, stratified into fact classes. nf[r] bounds the null-free
// facts of r; nl[d][r] (d = 1..cap) bounds the facts whose deepest null has
// generation depth d. A firing's body assignment is determined by a guard
// fact (guarded case), so firings split into the same classes: class-0
// firings have null-free bodies and are NEVER suppressed by the chase's
// depth cap (their nulls get depth 1), while class-d firings create depth
// d+1 nulls and fire only while d < cap — exactly the engine's rule
// (chase.cc Apply: max body depth + 1 <= cap). Head facts are classified
// conservatively: an atom carrying an existential joins nl[d+1]; a
// frontier-only atom from a class-0 body is null-free; from a class-d body
// it joins nl[d], plus nf unless some position is must-null (the atom
// might project the null away, and null-free facts seed further
// never-capped class-0 firings — missing them was the soundness hole of a
// plain per-depth wave count). Double-classification only loosens the
// bound, never undercounts it.
//
// Unguarded TGDs get no per-class split: their body facts can mix classes
// (one atom null-free, another at depth 3), so firings are bounded by the
// saturating product over per-relation TOTALS and conservatively treated
// as never-capped class-0 applications (existential heads land at depth 1,
// giving their nulls the maximum number of follow-on waves — a superset of
// what the capped chase allows).
ChaseEstimate EstimateChaseSize(const Database& input, const Ontology& onto,
                                const ChaseEstimateOptions& options) {
  ChaseEstimate est;
  const size_t cap = options.budget + 1;
  const uint32_t depth_cap = options.null_depth;
  const size_t num_rels = NumRelationSlotsFor(input, onto);
  const std::vector<uint64_t> must_null = MustNullPositions(input, onto, num_rels);

  // classes[0] = null-free; classes[d] = deepest null at depth d.
  // totals[r] aggregates all classes (the unguarded firing bound).
  std::vector<std::vector<size_t>> classes(
      depth_cap + 1, std::vector<size_t>(num_rels, 0));
  std::vector<size_t> totals(num_rels, 0);
  size_t total = 0;
  for (RelId r = 0; r < input.NumRelationSlots(); ++r) {
    classes[0][r] = input.NumRows(r);
    totals[r] = classes[0][r];
    total = SatAdd(total, classes[0][r], cap);
  }
  auto add_to_class = [&](uint32_t d, RelId r, size_t delta) {
    classes[d][r] = SatAdd(classes[d][r], delta, cap);
    totals[r] = SatAdd(totals[r], delta, cap);
    total = SatAdd(total, delta, cap);
  };
  std::vector<bool> guarded(onto.tgds().size());
  for (uint32_t t = 0; t < onto.tgds().size(); ++t) {
    const TGD& tgd = onto.tgds()[t];
    VarSet body_vars = tgd.BodyVars();
    guarded[t] = tgd.body().empty();
    for (const Atom& a : tgd.body()) {
      guarded[t] = guarded[t] || (CQ::AtomVars(a) & body_vars) == body_vars;
    }
  }
  // Cumulative attributed firings per (TGD, body class): each pass adds
  // only the delta over this, mirroring the engine's once-per-assignment
  // dedup so repeated passes never double-count an application.
  std::vector<std::vector<size_t>> fired(
      onto.tgds().size(), std::vector<size_t>(depth_cap + 1, 0));

  auto attribute = [&](uint32_t t, uint32_t d) {
    const TGD& tgd = onto.tgds()[t];
    VarSet existentials = tgd.ExistentialVars();
    // Class-d bodies of a null-creating TGD fire only while d < cap.
    if (existentials != 0 && d >= depth_cap) return false;
    // Unguarded bodies mix classes; all their firings are attributed at
    // class 0 over the per-relation totals.
    if (!guarded[t] && d != 0) return false;
    size_t firings =
        FiringsBound(tgd, guarded[t] ? classes[d] : totals, cap);
    if (firings <= fired[t][d]) return false;
    size_t delta = firings - fired[t][d];
    fired[t][d] = firings;
    VarSet must_null_vars = 0;
    for (const Atom& a : tgd.body()) {
      for (uint32_t p = 0; p < a.terms.size(); ++p) {
        if (must_null[a.rel] & (uint64_t{1} << p)) {
          must_null_vars |= VarBit(VarOf(a.terms[p]));
        }
      }
    }
    for (const Atom& h : tgd.head()) {
      bool has_existential = false;
      bool has_must_null = false;
      for (Term term : h.terms) {
        VarSet bit = VarBit(VarOf(term));
        if (existentials & bit) has_existential = true;
        if (must_null_vars & bit) has_must_null = true;
      }
      if (has_existential) {
        add_to_class(d + 1, h.rel, delta);
      } else if (d == 0 && (guarded[t] || !has_must_null)) {
        // Null-free body (guarded class 0), or an unguarded firing whose
        // head provably keeps no null — either way at most class 0. An
        // unguarded class-0 firing CAN carry nulls (its body facts span
        // classes), so must-null heads fall through to nl below.
        add_to_class(0, h.rel, delta);
      } else {
        uint32_t depth = std::max<uint32_t>(d, 1);
        add_to_class(depth, h.rel, delta);
        if (!has_must_null) {
          // The projection may have dropped every null: count the facts in
          // the null-free class too, where they can seed class-0 firings.
          add_to_class(0, h.rel, delta);
        }
      }
    }
    if (existentials != 0) {
      uint32_t n_ex = static_cast<uint32_t>(__builtin_popcountll(existentials));
      est.null_bound = SatAdd(est.null_bound, SatMul(delta, n_ex, cap), cap);
    }
    return true;
  };

  bool changed = true;
  while (changed && est.rounds < options.max_rounds &&
         total <= options.budget) {
    ++est.rounds;
    changed = false;
    for (uint32_t t = 0; t < onto.tgds().size(); ++t) {
      for (uint32_t d = 0; d <= depth_cap; ++d) {
        changed |= attribute(t, d);
      }
    }
  }

  est.fact_bound = std::min(total, cap);
  est.converged = !changed && total <= options.budget;
  est.exceeds_budget = !est.converged;
  return est;
}

}  // namespace omqe
