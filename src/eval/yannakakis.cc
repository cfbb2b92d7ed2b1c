#include "eval/yannakakis.h"

#include "cq/hypergraph.h"
#include "cq/properties.h"

namespace omqe {

VarRelation MaterializeAtom(const Atom& atom, const Database& db) {
  // Distinct variables in first-occurrence order.
  std::vector<uint32_t> vars;
  for (Term t : atom.terms) {
    if (!IsVarTerm(t)) continue;
    uint32_t v = VarOf(t);
    if (std::find(vars.begin(), vars.end(), v) == vars.end()) vars.push_back(v);
  }
  VarRelation out(vars);
  out.Reserve(db.NumRows(atom.rel));
  ValueTuple row_vals;
  row_vals.resize(static_cast<uint32_t>(vars.size()));
  uint32_t arity = db.Arity(atom.rel);
  OMQE_CHECK(arity == atom.terms.size());
  for (uint32_t r = 0; r < db.NumRows(atom.rel); ++r) {
    const Value* fact = db.Row(atom.rel, r);
    bool ok = true;
    for (uint32_t p = 0; p < arity && ok; ++p) {
      Term t = atom.terms[p];
      if (IsVarTerm(t)) {
        uint32_t col = out.ColumnOf(VarOf(t));
        // Repeated variable: first occurrence sets, later must agree.
        bool first = true;
        for (uint32_t p2 = 0; p2 < p; ++p2) {
          if (IsVarTerm(atom.terms[p2]) && VarOf(atom.terms[p2]) == VarOf(t)) {
            first = false;
            break;
          }
        }
        if (first) {
          row_vals[col] = fact[p];
        } else {
          ok = row_vals[col] == fact[p];
        }
      } else {
        ok = ConstOf(t) == fact[p];
      }
    }
    if (ok) out.AddRow(row_vals.data());
  }
  return out;
}

bool BooleanAcyclicEval(const CQ& q, const Database& db) {
  if (q.atoms().empty()) return true;
  std::vector<VarSet> edges;
  for (const Atom& a : q.atoms()) edges.push_back(CQ::AtomVars(a));
  auto forest = GyoJoinForest(edges);
  OMQE_CHECK(forest.has_value());  // caller guarantees acyclicity

  std::vector<VarRelation> rels;
  rels.reserve(q.atoms().size());
  for (const Atom& a : q.atoms()) {
    rels.push_back(MaterializeAtom(a, db));
    if (rels.back().empty()) return false;
  }
  return ReduceUp(*forest, &rels);
}

bool ReduceUp(const JoinForest& forest, std::vector<VarRelation>* rels) {
  const int n = static_cast<int>(rels->size());
  for (int v : forest.BottomUp()) {
    if (v >= n) continue;
    for (int child : forest.children[v]) {
      if (child < n) SemijoinReduce(&(*rels)[v], (*rels)[child]);
    }
    if ((*rels)[v].empty()) return false;
  }
  return true;
}

void ReduceDown(const JoinForest& forest, std::vector<VarRelation>* rels) {
  const int n = static_cast<int>(rels->size());
  for (int v : forest.PreOrder()) {
    if (v >= n) continue;
    for (int child : forest.children[v]) {
      if (child < n) SemijoinReduce(&(*rels)[child], (*rels)[v]);
    }
  }
}

CQ BindAnswerVars(const CQ& q, const ValueTuple& tuple) {
  OMQE_CHECK(tuple.size() == q.arity());
  // Map each answer variable to its constant; repeated answer variables must
  // agree (callers check coherence first).
  std::vector<Value> binding(q.num_vars(), kNullTag /* unused sentinel */);
  std::vector<bool> is_bound(q.num_vars(), false);
  for (uint32_t i = 0; i < tuple.size(); ++i) {
    OMQE_CHECK(IsConstant(tuple[i]));
    uint32_t v = q.answer_vars()[i];
    OMQE_CHECK(!is_bound[v] || binding[v] == tuple[i]);
    binding[v] = tuple[i];
    is_bound[v] = true;
  }
  CQ out;
  for (uint32_t v = 0; v < q.num_vars(); ++v) out.AddVar(q.var_name(v));
  for (const Atom& a : q.atoms()) {
    Atom fresh;
    fresh.rel = a.rel;
    for (Term t : a.terms) {
      if (IsVarTerm(t) && is_bound[VarOf(t)]) {
        fresh.terms.push_back(MakeConstTerm(binding[VarOf(t)]));
      } else {
        fresh.terms.push_back(t);
      }
    }
    out.AddAtom(std::move(fresh));
  }
  return out;  // Boolean: no answer variables added
}

CQ QuantifyAnswerVars(const CQ& q, VarSet to_quantify) {
  CQ out;
  for (uint32_t v = 0; v < q.num_vars(); ++v) out.AddVar(q.var_name(v));
  for (const Atom& a : q.atoms()) out.AddAtom(a);
  for (uint32_t v : q.answer_vars()) {
    if (!(to_quantify & VarBit(v))) out.AddAnswerVar(v);
  }
  return out;
}

}  // namespace omqe
