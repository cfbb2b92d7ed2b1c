// Yannakakis' algorithm for acyclic CQs: materialize per-atom relations,
// semijoin-reduce along a join forest, and decide Boolean satisfiability in
// time linear in ||D||. This is the engine behind linear-time single-testing
// (Theorem 3.1). Its one pair of semijoin passes, ReduceUp then ReduceDown,
// is the full reduction that every caller shares, the (q1, D1)
// normalization included.
#ifndef OMQE_EVAL_YANNAKAKIS_H_
#define OMQE_EVAL_YANNAKAKIS_H_

#include <vector>

#include "cq/cq.h"
#include "cq/hypergraph.h"
#include "data/database.h"
#include "eval/varrel.h"

namespace omqe {

/// Materializes the tuples of `db` matching `atom`: constants filtered,
/// repeated variables checked, columns = distinct variables of the atom in
/// first-occurrence order. One row per matching fact, so the rows are
/// distinct (VarRelation::AddRow says why).
VarRelation MaterializeAtom(const Atom& atom, const Database& db);

/// The bottom-up semijoin pass over `forest`, whose node i holds (*rels)[i]:
/// filters each parent by its children, children first. Returns false once
/// a relation drains (the join is then empty). A forest node numbered past
/// `rels` is a guard: it holds no relation, so it neither filters nor is
/// filtered.
bool ReduceUp(const JoinForest& forest, std::vector<VarRelation>* rels);

/// The top-down pass that completes the full reduction after a successful
/// ReduceUp: filters each child by its parent, parents first. Afterwards
/// every row extends to a join result of its tree (a guard splits its tree
/// into one per child), and no relation drains: each parent row still has
/// a match in each child. Guards as in ReduceUp.
void ReduceDown(const JoinForest& forest, std::vector<VarRelation>* rels);

/// Boolean evaluation of an acyclic CQ (answer variables, if any, are
/// treated as quantified): true iff q has a homomorphism into db.
/// Requires q acyclic — callers must check; aborts otherwise.
bool BooleanAcyclicEval(const CQ& q, const Database& db);

/// Replaces the i-th answer variable by the constant tuple[i] everywhere
/// (the resulting query is Boolean). All tuple values must be constants.
CQ BindAnswerVars(const CQ& q, const ValueTuple& tuple);

/// Turns the listed answer variables into quantified variables, keeping the
/// others (in order). Used for wildcard-position testing (Section 3).
CQ QuantifyAnswerVars(const CQ& q, VarSet to_quantify);

}  // namespace omqe

#endif  // OMQE_EVAL_YANNAKAKIS_H_
