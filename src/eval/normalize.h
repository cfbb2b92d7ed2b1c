// The (q0, D0) -> (q1, D1) normalization of paper Section 5 (conditions
// (i)-(iv)), following the construction of [Berkholz-Gerhardt-Schweikardt
// 2020] that the paper references:
//
//   * per variable-connected component of q0, build a join tree of
//     atoms(q0) + G(x̄) via GYO rooted at the guard G;
//   * materialize per-atom relations; run ReduceUp then ReduceDown
//     (eval/yannakakis.h: full reduction); Boolean components are checked
//     and dropped; purely-quantified subtrees are absorbed into their
//     parents;
//   * project the nodes containing answer variables onto their answer
//     variables, build a join tree of the projected node sets (q1's tree),
//     and fully reduce again with the same passes, which establishes the
//     progress condition (iv).
//
// The result is a forest of full (quantifier-free), acyclic, self-join-free
// query trees over pairwise disjoint answer variables with
// q1(D1) = q0(D0) — including null values, so the same structure feeds the
// Section 5/6 partial-answer machinery (condition (ii)). Each tree stores
// its nodes in preorder, so node 0 is its root and a parent precedes its
// children. The relations are plain row arrays; only projection drops
// repeated rows.
#ifndef OMQE_EVAL_NORMALIZE_H_
#define OMQE_EVAL_NORMALIZE_H_

#include <vector>

#include "base/status.h"
#include "cq/cq.h"
#include "data/database.h"
#include "data/index.h"
#include "eval/varrel.h"

namespace omqe {

struct NormNode {
  /// The node's variables P(v) (answer variables of q0), ascending.
  std::vector<uint32_t> vars;
  /// Reduced relation over `vars` (values may be nulls).
  VarRelation rel;
  std::vector<int> children;
  /// Variables shared with the parent (the predecessor variables of §5).
  std::vector<uint32_t> pred_vars;
  /// Index of `rel` keyed by the columns of `pred_vars` (all rows for the
  /// root).
  RowIndex index;
};

/// One connected q1 join tree, its nodes in preorder (node 0 is the root).
struct NormTree {
  std::vector<NormNode> nodes;
  VarSet vars = 0;
};

struct Normalized {
  /// True when q0(D0) is empty (some Boolean component failed or a relation
  /// drained during reduction). An empty normalization has no trees.
  bool empty = false;
  /// Pairwise variable-disjoint trees covering all answer variables, in the
  /// order of q1's join-forest roots.
  std::vector<NormTree> trees;
};

/// One node of q1: an atom of q0 that has an answer variable, and those
/// answer variables.
struct Q1Node {
  int atom;
  VarSet vars;
};

/// q1's nodes in the order Normalize creates them (per variable-connected
/// component of q0, its atoms in component order). They depend on q0 alone,
/// so limits on q1's shape can be checked before any data is touched; the
/// forest Normalize builds is GyoJoinForest over their variable sets.
std::vector<Q1Node> Q1Nodes(const CQ& q0);

/// Builds the normalization. Requires q0 acyclic and free-connex acyclic
/// (InvalidArgument otherwise). When `answers_constants_only` is set, rows
/// assigning a null to an answer variable are dropped up front (the paper's
/// P_db trick for complete answers, Theorem 4.1).
Status Normalize(const CQ& q0, const Database& d0, bool answers_constants_only,
                 Normalized* out);

}  // namespace omqe

#endif  // OMQE_EVAL_NORMALIZE_H_
