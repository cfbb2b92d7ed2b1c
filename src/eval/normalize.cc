#include "eval/normalize.h"

#include <algorithm>

#include "cq/hypergraph.h"
#include "cq/properties.h"
#include "eval/yannakakis.h"

namespace omqe {

namespace {

std::vector<uint32_t> SetToSortedVars(VarSet s) {
  std::vector<uint32_t> out;
  while (s) {
    uint32_t v = static_cast<uint32_t>(__builtin_ctzll(s));
    s &= s - 1;
    out.push_back(v);
  }
  return out;
}

}  // namespace

std::vector<Q1Node> Q1Nodes(const CQ& q0) {
  const VarSet answers = q0.AnswerVarSet();
  std::vector<Q1Node> nodes;
  for (const std::vector<int>& comp : VarConnectedComponents(q0)) {
    for (int ai : comp) {
      VarSet p = CQ::AtomVars(q0.atoms()[ai]) & answers;
      if (p != 0) nodes.push_back({ai, p});
    }
  }
  return nodes;
}

Status Normalize(const CQ& q0, const Database& d0, bool answers_constants_only,
                 Normalized* out) {
  out->empty = false;
  out->trees.clear();
  const VarSet answers = q0.AnswerVarSet();

  // Fully reduced atom relations of the non-Boolean components, by atom.
  std::vector<VarRelation> reduced(q0.atoms().size());

  for (const std::vector<int>& comp : VarConnectedComponents(q0)) {
    // Materialize the component's atom relations.
    std::vector<VarRelation> rels;
    std::vector<VarSet> edges;
    VarSet comp_vars = 0;
    for (int ai : comp) {
      const Atom& atom = q0.atoms()[ai];
      rels.push_back(MaterializeAtom(atom, d0));
      edges.push_back(CQ::AtomVars(atom));
      comp_vars |= edges.back();
      if (answers_constants_only) {
        VarRelation& r = rels.back();
        std::vector<uint32_t> answer_cols;
        for (uint32_t c = 0; c < r.vars().size(); ++c) {
          if (answers & VarBit(r.vars()[c])) answer_cols.push_back(c);
        }
        if (!answer_cols.empty()) {
          r.Filter([&](const Value* row) {
            for (uint32_t c : answer_cols) {
              if (IsNull(row[c])) return false;
            }
            return true;
          });
        }
      }
      if (rels.back().empty()) {
        out->empty = true;
        return Status::OK();
      }
    }
    const VarSet comp_answers = comp_vars & answers;

    // Boolean component: satisfiability check only.
    if (comp_answers == 0) {
      auto forest = GyoJoinForest(edges);
      if (!forest.has_value()) {
        return Status::InvalidArgument("query is not acyclic");
      }
      if (!ReduceUp(*forest, &rels)) {
        out->empty = true;
        return Status::OK();
      }
      continue;
    }

    // Join tree of atoms + guard, rooted at the guard. The guard is the
    // forest's last node, past `rels`, so the passes skip it: children of
    // the guard have no parent constraint.
    edges.push_back(comp_answers);
    auto forest = GyoJoinForest(edges);
    if (!forest.has_value()) {
      return Status::InvalidArgument("query is not free-connex acyclic");
    }
    // The guard's component inside the forest contains every atom that has
    // an answer variable; atoms connected only through quantified variables
    // may form separate trees in degenerate cases, but since the component
    // is variable-connected and the guard covers all its answer variables,
    // GYO keeps everything in one tree rooted re-rootable at the guard.
    ReRoot(&*forest, static_cast<int>(rels.size()));
    if (!ReduceUp(*forest, &rels)) {
      out->empty = true;
      return Status::OK();
    }
    ReduceDown(*forest, &rels);

    for (size_t i = 0; i < comp.size(); ++i) reduced[comp[i]] = std::move(rels[i]);
  }

  // Project every atom containing an answer variable onto its answer
  // variables; these are the q1 nodes. Build q1's join forest over them.
  std::vector<VarRelation> projected;
  std::vector<VarSet> p_edges;
  for (const Q1Node& n : Q1Nodes(q0)) {
    projected.push_back(reduced[n.atom].Project(SetToSortedVars(n.vars)));
    p_edges.push_back(n.vars);
  }
  reduced.clear();
  auto p_forest = GyoJoinForest(p_edges);
  if (!p_forest.has_value()) {
    // Cannot happen for acyclic + free-connex inputs: Section 5's
    // normalization takes q1's join tree from free-connexity, after
    // Berkholz, Gerhardt and Schweikardt 2020.
    return Status::InvalidArgument(
        "projected prefix is cyclic; query is not acyclic + free-connex");
  }
  // Full reduction of q1, which establishes the progress condition (iv).
  if (!ReduceUp(*p_forest, &projected)) {
    out->empty = true;
    return Status::OK();
  }
  ReduceDown(*p_forest, &projected);

  // The preorder lists the trees one after another, so each tree's nodes
  // are created in preorder (parents before children) and indexed at once.
  std::vector<int> local_id(projected.size(), -1);
  for (int v : p_forest->PreOrder()) {
    const int p = p_forest->parent[v];
    if (p == -1) out->trees.emplace_back();
    NormTree& tree = out->trees.back();
    local_id[v] = static_cast<int>(tree.nodes.size());
    NormNode& node = tree.nodes.emplace_back();
    node.vars = projected[v].vars();
    node.rel = std::move(projected[v]);
    if (p != -1) {
      tree.nodes[local_id[p]].children.push_back(local_id[v]);
      node.pred_vars = SetToSortedVars(p_edges[v] & p_edges[p]);
    }
    for (uint32_t var : node.vars) tree.vars |= VarBit(var);
    node.index = RowIndex(node.rel.Row(0), node.rel.NumRows(), node.rel.width(),
                          node.rel.ColumnsOf(node.pred_vars));
  }
  return Status::OK();
}

}  // namespace omqe
