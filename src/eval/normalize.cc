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
      rels.push_back(MaterializeAtom(q0, atom, d0));
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
      for (int v : forest->BottomUp()) {
        for (int child : forest->children[v]) {
          SemijoinReduce(&rels[v], rels[child]);
        }
        if (rels[v].empty()) {
          out->empty = true;
          return Status::OK();
        }
      }
      continue;
    }

    // Join tree of atoms + guard, rooted at the guard.
    const int guard = static_cast<int>(edges.size());
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
    ReRoot(&*forest, guard);

    // Bottom-up pass (children into parents), skipping the guard itself.
    for (int v : forest->BottomUp()) {
      if (v == guard) continue;
      for (int child : forest->children[v]) {
        SemijoinReduce(&rels[v], rels[child]);
      }
      if (rels[v].empty()) {
        out->empty = true;
        return Status::OK();
      }
    }
    // Top-down pass (parents into children); children of the guard have no
    // parent constraint.
    for (int v : forest->PreOrder()) {
      if (v == guard) continue;
      for (int child : forest->children[v]) {
        SemijoinReduce(&rels[child], rels[v]);
        if (rels[child].empty()) {
          out->empty = true;
          return Status::OK();
        }
      }
    }

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

  // Group nodes per tree.
  std::vector<int> tree_of(projected.size(), -1);
  for (size_t i = 0; i < p_forest->roots.size(); ++i) {
    // BFS from each root.
    std::vector<int> stack{p_forest->roots[i]};
    while (!stack.empty()) {
      int v = stack.back();
      stack.pop_back();
      tree_of[v] = static_cast<int>(i);
      for (int c : p_forest->children[v]) stack.push_back(c);
    }
  }

  out->trees.resize(p_forest->roots.size());
  std::vector<int> local_id(projected.size(), -1);
  // First pass: create nodes in preorder so parents precede children.
  for (int v : p_forest->PreOrder()) {
    NormTree& tree = out->trees[tree_of[v]];
    local_id[v] = static_cast<int>(tree.nodes.size());
    tree.nodes.emplace_back();
    NormNode& node = tree.nodes.back();
    node.vars = projected[v].vars();
    node.rel = std::move(projected[v]);
    int p = p_forest->parent[v];
    node.parent = p == -1 ? -1 : local_id[p];
    if (node.parent != -1) {
      tree.nodes[node.parent].children.push_back(local_id[v]);
      VarSet shared = p_edges[v] & p_edges[p];
      node.pred_vars = SetToSortedVars(shared);
    }
    for (uint32_t var : node.vars) tree.vars |= VarBit(var);
  }

  // Full reduction per tree, then indexes and preorder.
  for (NormTree& tree : out->trees) {
    tree.root = 0;
    tree.preorder.resize(tree.nodes.size());
    for (size_t i = 0; i < tree.nodes.size(); ++i) {
      tree.preorder[i] = static_cast<int>(i);  // creation order is preorder
    }
    // Bottom-up.
    for (size_t i = tree.nodes.size(); i-- > 0;) {
      NormNode& node = tree.nodes[i];
      for (int child : node.children) {
        SemijoinReduce(&node.rel, tree.nodes[child].rel);
      }
      if (node.rel.empty()) {
        out->empty = true;
        return Status::OK();
      }
    }
    // Top-down.
    for (size_t i = 0; i < tree.nodes.size(); ++i) {
      for (int child : tree.nodes[i].children) {
        SemijoinReduce(&tree.nodes[child].rel, tree.nodes[i].rel);
        if (tree.nodes[child].rel.empty()) {
          out->empty = true;
          return Status::OK();
        }
      }
    }
    for (NormNode& node : tree.nodes) {
      node.index = RowIndex(node.rel.Row(0), node.rel.NumRows(), node.rel.width(),
                            node.rel.ColumnsOf(node.pred_vars));
    }
  }
  return Status::OK();
}

}  // namespace omqe
